// FaultEngine: evaluates a schedule of FaultRules against a live SimRuntime.
//
// The engine is the bridge between the declarative rule grammar (rule.hpp)
// and the runtime's imperative actuators (crash_now, fail_memory_now,
// set_partition_now, begin_link_burst, revoke_timely). It observes runtime
// events through the FaultInjector hooks and fires each rule at most once.
//
// Engines are stateful per run (counters, fired flags): never share one
// across trials — build a fresh engine per seed, inside the per-seed closure
// when fanning out with exec::parallel_map.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/byzantine.hpp"
#include "fault/rule.hpp"
#include "runtime/fault_hook.hpp"

namespace mm::fault {

class FaultEngine final : public runtime::FaultInjector {
 public:
  /// `byz_seed` seeds the dedicated Byzantine-adversary stream (see
  /// byzantine.hpp); runs with no kGoByzantine rule never draw from it, so
  /// the default keeps crash-only schedules bit-identical to before.
  explicit FaultEngine(std::vector<FaultRule> rules,
                       std::uint64_t byz_seed = 0xb5297a4d94f86f57ULL);

  void on_step(runtime::SimRuntime& rt) override;
  void on_send(runtime::SimRuntime& rt, Pid from, Pid to) override;
  void on_reg_write(runtime::SimRuntime& rt, Pid writer, runtime::RegKey key) override;

  // Interposition: delegate to the owned Byzantine adversary.
  bool on_byz_send(Pid from, Pid to, runtime::Message& m) override {
    return adversary_.on_byz_send(from, to, m);
  }
  void on_byz_reg_write(Pid writer, runtime::RegKey key, std::uint64_t& v) override {
    adversary_.on_byz_reg_write(writer, key, v);
  }

  /// The run's Byzantine adversary (populated as kGoByzantine rules fire).
  [[nodiscard]] ByzantineAdversary& adversary() noexcept { return adversary_; }
  [[nodiscard]] const ByzantineAdversary& adversary() const noexcept { return adversary_; }

  /// fired()[i] — whether rules()[i] has triggered in this run.
  [[nodiscard]] const std::vector<bool>& fired() const noexcept { return fired_; }
  [[nodiscard]] std::size_t fired_count() const noexcept;
  [[nodiscard]] const std::vector<FaultRule>& rules() const noexcept { return rules_; }

 private:
  void fire(runtime::SimRuntime& rt, std::size_t i, Pid context);

  std::vector<FaultRule> rules_;
  std::vector<bool> fired_;
  std::vector<std::uint64_t> send_seen_;  ///< per-rule send counter (kOnNthSend)
  bool any_step_rules_ = false;
  ByzantineAdversary adversary_;
};

}  // namespace mm::fault
