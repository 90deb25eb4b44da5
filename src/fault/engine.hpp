// FaultEngine: evaluates a schedule of FaultRules against a live SimRuntime.
//
// The engine is the bridge between the declarative rule grammar (rule.hpp)
// and the runtime's imperative actuators (crash_now, fail_memory_now,
// set_partition_now, begin_link_burst). It observes runtime events through
// the FaultInjector hooks and fires each rule at most once. On a send or a
// register write it fires the rules first and then hands the event to its
// Byzantine adversary, so a kGoByzantine rule fired by an event already
// corrupts that event.
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
  explicit FaultEngine(std::vector<FaultRule> rules);

  void on_step(runtime::SimRuntime& rt) override;
  bool on_send(runtime::SimRuntime& rt, Pid from, Pid to, runtime::Message& m) override;
  void on_reg_write(runtime::SimRuntime& rt, Pid writer, runtime::RegKey key,
                    std::uint64_t& v) override;

  /// The run's Byzantine adversary (populated as kGoByzantine rules fire).
  [[nodiscard]] ByzantineAdversary& adversary() noexcept { return adversary_; }
  [[nodiscard]] const ByzantineAdversary& adversary() const noexcept { return adversary_; }

  /// How many rules have triggered in this run.
  [[nodiscard]] std::size_t fired_count() const noexcept;

 private:
  void fire(runtime::SimRuntime& rt, std::size_t i, Pid context);

  /// Seeds the dedicated Byzantine-adversary stream (see byzantine.hpp); runs
  /// with no kGoByzantine rule never draw from it.
  static constexpr std::uint64_t kByzSeed = 0xb5297a4d94f86f57ULL;

  std::vector<FaultRule> rules_;
  std::vector<bool> fired_;
  std::vector<std::uint64_t> send_seen_;  ///< per-rule send counter (kOnNthSend)
  bool any_step_rules_ = false;
  ByzantineAdversary adversary_;
};

}  // namespace mm::fault
