// The Byzantine adversary: per-process corruption policies realised through
// the FaultInjector send and register-write hooks (runtime/fault_hook.hpp),
// which FaultEngine forwards here after firing its rules.
//
// A process "goes Byzantine" when a kGoByzantine FaultRule fires (or a test
// calls go_byzantine directly). From then on every message it sends and every
// register value it writes passes through this adversary, which may
//
//   * equivocate  — deterministically send different payloads to different
//                   destinations on the same logical send,
//   * stay silent — suppress sends to a chosen destination subset,
//   * corrupt     — replace the scalar payload with adversary-random bits,
//   * replay      — substitute an earlier message of its own (bounded log),
//   * corrupt its register writes — rewrite the value of any write the
//                   process could legitimately perform.
//
// Model-legality (see runtime/fault_hook.hpp): the adversary only ever acts
// through the corrupted process's own powers. Senders cannot be forged (the
// runtime stamps m.from after the hook) and corrupted writes still pass the
// GSM access check, so "Byzantine" means a corrupted process, never a
// corrupted model.
//
// Determinism: all adversary randomness comes from one dedicated Rng stream,
// seeded independently of the runtime's sched/link/fault/proc streams, and
// drawn only on behalf of Byzantine processes. An installed adversary with an
// empty Byzantine set draws nothing and touches nothing, so fault-free and
// crash-only runs stay bit-identical with the subsystem compiled in —
// `rng_draws()` lets tests pin that contract. SimRuntime runs the hooks at
// deterministic points, one at a time, so Byzantine runs replay from their
// seed too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "runtime/message.hpp"
#include "runtime/register_key.hpp"

namespace mm::fault {

/// Behaviour bits for a Byzantine process (OR-combinable).
enum : std::uint32_t {
  kByzEquivocate = 1u << 0,     ///< destination-dependent payloads
  kByzSilence = 1u << 1,        ///< drop sends to `silence_mask` destinations
  kByzCorrupt = 1u << 2,        ///< randomise the scalar payload
  kByzReplay = 1u << 3,         ///< substitute an earlier own message
  kByzCorruptWrites = 1u << 4,  ///< randomise register writes (GSM-legal ones)
};

/// Per-process Byzantine behaviour policy.
struct ByzPolicy {
  std::uint32_t behaviors = 0;
  std::uint64_t silence_mask = 0;  ///< kByzSilence: bit d set = never send to pd
  /// Probability a kByzCorrupt / kByzReplay / kByzCorruptWrites opportunity is
  /// taken (kGoByzantine rules map drop_prob here; 0 is normalised to 1.0 so
  /// a default-constructed rule corrupts every time).
  double intensity = 1.0;
};

/// Owned by FaultEngine (one per run, like the engine itself); tests may also
/// construct and drive one directly.
class ByzantineAdversary {
 public:
  explicit ByzantineAdversary(std::uint64_t seed) : rng_(seed) {}

  /// Mark p Byzantine with the given policy (last call wins).
  void go_byzantine(Pid p, ByzPolicy policy);

  [[nodiscard]] bool is_byzantine(Pid p) const;
  /// Number of processes currently marked Byzantine.
  [[nodiscard]] std::size_t count() const noexcept { return policies_.size(); }
  /// Bitmask of Byzantine pids with index < 64 (oracle scoping: judge safety
  /// only at correct processes). Pids >= 64 are tracked but not in the mask.
  [[nodiscard]] std::uint64_t byz_mask() const noexcept { return byz_mask_; }
  /// Total draws taken from the dedicated adversary stream. Zero whenever the
  /// Byzantine set is empty — the determinism contract tests pin.
  [[nodiscard]] std::uint64_t rng_draws() const noexcept { return draws_; }

  /// FaultInjector::on_send's data path: a Byzantine `from`'s send, rewritten
  /// or suppressed (false); pass-through otherwise.
  bool on_byz_send(Pid from, Pid to, runtime::Message& m);
  /// FaultInjector::on_reg_write's data path for a Byzantine `writer`.
  void on_byz_reg_write(Pid writer, runtime::RegKey key, std::uint64_t& v);

 private:
  /// Bounded per-run replay memory: old enough to be stale, small enough to
  /// stay O(1) per run.
  static constexpr std::size_t kReplayLogCap = 32;

  [[nodiscard]] std::uint64_t draw();
  [[nodiscard]] bool take(double intensity);

  std::uint64_t byz_mask_ = 0;
  Rng rng_;
  std::uint64_t draws_ = 0;
  std::unordered_map<std::uint32_t, ByzPolicy> policies_;
  std::vector<runtime::Message> replay_log_;
  std::size_t replay_next_ = 0;  ///< ring cursor once the log is full
};

}  // namespace mm::fault
