// Per-step footprints and canonical state hashes — what the model checker
// (src/check) needs from the runtime.
//
// A footprint records which shared objects one scheduler step (one process
// slice) touched: register read/write sets, message sends by destination,
// whether the inbox was drained, whether randomness was consumed, and
// whether the global clock was observed. Two steps by different processes
// are INDEPENDENT when their footprints cannot conflict — swapping two
// adjacent independent steps provably reaches the same state (see
// docs/RUNTIME.md, "Footprints and independence"). That relation is what
// drives the sleep-set DPOR explorer in check/dpor.*.
//
// StateHash is the 128-bit canonical hash of a whole simulator state
// (process observation histories + register contents + in-flight messages),
// computed by SimRuntime::state_hash(). Two states with equal hashes have
// — up to hash collision, negligible at 128 bits — identical futures under
// identical schedules, which is what makes state caching sound.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "runtime/register_key.hpp"

namespace mm::runtime {

struct StateHash {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const StateHash&, const StateHash&) = default;
  friend auto operator<=>(const StateHash&, const StateHash&) = default;
};

/// Everything one scheduler step touched. Vectors are deduplicated but
/// unordered; footprints are tiny (a handful of entries), so conflict
/// checks are linear scans.
struct StepFootprint {
  Pid pid = Pid::none();
  std::vector<RegKey> reads;   ///< registers read (CAS contributes here too)
  std::vector<RegKey> writes;  ///< registers written (CAS contributes here too)
  std::vector<Pid> send_to;    ///< destinations of sends this step
  bool drained = false;        ///< the step drained its inbox
  bool drew_rand = false;      ///< consumed the per-process random stream
  bool observed_clock = false; ///< called Env::now() — depends on every step
  /// The step retired its process (the body returned during this slice).
  /// Ordinary steps never conflict through this, but fault pseudo-events
  /// are only schedulable while >= 1 real process is runnable, so the step
  /// that finishes the LAST real process disables every still-enabled fault
  /// event without touching anything the fault touches. Classing finishing
  /// steps as dependent with every fault event keeps that enabledness edge
  /// visible to the explorer (which process is last cannot be known
  /// statically, so every finishing step carries the flag).
  bool finishes = false;

  // Fault pseudo-process classes (see docs/RUNTIME.md, "Faults as
  // pseudo-processes"). Each fault event the explorer schedules is a
  // one-slot "step" of a pseudo-process and sets exactly one marker; the
  // mask form (bit p = the event targets process p) makes cache-aggregate
  // merging an exact union. Masks are only ever set by explorer pseudo-
  // events, which require n <= 64 (validate_explorable), so the bit width
  // is never a constraint in practice.
  std::uint64_t crash_mask = 0; ///< processes crashed by this step
  std::uint64_t drop_mask = 0;  ///< destinations whose head in-flight message this step drops
  std::uint64_t part_mask = 0;  ///< partition cut toggled by this step (side-A mask)
  bool part_toggle = false;     ///< this step toggles the explorer partition window

  void clear(Pid p) {
    pid = p;
    reads.clear();
    writes.clear();
    send_to.clear();
    drained = false;
    drew_rand = false;
    observed_clock = false;
    finishes = false;
    crash_mask = 0;
    drop_mask = 0;
    part_mask = 0;
    part_toggle = false;
  }

  void add_read(RegKey k) {
    for (const RegKey r : reads)
      if (r == k) return;
    reads.push_back(k);
  }
  void add_write(RegKey k) {
    for (const RegKey r : writes)
      if (r == k) return;
    writes.push_back(k);
  }
  void add_send(Pid to) {
    for (const Pid p : send_to)
      if (p == to) return;
    send_to.push_back(to);
  }

  /// Merge `other` into this footprint (same-pid union; used by the DPOR
  /// state cache to summarize whole explored subtrees).
  ///
  /// The fault masks union exactly: an aggregate that lost a fault marker
  /// would under-approximate the subtree's dependencies and leave sleeping
  /// siblings asleep that the subtree's events should wake. `part_mask` is
  /// an OR, which is exact because one exploration has a single configured
  /// cut — every toggle step carries the same mask.
  void merge(const StepFootprint& other) {
    for (const RegKey k : other.reads) add_read(k);
    for (const RegKey k : other.writes) add_write(k);
    for (const Pid p : other.send_to) add_send(p);
    drained = drained || other.drained;
    drew_rand = drew_rand || other.drew_rand;
    observed_clock = observed_clock || other.observed_clock;
    finishes = finishes || other.finishes;
    crash_mask |= other.crash_mask;
    drop_mask |= other.drop_mask;
    part_mask |= other.part_mask;
    part_toggle = part_toggle || other.part_toggle;
  }
};

namespace detail {

/// Bit test guarded against pseudo-pids (index >= 64): fault masks only
/// carry real-process bits, so an out-of-range index can never match.
[[nodiscard]] inline bool mask_has(std::uint64_t mask, Pid p) noexcept {
  return p.index() < 64 && ((mask >> p.index()) & 1ULL) != 0;
}

/// Does a message from `from` to `to` straddle the cut `side_a`?
[[nodiscard]] inline bool mask_crosses(std::uint64_t side_a, Pid from, Pid to) noexcept {
  return mask_has(side_a, from) != mask_has(side_a, to);
}

/// One direction of the fault-class checks: does a fault marker in `a`
/// conflict with anything `b` did? Called both ways below.
[[nodiscard]] inline bool fault_conflicts(const StepFootprint& a,
                                          const StepFootprint& b) noexcept {
  if (a.crash_mask != 0) {
    // Crash-of-P vs any step by P: the crash disables P, and P's final step
    // disables the crash — neither order reaches the other's state. Crash
    // vs a send to P: whether the message lands before or after the crash
    // is observable (it decides if P can ever drain it).
    if (mask_has(a.crash_mask, b.pid)) return true;
    for (const Pid t : b.send_to)
      if (mask_has(a.crash_mask, t)) return true;
  }
  if (a.drop_mask != 0) {
    // Drop-to-P removes the head of P's in-flight queue, so it conflicts
    // with the matching send (which message is at the head) and with P's
    // drains (drop-then-drain delivers one fewer message). All drop events
    // share one budget, so any two drops interfere (one can disable the
    // other); that symmetric case is handled by the caller.
    if (mask_has(a.drop_mask, b.pid) && b.drained) return true;
    for (const Pid t : b.send_to)
      if (mask_has(a.drop_mask, t)) return true;
  }
  if (a.part_toggle) {
    // A toggle flips whether crossing sends are held, so it conflicts with
    // every step that sends across the cut. (Toggle-off re-injects held
    // messages and records them in send_to, so drains and drops at the
    // destinations are caught by the ordinary channel rules.)
    for (const Pid t : b.send_to)
      if (mask_crosses(a.part_mask, b.pid, t)) return true;
  }
  return false;
}

}  // namespace detail

/// True when the two steps may NOT be swapped: same process (program
/// order), a register conflict (shared register with at least one writer),
/// a channel conflict (send racing a drain by the destination, or two
/// sends to the same destination, whose inbox order is observable), a
/// clock observation (time advances with every step, so a step that reads
/// the clock commutes with nothing), or a fault-event conflict (crash vs
/// steps/deliveries of the crashed process, drop vs the matching send and
/// drain or another budget-sharing drop, partition toggle vs crossing
/// sends and other toggles). Requires the explorer preconditions of
/// check/dpor.hpp (reliable links, unit delay) — under those, steps whose
/// footprints pass every check below commute in every state where both
/// are enabled.
[[nodiscard]] inline bool footprints_dependent(const StepFootprint& a,
                                               const StepFootprint& b) noexcept {
  if (a.pid == b.pid) return true;
  if (a.observed_clock || b.observed_clock) return true;
  const bool a_fault = a.crash_mask != 0 || a.drop_mask != 0 || a.part_toggle;
  const bool b_fault = b.crash_mask != 0 || b.drop_mask != 0 || b.part_toggle;
  // Any two fault events interfere: drops share one budget, the two toggles
  // order the window, and a crash that retires the last runnable real
  // process closes the scheduling gate on every other fault event.
  if (a_fault && b_fault) return true;
  // Fault events are only schedulable while >= 1 real process is runnable:
  // a finishing step may close that gate, so the orders fault-then-finish
  // and finish-then-fault do not reach the same set of states (the second
  // may not exist). See StepFootprint::finishes.
  if ((a_fault && b.finishes) || (b_fault && a.finishes)) return true;
  if (detail::fault_conflicts(a, b) || detail::fault_conflicts(b, a)) return true;
  for (const RegKey w : a.writes) {
    for (const RegKey r : b.reads)
      if (w == r) return true;
    for (const RegKey r : b.writes)
      if (w == r) return true;
  }
  for (const RegKey w : b.writes)
    for (const RegKey r : a.reads)
      if (w == r) return true;
  for (const Pid t : a.send_to) {
    if (t == b.pid && b.drained) return true;
    for (const Pid u : b.send_to)
      if (t == u) return true;
  }
  for (const Pid t : b.send_to)
    if (t == a.pid && a.drained) return true;
  return false;
}

}  // namespace mm::runtime
