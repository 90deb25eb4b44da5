// Configuration of a deterministic simulation run: the shared-memory graph,
// link model, adversary (scheduling, delays, partitions), and crash plan.
// A run is a pure function of (SimConfig, process bodies).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "graph/graph.hpp"

namespace mm::runtime {

/// Thrown by SimConfig::validate() (and the runtime constructors that call
/// it) when a configuration is malformed. Distinct from MM_ASSERT so tests
/// and tools can catch and report bad configs instead of aborting.
class ConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Link semantics (§3). Reliable = Integrity + No-loss. FairLossy =
/// Integrity + Fair-loss, realised as i.i.d. Bernoulli drops: a message
/// re-sent forever is delivered infinitely often with probability 1.
enum class LinkType : std::uint8_t { kReliable, kFairLossy };

/// A network partition window: while `from ≤ step < until`, messages whose
/// endpoints straddle `side_a` (mask form) are held back and delivered only
/// after `until` (plus the normal delay). Reliability is preserved — this is
/// pure asynchrony, which is exactly the adversary of Theorem 4.4: shared
/// memory cannot be delayed, but messages can.
///
/// The mask form bounds partitions to n ≤ 64 (`side_a >> index` is UB at
/// index ≥ 64); SimConfig::validate() rejects larger systems with a clear
/// error instead of silently misclassifying traffic.
struct Partition {
  std::uint64_t side_a = 0;
  Step from = 0;
  Step until = 0;

  [[nodiscard]] bool crosses(Pid a, Pid b) const noexcept {
    const bool ia = (side_a >> a.index()) & 1ULL;
    const bool ib = (side_a >> b.index()) & 1ULL;
    return ia != ib;
  }
};

/// Explorer-scheduled fault plan: faults as first-class nondeterministic
/// choices instead of clock-indexed side effects. Each entry becomes a
/// *pseudo-process* that the schedule policy (DFS / DPOR, see src/check)
/// sees appended after the real runnable processes; firing one is a
/// zero-time transition whose footprint carries a fault dependency class
/// (runtime/footprint.hpp). The plan is inert without a schedule policy —
/// randomized runs keep using crash_at / FaultRules.
///
/// Pseudo-pid layout, after the n real processes:
///   [n, n+C)        one one-shot crash event per `crashes` entry
///   [n+C, n+C+n)    per-destination drop events (present iff drop_budget
///                   > 0; all draw from the one shared budget)
///   then            partition-on, partition-off (iff partition_mask set)
struct ExploreFaults {
  /// Each listed process gets a crash event the explorer may fire at any
  /// step (or never) while the process is still parked.
  std::vector<Pid> crashes;

  /// Total number of in-flight messages the explorer may destroy. A drop
  /// event for destination d is enabled while the budget is positive and
  /// d's in-flight queue is nonempty; firing pops the queue head.
  std::uint32_t drop_budget = 0;

  /// Transient partition window: an on-toggle starts holding messages that
  /// cross this cut (bit p = side A), an off-toggle re-injects them with
  /// their original delivery stamps. The explorer places both toggles.
  std::optional<std::uint64_t> partition_mask;

  [[nodiscard]] std::size_t width(std::size_t n) const noexcept {
    return crashes.size() + (drop_budget > 0 ? n : 0) +
           (partition_mask.has_value() ? 2 : 0);
  }
};

struct SimConfig {
  /// Shared-memory graph GSM; also fixes n = gsm.size(). Registers named
  /// with owner p are accessible by Sp = {p} ∪ neighbors(p).
  graph::Graph gsm;

  std::uint64_t seed = 1;

  LinkType link_type = LinkType::kReliable;
  double drop_prob = 0.0;  ///< per-message drop probability (fair-lossy only)

  /// Message delay in steps, uniform in [min_delay, max_delay].
  Step min_delay = 1;
  Step max_delay = 8;

  std::optional<Partition> partition;

  /// crash_at[p]: global step at which p crashes (never scheduled again).
  /// Empty vector = no crashes.
  std::vector<std::optional<Step>> crash_at;

  /// byzantine[p] != 0 declares p Byzantine for the run. The flag is
  /// declarative — behaviour comes from the installed ByzInterposer (see
  /// src/fault/byzantine.hpp) — but validate() uses it to reject incoherent
  /// plans: a process cannot be both Byzantine and in the crash plan (the
  /// Byzantine adversary subsumes crashing; count it once against f), and
  /// the set obviously cannot exceed n. Empty vector = no Byzantine procs.
  std::vector<std::uint8_t> byzantine;

  /// Scheduling weights (default 1.0 each): the adversary picks the next
  /// process proportionally. Zero-weight processes are only scheduled if no
  /// positive-weight process is runnable.
  std::vector<double> sched_weight;

  /// Timeliness guarantee (§3): if set, `timely` is scheduled at least once
  /// in every window of `timely_bound` global steps. This is the "at least
  /// one timely process" assumption of §5; all other processes may be
  /// arbitrarily (but fairly-randomly) delayed.
  std::optional<Pid> timely;
  Step timely_bound = 16;

  /// Arm event tracing from construction, keeping the last `trace_capacity`
  /// events in a fixed ring (0 = off, the default — tracing can still be
  /// switched on later via SimRuntime::enable_trace). The ring never grows,
  /// so long runs cannot accumulate trace memory silently.
  std::size_t trace_capacity = 0;

  /// Explorer-scheduled fault plan (see ExploreFaults above). Only honored
  /// by runs driven through set_schedule_policy; validate() checks the
  /// structure, check::validate_explorable checks explorer soundness.
  std::optional<ExploreFaults> explore_faults;

  /// Give each process fiber a guardless FiberStackPool::kStackBytes slot
  /// carved from pooled mappings instead of its own guarded
  /// Fiber::kDefaultStackBytes mapping. Required beyond n ≈ 3·10^4: the
  /// kernel's vm.max_map_count budget caps per-fiber mappings. The trade is
  /// a smaller stack without the overflow guard page, so bodies run there
  /// must be shallow.
  bool pooled_fiber_stacks = false;

  [[nodiscard]] std::size_t n() const noexcept { return gsm.size(); }

  /// Full structural check, throwing ConfigError with a field-specific
  /// message on the first problem. Both runtimes call this on construction;
  /// nothing past it should ever have to re-validate (bad configs used to
  /// fail silently or hit UB, e.g. partition masks shifted by ≥ 64).
  void validate() const;
};

/// Link-model subset of the validation, shared with ThreadRuntime::Config
/// (which has no delays, partitions, or plans).
inline void validate_link(LinkType link_type, double drop_prob) {
  if (!(drop_prob >= 0.0) || drop_prob >= 1.0)
    throw ConfigError{"drop_prob must be in [0, 1): a message re-sent forever must "
                      "have positive delivery probability"};
  if (link_type == LinkType::kReliable && drop_prob != 0.0)
    throw ConfigError{"drop_prob > 0 requires link_type = kFairLossy (reliable links "
                      "never drop)"};
}

inline void SimConfig::validate() const {
  const std::size_t procs = n();
  if (procs < 1) throw ConfigError{"SimConfig needs at least one process (empty GSM)"};
  validate_link(link_type, drop_prob);
  if (min_delay > max_delay)
    throw ConfigError{"min_delay must be <= max_delay"};
  if (partition.has_value() && procs > 64)
    throw ConfigError{"partition masks support at most 64 processes (side_a is a "
                      "64-bit mask); split the run or drop the partition"};
  auto check_arity = [procs](const auto& v, const char* what) {
    if (!v.empty() && v.size() != procs)
      throw ConfigError{std::string{what} + " must be empty or have exactly n entries"};
  };
  check_arity(crash_at, "crash_at");
  check_arity(byzantine, "byzantine");
  if (!byzantine.empty() && !crash_at.empty()) {
    for (std::size_t p = 0; p < procs; ++p)
      if (byzantine[p] != 0 && crash_at[p].has_value())
        throw ConfigError{"byzantine set overlaps the crash plan at p" +
                          std::to_string(p) + ": a Byzantine process already "
                          "subsumes crashing — count it once against f"};
  }
  check_arity(sched_weight, "sched_weight");
  for (const double w : sched_weight)
    if (!(w >= 0.0))
      throw ConfigError{"sched_weight entries must be finite and >= 0"};
  if (timely.has_value() && timely->index() >= procs)
    throw ConfigError{"timely pid out of range"};
  if (timely.has_value() && timely_bound == 0)
    throw ConfigError{"timely_bound must be >= 1"};
  if (explore_faults.has_value()) {
    const ExploreFaults& ef = *explore_faults;
    if (procs + ef.width(procs) > 64)
      throw ConfigError{"explore_faults: n + pseudo-process count must be <= 64 "
                        "(the explorer packs enabled sets into 64-bit masks)"};
    for (const Pid p : ef.crashes)
      if (p.index() >= procs)
        throw ConfigError{"explore_faults.crashes pid out of range"};
    for (std::size_t i = 0; i < ef.crashes.size(); ++i)
      for (std::size_t j = i + 1; j < ef.crashes.size(); ++j)
        if (ef.crashes[i] == ef.crashes[j])
          throw ConfigError{"explore_faults.crashes lists p" +
                            std::to_string(ef.crashes[i].index()) +
                            " twice (one crash event per process)"};
    if (ef.partition_mask.has_value()) {
      const std::uint64_t all = procs >= 64 ? ~0ULL : ((1ULL << procs) - 1);
      const std::uint64_t side = *ef.partition_mask & all;
      if (*ef.partition_mask != side)
        throw ConfigError{"explore_faults.partition_mask has bits >= n"};
      if (side == 0 || side == all)
        throw ConfigError{"explore_faults.partition_mask must put at least one "
                          "process on each side of the cut"};
    }
  }
}

}  // namespace mm::runtime
