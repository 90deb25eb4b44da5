// Sleep-set DPOR with state caching — the real model checker over
// SimRuntime, reducing the naive choice tree of check/explore.hpp to (a
// superset of) one representative per Mazurkiewicz trace.
//
// The reduction rests on the per-step footprints recorded by
// SimRuntime::set_footprint_recording: two slices by different processes
// whose footprints pass runtime/footprint.hpp's independence checks commute
// — executing them in either order reaches the same state — so only one
// order needs exploring. Three cooperating mechanisms exploit this:
//
//  * Backtrack (persistent) sets: after each run, a race scan over the
//    executed footprints finds dependent step pairs not already ordered
//    transitively (vector clocks) and marks the alternative process for
//    exploration at the earlier decision — classic Flanagan–Godefroid DPOR.
//  * Sleep sets: a fully explored branch "sleeps" for its later siblings
//    until a dependent step wakes it, cutting re-explorations of the same
//    commutation from the other side.
//  * State cache: the canonical SimRuntime::state_hash keys previously
//    explored decision points. Hitting a *closed* entry prunes the subtree,
//    replaying the entry's aggregated per-process footprints as pseudo-steps
//    so races into the current prefix are still found; hitting an *open*
//    entry (an ancestor on the current path) prunes a cycle, which is what
//    lets busy-wait spins terminate under set_idle_slice_collapse.
//
// Soundness needs a restricted adversary — validate_explorable() enforces
// it: reliable links, fixed delay <= 1 (longer or variable delays break the
// commutation of a send with an unrelated step), no clock-indexed faults
// (config partitions, crash plans past step 0), no Byzantine processes
// (adversary interposition has no dependency class yet). Faults ARE
// explorable when expressed as SimConfig::explore_faults:
// each crash / bounded message drop / partition-window toggle becomes a
// *pseudo-process* whose one-shot steps the explorer schedules like any
// other process. A fired fault is a zero-time transition carrying its own
// footprint dependency class (crash-of-pid, drop-of-message, partition
// toggle — runtime/footprint.hpp), so the race scan, sleep sets, and state
// cache handle fault timing with no special cases, and an exhaustive
// verdict covers every fault placement the plan allows, including "never
// fires". Within that envelope a finished exploration is meant to be a
// proof over EVERY schedule, reported through the same
// ExploreResult/Exhaustiveness contract as the DFS baseline — which stays
// the differential oracle (same verdict, same reachable final-state set,
// fewer runs). It is not one yet: the walk misses reachable final states
// on some instances, through sleeping backtrack candidates and cache
// cycles (DporCompleteness.Ac3; ROADMAP item 3).
//
// The walk has no preemption bound. CHESS-style bounding belongs to the
// naive DFS (ExploreOptions::max_preemptions), whose bounded enumeration is
// sound. A bound on this walk is not: a decision the bound collapses takes
// no backtrack points, so a race whose earlier step sits there is never
// reversed, and the bounded walk misses states the bounded DFS reaches.
// Coons, Musuvathi & McKinley, *Bounded Partial-Order Reduction* (OOPSLA
// 2013), add the backtrack points that make a bounded walk sound; nothing
// here needs one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "check/explore.hpp"
#include "runtime/sim_config.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::check {

struct DporOptions {
  /// Replay budget: counts every schedule replay, including attempts the
  /// sleep set or state cache aborts early.
  std::uint64_t max_runs = 1'000'000;
  Step max_steps_per_run = 100'000;  ///< per-run step budget (livelock guard)
  // No preemption bound: a decision it collapsed would never reverse the
  // races that start there (header comment). A bounded search is the DFS's
  // (ExploreOptions::max_preemptions).
  bool state_cache = true;
  /// false switches off one use of sleep sets: the skip, without a replay,
  /// of a backtrack candidate that was asleep when its node was entered.
  /// Sleep sets are still tracked, a new decision still picks the first
  /// process that is awake, a replay that reaches a decision where every
  /// enabled process sleeps still stops (sleep-pruned), and cache entries
  /// still compare sleep sets. The default walk misses reachable final
  /// states that this walk reaches (DporCompleteness.Ac3, ROADMAP item 3).
  bool sleep_sets = true;
  /// Always 0, and nothing can set it: the walk is one sequential walker.
  /// It stays only because perfbench's `dpor` workload checks it, and goes
  /// with the next benchmark change (ROADMAP item 1).
  static constexpr std::size_t frontier_depth = 0;
  /// Arm SimRuntime::set_idle_slice_collapse on every replay. Required for
  /// instances with busy-wait await loops (else spins never revisit a cached
  /// state and every run hits max_steps_per_run); only sound when those
  /// loops are spin-stateless — see docs/RUNTIME.md.
  bool idle_slice_collapse = false;
};

/// Throws runtime::ConfigError unless `config` is inside the envelope where
/// the footprint independence relation is sound (see header comment).
void validate_explorable(const runtime::SimConfig& config);

/// Same harness contract as explore_schedules: `make` builds a fresh
/// runtime (bodies attached, not started; its config must pass
/// validate_explorable), `verify` runs after every non-pruned run and
/// throws/asserts on violations. One sequential walk on the calling thread.
/// The verdict is kFull or kBudgetTruncated, never kWithinPreemptionBound.
[[nodiscard]] ExploreResult explore_dpor(
    const std::function<std::unique_ptr<runtime::SimRuntime>()>& make,
    const std::function<void(runtime::SimRuntime&)>& verify,
    const DporOptions& options = {});

}  // namespace mm::check
