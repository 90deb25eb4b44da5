// Exhaustive schedule exploration — the naive DFS baseline of the model
// checker (the DPOR explorer in check/dpor.hpp is differentially tested
// against it).
//
// The simulator is deterministic given (seed, schedule choices): process
// coins and link delays come from seeded streams, so the ONLY source of
// nondeterminism left is which runnable process the scheduler picks at each
// step. This module enumerates that choice tree depth-first: every run
// replays a choice prefix and extends it with first-runnable defaults, the
// branch degrees are recorded, and backtracking increments the deepest
// non-exhausted choice. For small configurations the walk covers EVERY
// interleaving — turning the test suite's probabilistic sweeps into proofs
// for those instances (e.g. adopt-commit coherence for 2 processes is
// verified over all ~10^3 interleavings, not sampled).
//
// Costs grow like the number of interleavings (C(2k, k) for two processes
// issuing k operations each), so callers bound runs with `max_runs`; the
// result says whether — and in what sense — the tree was exhausted. Both
// explorers spend the budget alike: it is tested before each run, and a
// walk whose tree runs out first ends exhaustive, so a tree of exactly
// `max_runs` runs is covered in full.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "runtime/footprint.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::check {

/// What a finished exploration actually proved. `kFull` is an unconditional
/// statement over every schedule; `kWithinPreemptionBound` covered every
/// schedule with at most `max_preemptions` context switches (CHESS-style;
/// the DFS only); `kBudgetTruncated` means a run or step budget expired
/// first and nothing exhaustive can be claimed. perfbench folds the
/// enumerator values into its `dpor` digest: keep them.
enum class Exhaustiveness : std::uint8_t {
  kBudgetTruncated,
  kWithinPreemptionBound,
  kFull,
};

[[nodiscard]] constexpr const char* to_string(Exhaustiveness e) noexcept {
  switch (e) {
    case Exhaustiveness::kBudgetTruncated: return "budget-truncated";
    case Exhaustiveness::kWithinPreemptionBound: return "within-preemption-bound";
    case Exhaustiveness::kFull: return "full";
  }
  return "?";
}

struct ExploreOptions {
  std::uint64_t max_runs = 1'000'000;  ///< run budget, tested before each run
  Step max_steps_per_run = 100'000;    ///< per-run budget (guards against livelock)
  /// Preemption bound (CHESS-style): when set, only schedules with at most
  /// this many preemptions — switching away from a process that is still
  /// runnable — are explored; once the budget is used, the running process
  /// keeps running while it can. Drastically shrinks the tree (polynomial in
  /// run length for a constant bound) while empirically covering most
  /// concurrency bugs. Unset means unbounded, i.e. genuinely every schedule.
  std::optional<std::uint32_t> max_preemptions;
};

struct ExploreResult {
  std::uint64_t runs = 0;
  bool all_runs_completed = true;  ///< every run finished within the step budget
  /// The statement proved; see Exhaustiveness (pinned by
  /// Explore.ExhaustivenessContract). Anything but kBudgetTruncated also
  /// requires all_runs_completed — a run truncated by max_steps_per_run is
  /// an unexplored suffix.
  Exhaustiveness exhaustiveness = Exhaustiveness::kBudgetTruncated;
  /// Runs not replayed because the state cache recognised a revisited state.
  /// Always 0 for the naive DFS (it has no cache); the field lives here so
  /// DPOR and DFS report through one struct.
  std::uint64_t runs_pruned_by_state_cache = 0;
  /// Branches never scheduled because every candidate was in the sleep set.
  std::uint64_t runs_pruned_by_sleep_set = 0;
  /// Sorted, deduplicated canonical state hashes of the completed runs'
  /// final states — the set the two explorers are differentially compared
  /// on. Both fill it; each arms SimRuntime footprint recording to do so.
  std::vector<runtime::StateHash> final_states;
};

/// `make` builds a fresh runtime with all process bodies attached (and must
/// reset whatever state `verify` inspects); `verify` is called after each
/// completed run and should assert/throw on a safety violation (gtest
/// EXPECT/ASSERT work — they mark the surrounding test).
[[nodiscard]] ExploreResult explore_schedules(
    const std::function<std::unique_ptr<runtime::SimRuntime>()>& make,
    const std::function<void(runtime::SimRuntime&)>& verify,
    const ExploreOptions& options = {});

namespace detail {

/// How both explorers end a walk. `covered` is what the walk proved by how
/// it stopped: kBudgetTruncated when the run budget expired, else what
/// covering the whole tree proves. A run cut by its step budget lowers that
/// to kBudgetTruncated. `finals`, the final states of the completed runs,
/// becomes `result.final_states`, sorted and deduplicated.
void finish_result(ExploreResult& result, Exhaustiveness covered,
                   std::vector<runtime::StateHash>& finals);

}  // namespace detail

}  // namespace mm::check
