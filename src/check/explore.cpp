#include "check/explore.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "runtime/fiber.hpp"

namespace mm::check {

using runtime::FiberStackRecycler;
using runtime::SimRuntime;

namespace {

/// Sort `states` and drop duplicates.
void dedupe(std::vector<runtime::StateHash>& states) {
  std::sort(states.begin(), states.end());
  states.erase(std::unique(states.begin(), states.end()), states.end());
}

}  // namespace

void detail::finish_result(ExploreResult& result, Exhaustiveness covered,
                           std::vector<runtime::StateHash>& finals) {
  // A truncated run is an unexplored schedule suffix: the tree over the
  // *visited* prefixes was covered, but no exhaustive claim survives.
  result.exhaustiveness =
      result.all_runs_completed ? covered : Exhaustiveness::kBudgetTruncated;
  dedupe(finals);
  result.final_states.assign(finals.begin(), finals.end());
}

ExploreResult explore_schedules(
    const std::function<std::unique_ptr<SimRuntime>()>& make,
    const std::function<void(SimRuntime&)>& verify, const ExploreOptions& options) {
  ExploreResult result;
  std::vector<runtime::StateHash> finals;
  // Final states are deduplicated whenever their count reaches this mark,
  // which then doubles past the distinct count: memory follows the distinct
  // states, not the runs, at amortised O(log) sorting per state.
  std::size_t dedupe_at = 1024;
  std::vector<std::size_t> prefix;
  // Every replay builds and destroys a SimRuntime: recycle its fiber stacks.
  const FiberStackRecycler stacks;

  // As in the DPOR walker: the budget is tested before each run, so a tree
  // whose last run spends the last of the budget still ends covered.
  Exhaustiveness covered = Exhaustiveness::kBudgetTruncated;
  while (result.runs < options.max_runs) {
    auto rt = make();
    rt->set_footprint_recording(true);
    std::vector<std::size_t> degrees;  // branch degree at each decision
    std::size_t depth = 0;
    std::uint32_t preemptions = 0;
    Pid previous = Pid::none();
    rt->set_schedule_policy([&](const std::vector<Pid>& runnable) {
      // Preemption bounding: once the budget is spent, a still-runnable
      // previous process must continue — the decision point collapses
      // (degree 1), which is what shrinks the tree.
      std::size_t forced = runnable.size();  // sentinel: not forced
      if (options.max_preemptions.has_value() && preemptions >= *options.max_preemptions &&
          !previous.is_none()) {
        for (std::size_t i = 0; i < runnable.size(); ++i)
          if (runnable[i] == previous) forced = i;
      }
      std::size_t choice;
      if (forced < runnable.size()) {
        choice = forced;
        degrees.push_back(1);
        MM_ASSERT_MSG(depth >= prefix.size() || prefix[depth] == 0,
                      "replay diverged on a forced decision");
      } else {
        choice = depth < prefix.size() ? prefix[depth] : 0;
        MM_ASSERT_MSG(choice < runnable.size(),
                      "replay diverged: recorded choice exceeds branch degree");
        degrees.push_back(runnable.size());
      }
      ++depth;
      if (!previous.is_none() && runnable[choice] != previous) {
        // Switching away from a still-runnable process is a preemption;
        // switching because it finished/blocked is not.
        for (const Pid p : runnable)
          if (p == previous) ++preemptions;
      }
      previous = runnable[choice];
      return choice;
    });
    const bool completed = rt->run_until_all_done(options.max_steps_per_run);
    if (completed) {
      finals.push_back(rt->state_hash());
      if (finals.size() >= dedupe_at) {
        dedupe(finals);
        dedupe_at = std::max(dedupe_at, 2 * finals.size());
      }
    }
    rt->shutdown();
    rt->rethrow_process_error();
    if (!completed) result.all_runs_completed = false;
    verify(*rt);
    ++result.runs;

    // Backtrack: deepest decision with an untried sibling. The full trace is
    // the prefix padded with zeros, so scanning `degrees` covers both.
    std::vector<std::size_t> full = prefix;
    full.resize(degrees.size(), 0);
    bool advanced = false;
    for (std::size_t pos = full.size(); pos-- > 0;) {
      if (full[pos] + 1 < degrees[pos]) {
        full[pos] += 1;
        full.resize(pos + 1);
        prefix = std::move(full);
        advanced = true;
        break;
      }
    }
    if (!advanced) {
      covered = options.max_preemptions.has_value() ? Exhaustiveness::kWithinPreemptionBound
                                                    : Exhaustiveness::kFull;
      break;
    }
  }
  detail::finish_result(result, covered, finals);
  return result;
}

}  // namespace mm::check
