#include "fault/shrink.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mm::fault {

namespace {

/// Probe runs one shrink may spend.
constexpr std::size_t kMaxEvals = 400;

/// Shared probe state: counts evaluations and remembers the last violation
/// a successful (= still failing) probe produced.
struct Prober {
  Oracle want;
  std::size_t evals = 0;
  Violation last;

  /// True when `c` still violates the oracle we are minimizing for.
  bool still_fails(const ChaosCase& c) {
    if (evals >= kMaxEvals) return false;  // out of budget: treat as passed
    ++evals;
    const ChaosOutcome out = run_chaos_case(c);
    if (out.violation && out.violation->oracle == want) {
      last = *out.violation;
      return true;
    }
    return false;
  }
};

/// Classic ddmin over the rule list: try removing chunks of decreasing size;
/// restart at coarse granularity after every successful removal.
void ddmin_rules(ChaosCase& c, Prober& pr) {
  std::size_t chunk = std::max<std::size_t>(1, c.rules.size() / 2);
  while (!c.rules.empty() && pr.evals < kMaxEvals) {
    bool removed_any = false;
    for (std::size_t start = 0; start < c.rules.size() && pr.evals < kMaxEvals;) {
      ChaosCase candidate = c;
      const std::size_t end = std::min(start + chunk, candidate.rules.size());
      candidate.rules.erase(candidate.rules.begin() + static_cast<std::ptrdiff_t>(start),
                            candidate.rules.begin() + static_cast<std::ptrdiff_t>(end));
      if (pr.still_fails(candidate)) {
        c = std::move(candidate);
        removed_any = true;
        // Same start now addresses the next chunk; do not advance.
      } else {
        start += chunk;
      }
    }
    if (removed_any && chunk > 1) {
      chunk = std::max<std::size_t>(1, c.rules.size() / 2);  // restart coarse
    } else if (chunk > 1) {
      chunk = (chunk + 1) / 2;
    } else if (!removed_any) {
      break;  // minimal at granularity 1
    }
  }
}

/// Try a candidate; keep it if it still fails.
bool try_keep(ChaosCase& c, ChaosCase candidate, Prober& pr) {
  if (pr.still_fails(candidate)) {
    c = std::move(candidate);
    return true;
  }
  return false;
}

/// Per-rule parameter shrinking: smaller trigger counts replay earlier,
/// zeroed burst knobs and simpler subjects read better in the repro.
void shrink_params(ChaosCase& c, Prober& pr) {
  for (std::size_t i = 0; i < c.rules.size() && pr.evals < kMaxEvals; ++i) {
    // Halve the trigger count toward 0 (step thresholds, send ordinals).
    while (c.rules[i].count > 1 && pr.evals < kMaxEvals) {
      ChaosCase candidate = c;
      candidate.rules[i].count /= 2;
      if (!try_keep(c, std::move(candidate), pr)) break;
    }
    {
      ChaosCase candidate = c;
      candidate.rules[i].who = Pid::none();
      (void)try_keep(c, std::move(candidate), pr);
    }
    if (c.rules[i].action == Action::kLinkBurst) {
      ChaosCase candidate = c;
      candidate.rules[i].dup_prob = 0.0;
      candidate.rules[i].extra_delay = 0;
      (void)try_keep(c, std::move(candidate), pr);
    }
    if (c.rules[i].action == Action::kGoByzantine) {
      // Drop behavior flags one at a time — the surviving set names the
      // misbehavior the violation actually needs.
      for (int bit = 0; bit < 8 && pr.evals < kMaxEvals; ++bit) {
        const std::uint32_t flag = std::uint32_t{1} << bit;
        if ((c.rules[i].byz_behaviors & flag) == 0) continue;
        ChaosCase candidate = c;
        candidate.rules[i].byz_behaviors &= ~flag;
        (void)try_keep(c, std::move(candidate), pr);
      }
    }
  }
  // Fewer baseline crashes make the schedule carry the whole repro. (For
  // Byzantine-register cases f is the configured tolerance: lowering it only
  // tightens the legal envelope, so a smaller still-failing f is fair game.)
  while (c.f > 0 && pr.evals < kMaxEvals) {
    ChaosCase candidate = c;
    candidate.f /= 2;
    if (!try_keep(c, std::move(candidate), pr)) break;
  }
  // Fewer writes shorten a Byzantine-register repro's history.
  while (c.kind == CaseKind::kByzRegister && c.byz_writes > 1 && pr.evals < kMaxEvals) {
    ChaosCase candidate = c;
    candidate.byz_writes /= 2;
    if (!try_keep(c, std::move(candidate), pr)) break;
  }
}

/// Binary-search the smallest budget that still reproduces: fewer scheduler
/// steps = a shorter choice prefix in the replayed trajectory.
void shrink_budget(ChaosCase& c, Prober& pr) {
  Step lo = 1;
  Step hi = c.budget;
  while (lo < hi && pr.evals < kMaxEvals) {
    const Step mid = lo + (hi - lo) / 2;
    ChaosCase candidate = c;
    candidate.budget = mid;
    if (pr.still_fails(candidate)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (hi < c.budget) {
    ChaosCase candidate = c;
    candidate.budget = hi;
    // hi was either probed failing or equals the original; re-verify cheaply.
    if (pr.still_fails(candidate)) c.budget = hi;
  }
}

}  // namespace

ShrinkResult shrink_case(const ChaosCase& failing) {
  const ChaosOutcome first = run_chaos_case(failing);
  MM_ASSERT_MSG(first.violation.has_value(), "shrink_case needs a failing case");

  Prober pr{first.violation->oracle, 1, *first.violation};

  ShrinkResult res;
  res.rules_before = failing.rules.size();
  res.budget_before = failing.budget;

  ChaosCase c = failing;
  // 1. Arm only the violated oracle — the repro should state one claim.
  if (c.oracles.size() > 1) {
    ChaosCase candidate = c;
    candidate.oracles = {pr.want};
    (void)try_keep(c, std::move(candidate), pr);
  }
  // 2. Minimize the schedule.
  ddmin_rules(c, pr);
  // 3. Minimize the surviving rules.
  shrink_params(c, pr);
  // 4. Minimize the choice prefix — meaningless for liveness violations: a
  //    shorter budget reproduces "never decided" or "never stabilized"
  //    trivially, down to a vacuous 1-step repro.
  if (pr.want != Oracle::kTermination && pr.want != Oracle::kOmegaStabilizes)
    shrink_budget(c, pr);

  res.minimized = std::move(c);
  res.violation = pr.last;
  res.evals = pr.evals;
  res.rules_after = res.minimized.rules.size();
  res.budget_after = res.minimized.budget;
  return res;
}

}  // namespace mm::fault
