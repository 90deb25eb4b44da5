// Delta-debugging shrinker for failing chaos cases.
//
// Given a case whose run violates an armed oracle, produce the smallest
// case we can find that still violates the *same* oracle:
//   1. drop every oracle except the violated one,
//   2. ddmin the fault-rule schedule (classic Zeller delta debugging),
//   3. shrink individual rule parameters (trigger counts, burst knobs),
//   4. shrink the step budget — the "choice prefix": a smaller budget means
//      the repro replays fewer scheduler decisions. Skipped for termination
//      violations, which any budget trivially "reproduces".
//
// Every probe is a full deterministic re-run of the candidate case, so the
// result is exact, not heuristic: the minimized case is guaranteed to still
// fail, and `repro_to_string(result.minimized, ...)` round-trips through
// `tools/chaos --replay` to the identical violation.
#pragma once

#include <cstddef>

#include "fault/chaos.hpp"

namespace mm::fault {

struct ShrinkResult {
  ChaosCase minimized;
  Violation violation;          ///< the violation the minimized case produces
  std::size_t evals = 0;        ///< trial runs spent shrinking
  std::size_t rules_before = 0;
  std::size_t rules_after = 0;
  Step budget_before = 0;
  Step budget_after = 0;
};

/// Shrink `failing`, whose run must currently produce a violation (asserted
/// by re-running it). At most 400 probe runs are spent.
[[nodiscard]] ShrinkResult shrink_case(const ChaosCase& failing);

}  // namespace mm::fault
