// E19 — model checking: naive DFS enumeration vs sleep-set DPOR + state
// caching over the canonical instance corpus (src/check/instances.cpp).
//
// Not a paper figure: the soundness-and-scale artifact for the model
// checker. Two tables:
//
//   1. Clean instances: schedules the naive DFS enumerates vs replays DPOR
//      needs for the SAME proof (identical verdict, identical reachable
//      final-state set — asserted, not assumed). The reduction factor is
//      the headline: partial-order reduction is what turns "HBO n=3 with a
//      crash" from a 68k-run enumeration into a few hundred replays, and
//      spin-heavy instances from infeasible to exact. Every clean instance
//      must additionally exhaust ("full") — including the fault-bearing
//      ones, where the explorer schedules crash events, head-of-queue
//      drops and partition toggles as pseudo-processes and the claim is
//      "clean on EVERY fault placement", not a sampled subset
//      (hbo3-anycrash: any-of-three crash at any step; abd4-drop/-drop2:
//      one and two adversarial drops; pingpart2/omega2-part: a transient
//      partition window opening and closing anywhere).
//
//   2. Planted-bug instances: replays until the known violation surfaces,
//      per engine. Small numbers here are the trip-wire that the reduction
//      does not skip the schedules that matter — crashwin3 (crash inside a
//      correction window) and dropval2 (drop masking a value) extend the
//      trip-wire to the fault dependency classes.
//
// Deterministic: rerunning reproduces every count bit-for-bit.
#include "bench_common.hpp"
#include "check/instances.hpp"

int main() {
  using namespace mm;
  using namespace mm::check;

  bench::banner("E19: exhaustive exploration — naive DFS vs DPOR",
                "Same verdict and reachable final-state set, orders of magnitude fewer\n"
                "replays; planted bugs surface within single-digit replay budgets.");

  bool ok = true;

  Table clean{{"instance", "dfs runs", "dpor runs", "cache-pruned", "sleep-pruned",
               "reduction", "final states", "exhaustiveness", "ms(dfs)", "ms(dpor)"}};
  Table planted{{"instance", "engine", "violation run", "message"}};

  for (const Instance& inst : instances()) {
    if (inst.expect_violation) {
      for (const bool dfs : {true, false}) {
        if (dfs && !inst.dfs_feasible) continue;
        const InstanceVerdict v =
            dfs ? check_instance_dfs(inst) : check_instance_dpor(inst);
        if (!v.violation.has_value()) ok = false;
        planted.row()
            .cell(inst.name)
            .cell(dfs ? "dfs" : "dpor")
            .cell(v.violation ? std::to_string(v.violation_run) : "NOT FOUND")
            .cell(v.violation ? *v.violation : "-");
      }
      continue;
    }

    bench::WallTimer dpor_timer;
    const InstanceVerdict dpor = check_instance_dpor(inst, inst.dpor);
    const double dpor_ms = dpor_timer.ms();
    if (dpor.violation.has_value()) ok = false;
    // Clean instances prove a universally quantified claim; a truncated
    // exploration proves nothing. Fault-bearing instances included: "clean
    // on every fault placement" requires the whole tree to drain.
    if (dpor.result.exhaustiveness != Exhaustiveness::kFull) ok = false;

    std::string dfs_runs = "-", reduction = "-", dfs_ms = "-";
    if (inst.dfs_feasible) {
      bench::WallTimer dfs_timer;
      const InstanceVerdict dfs = check_instance_dfs(inst);
      dfs_ms = std::to_string(static_cast<std::uint64_t>(dfs_timer.ms()));
      dfs_runs = std::to_string(dfs.result.runs);
      // The differential claim the reduction factor rests on.
      if (dfs.violation.has_value() != dpor.violation.has_value() ||
          dfs.result.final_states != dpor.result.final_states ||
          dpor.result.runs > dfs.result.runs)
        ok = false;
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.1fx",
                    static_cast<double>(dfs.result.runs) /
                        static_cast<double>(dpor.result.runs));
      reduction = buf;
    }

    clean.row()
        .cell(inst.name)
        .cell(dfs_runs)
        .cell(dpor.result.runs)
        .cell(dpor.result.runs_pruned_by_state_cache)
        .cell(dpor.result.runs_pruned_by_sleep_set)
        .cell(reduction)
        .cell(static_cast<std::uint64_t>(dpor.result.final_states.size()))
        .cell(to_string(dpor.result.exhaustiveness))
        .cell(dfs_ms)
        .cell(static_cast<std::uint64_t>(dpor_ms));
  }

  std::printf("clean instances (dfs '-' = infeasible without DPOR's cycle prune):\n");
  clean.print();
  std::printf("\nplanted bugs (replays until the violation surfaces):\n");
  planted.print();
  std::printf("\n%s\n", ok ? "OK: all differentials identical, all planted bugs found"
                           : "FAIL: differential mismatch or missed planted bug");
  return ok ? 0 : 1;
}
