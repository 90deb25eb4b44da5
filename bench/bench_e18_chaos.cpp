// E18 — chaos campaign: reactive fault schedules + shrink-and-replay.
//
// Not a paper figure: the robustness artifact for the fault subsystem.
// Two campaigns over randomized reactive fault schedules (src/fault/):
//
//   1. Safety: agreement + validity armed under crashes, transient memory
//      windows, partitions, and link bursts. Expected: 0 violations —
//      Theorem 4.3 bounds *liveness*, never safety, so any finding here is
//      a real bug in the algorithms or the runtime.
//
//   2. Planted liveness bug: the same generator with the termination oracle
//      armed — a deliberately false invariant (schedules may crash more
//      than the tolerance threshold or partition the network forever).
//      Findings are expected; each is ddmin-shrunk and replayed from its
//      JSON repro to demonstrate the find -> shrink -> replay loop end to
//      end.
//
// Campaigns are pure functions of the base seed and fan out over MM_JOBS.
#include "bench_common.hpp"
#include "common/parse.hpp"
#include "fault/campaign.hpp"

int main(int argc, char** argv) {
  using namespace mm;
  using namespace mm::fault;
  const std::uint64_t base_seed =
      positional_decimal(argc, argv, 1, "seed", std::uint64_t{20180723});
  const std::uint64_t trials =
      positional_decimal(argc, argv, 2, "trials", std::uint64_t{400}, std::uint64_t{1});

  bench::banner("E18: chaos campaign with shrink-and-replay",
                "Randomized reactive fault schedules; safety armed (expect 0), then a\n"
                "planted false termination invariant (expect findings, shrunk + replayed).");

  Table table{{"campaign", "runs", "decided/stable", "violations", "findings", "ms"}};

  // -- Campaign 1: safety only -------------------------------------------
  std::uint64_t safety_violations = 0;
  {
    bench::WallTimer timer;
    CampaignConfig cfg;
    cfg.seed = base_seed;
    cfg.trials = trials;
    cfg.assert_termination = false;
    cfg.shrink_findings = true;
    const CampaignResult res = run_campaign(cfg);
    safety_violations = res.violations;
    table.row()
        .cell("safety")
        .cell(res.runs)
        .cell(res.decided)
        .cell(res.violations)
        .cell(static_cast<std::uint64_t>(res.findings.size()))
        .cell(timer.ms());
    for (const Finding& f : res.findings) {
      std::printf("SAFETY VIOLATION (real bug): %s — %s\n",
                  to_string(f.violation.oracle), f.violation.detail.c_str());
      const ChaosCase& c = f.shrunk ? f.shrunk->minimized : f.original;
      std::printf("%s", repro_to_string(c, &f.violation).c_str());
    }
  }

  // -- Campaign 2: planted termination bug --------------------------------
  {
    bench::WallTimer timer;
    CampaignConfig cfg;
    cfg.seed = base_seed + 1;
    cfg.trials = trials / 4;
    cfg.assert_termination = true;
    cfg.include_omega = false;
    cfg.shrink_findings = true;
    cfg.max_findings = 2;
    const CampaignResult res = run_campaign(cfg);
    table.row()
        .cell("planted-termination")
        .cell(res.runs)
        .cell(res.decided)
        .cell(res.violations)
        .cell(static_cast<std::uint64_t>(res.findings.size()))
        .cell(timer.ms());

    for (const Finding& f : res.findings) {
      if (!f.shrunk) continue;
      std::printf("\nplanted finding: %s; shrunk %zu -> %zu rule(s), budget %llu -> %llu "
                  "(%zu evals)\n",
                  to_string(f.violation.oracle), f.shrunk->rules_before,
                  f.shrunk->rules_after,
                  static_cast<unsigned long long>(f.shrunk->budget_before),
                  static_cast<unsigned long long>(f.shrunk->budget_after), f.shrunk->evals);
      // Round-trip the repro through JSON and replay it: the minimized case
      // must deterministically reproduce the same oracle violation.
      const std::string doc = repro_to_string(f.shrunk->minimized, &f.shrunk->violation);
      std::optional<Violation> recorded;
      const ChaosCase replayed = repro_from_string(doc, &recorded);
      const ChaosOutcome out = run_chaos_case(replayed);
      const bool reproduced =
          out.violation && recorded && out.violation->oracle == recorded->oracle;
      std::printf("replay from JSON: %s\n", reproduced ? "reproduced" : "FAILED");
      if (!reproduced) return 1;
    }
  }

  std::printf("\n");
  table.print();
  return safety_violations == 0 ? 0 : 1;
}
