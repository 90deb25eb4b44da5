#include "fault/campaign.hpp"

#include "exec/parallel_map.hpp"

namespace mm::fault {

CampaignResult run_campaign(const CampaignConfig& cfg) {
  // Case generation is sequential from one stream: the case list — and
  // therefore the whole campaign — is a pure function of cfg.seed.
  Rng gen{cfg.seed};
  std::vector<ChaosCase> cases;
  cases.reserve(cfg.trials);
  for (std::uint64_t i = 0; i < cfg.trials; ++i)
    cases.push_back(random_case(gen, cfg.include_omega, cfg.assert_termination,
                                cfg.include_byzantine));

  // Each case builds its own FaultEngine inside run_chaos_case, so the
  // fan-out shares nothing mutable.
  const std::vector<ChaosOutcome> outcomes = exec::parallel_map(
      cfg.trials, [&](std::uint64_t i) { return run_chaos_case(cases[i]); });

  CampaignResult res;
  res.runs = cfg.trials;
  for (std::uint64_t i = 0; i < cfg.trials; ++i) {
    const ChaosOutcome& out = outcomes[i];
    res.decided += out.decided ? 1 : 0;
    if (!out.violation) continue;
    ++res.violations;
    if (res.findings.size() >= cfg.max_findings) continue;
    Finding f;
    f.original = cases[i];
    f.violation = *out.violation;
    if (cfg.shrink_findings)
      f.shrunk = shrink_case(cases[i]);
    res.findings.push_back(std::move(f));
  }
  return res;
}

}  // namespace mm::fault
