// E17 — randomized safety-certification campaign.
//
// Not a paper figure: an assurance artifact. Thousands of fully randomized
// adversarial configurations — topology family, size, crash count/type/
// timing, consensus-object implementation, delays, algorithm — each run to
// completion with Uniform Agreement and Validity checked. The printed table
// is the certification: zero violations across the campaign. (Every row is
// reproducible: the campaign is a pure function of the base seed.)
#include "bench_common.hpp"
#include "common/parse.hpp"
#include "core/trial.hpp"
#include "exec/parallel_map.hpp"

int main(int argc, char** argv) {
  using namespace mm;
  const std::uint64_t base_seed =
      positional_decimal(argc, argv, 1, "seed", std::uint64_t{20180723});
  const std::uint64_t trials_per_cell =
      positional_decimal(argc, argv, 2, "trials", std::uint64_t{120}, std::uint64_t{1});

  bench::banner("E17: randomized safety campaign",
                "Uniform Agreement + Validity checked on every run; liveness is whatever\n"
                "the random crash count allows (not asserted). Expected: 0 violations.");

  Rng rng{base_seed};
  Table table{{"algorithm", "runs", "decided runs", "safety violations", "ms"}};
  std::uint64_t total_violations = 0;

  for (const auto algo : {core::Algo::kBenOr, core::Algo::kHbo}) {
    bench::WallTimer timer;
    std::uint64_t decided = 0;
    std::uint64_t violations = 0;
    // Configurations are drawn from the campaign rng sequentially (the rng
    // stream is part of the certification's reproducibility contract); the
    // trials themselves then fan out across the worker pool.
    std::vector<core::ConsensusTrialConfig> cell;
    cell.reserve(trials_per_cell);
    for (std::uint64_t t = 0; t < trials_per_cell; ++t) {
      core::ConsensusTrialConfig cfg;
      const std::size_t n = 4 + rng.below(9);  // 4..12
      switch (rng.below(5)) {
        case 0: cfg.gsm = graph::edgeless(n); break;
        case 1: cfg.gsm = graph::ring(std::max<std::size_t>(n, 3)); break;
        case 2: cfg.gsm = graph::complete(n); break;
        case 3: {
          const std::size_t d = 3;
          if ((n * d) % 2 == 0) {
            Rng gr{rng()};
            cfg.gsm = graph::random_regular_must(n, d, gr);
          } else {
            cfg.gsm = graph::ring(std::max<std::size_t>(n, 3));
          }
          break;
        }
        default: cfg.gsm = graph::star(n); break;
      }
      cfg.algo = algo;
      cfg.impl = rng.coin() ? shm::ConsensusImpl::kCas : shm::ConsensusImpl::kRw;
      cfg.f = rng.below(cfg.gsm.size());
      cfg.crash_pick = rng.coin() ? core::CrashPick::kRandom : core::CrashPick::kWorstCase;
      cfg.crash_window = rng.below(4'000);
      cfg.min_delay = 1;
      cfg.max_delay = 1 + rng.below(64);
      cfg.budget = 200'000;  // liveness not asserted
      cfg.max_rounds = 4'000;
      cfg.seed = rng();
      cell.push_back(std::move(cfg));
    }
    const auto results = exec::parallel_map(
        cell.size(), [&cell](std::uint64_t t) { return core::run_consensus_trial(cell[t]); });
    for (const auto& res : results) {
      if (!res.agreement || !res.validity) ++violations;
      if (res.all_correct_decided) ++decided;
    }
    total_violations += violations;
    table.row()
        .cell(core::to_string(algo))
        .cell(trials_per_cell)
        .cell(decided)
        .cell(violations)
        .cell(timer.ms(), 0);
  }
  table.print();
  if (total_violations > 0) {
    std::printf("\n!! SAFETY VIOLATIONS FOUND — replay with base seed %llu\n",
                static_cast<unsigned long long>(base_seed));
    return 1;
  }
  std::printf("\nno safety violation in the campaign (base seed %llu).\n",
              static_cast<unsigned long long>(base_seed));
  return 0;
}
