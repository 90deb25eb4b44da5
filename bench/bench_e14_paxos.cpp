// E14 (extension) — Ω-driven Paxos vs randomized HBO.
//
// Two ways to circumvent FLP in the m&m model: randomization (HBO) or the
// Ω failure detector that §5 implements with a single timely process. The
// table contrasts them on the axes the theory predicts:
//   * determinism: Paxos decides in a bounded number of ballots once Ω
//     stabilizes; HBO's round count is a random variable (long tail near
//     its threshold).
//   * fault tolerance: Paxos needs a correct majority no matter the GSM;
//     HBO on a complete GSM pushes to n−1.
#include <memory>

#include "bench_common.hpp"
#include "core/omega_paxos.hpp"
#include "core/trial.hpp"
#include "exec/parallel_map.hpp"
#include "runtime/sim_runtime.hpp"

namespace {

struct PaxosOutcome {
  bool decided = false;
  double steps = 0.0;
};

PaxosOutcome run_paxos(std::size_t n, std::size_t f, std::uint64_t seed, mm::Step budget) {
  using namespace mm;
  runtime::SimConfig sim;
  sim.gsm = graph::complete(n);
  sim.seed = seed;
  sim.timely = Pid{static_cast<std::uint32_t>(n - 1)};  // survivor is timely
  sim.crash_at.assign(n, std::nullopt);
  for (std::size_t p = 0; p < f; ++p) sim.crash_at[p] = 0;
  runtime::SimRuntime rt{std::move(sim)};
  std::vector<std::unique_ptr<core::OmegaPaxos>> algs;
  for (std::size_t p = 0; p < n; ++p) {
    algs.push_back(std::make_unique<core::OmegaPaxos>(static_cast<std::uint32_t>(p % 2)));
    rt.add_process([alg = algs.back().get()](runtime::Env& env) { alg->run(env); });
  }
  rt.run_until_all_done(budget);
  PaxosOutcome out;
  out.decided = true;
  for (std::size_t p = f; p < n; ++p) out.decided = out.decided && algs[p]->decision() >= 0;
  out.steps = static_cast<double>(rt.now());
  rt.shutdown();
  rt.rethrow_process_error();
  return out;
}

}  // namespace

int main() {
  using namespace mm;
  bench::banner("E14 (extension): Ω-Paxos vs randomized HBO (complete GSM, n=6)",
                "Crashes at step 0; 6 seeds per cell. Expected shape: both decide below\n"
                "majority; above it Paxos blocks while HBO keeps deciding; Paxos decision\n"
                "time is tight (deterministic once Ω settles), HBO's is a distribution.");

  constexpr std::size_t kN = 6;
  Table table{{"algorithm", "f", "termination", "mean steps", "min steps", "max steps", "ms"}};

  for (const std::size_t f : {0u, 2u, 4u, 5u}) {
    // Ω-Paxos.
    {
      bench::WallTimer timer;
      RunningStats steps;
      int decided = 0;
      const bool expect_block = f >= kN / 2 + (kN % 2);  // f ≥ ⌈n/2⌉ kills quorum
      const Step budget = expect_block ? 200'000 : 4'000'000;
      const auto outs = exec::parallel_map(6, [&](std::uint64_t t) {
        return run_paxos(kN, f, (t + 1) * 37, budget);
      });
      for (const auto& out : outs) {
        if (out.decided) {
          ++decided;
          steps.add(out.steps);
        }
      }
      table.row()
          .cell("omega-paxos")
          .cell(f)
          .cell(static_cast<double>(decided) / 6.0, 2)
          .cell(steps.mean(), 0)
          .cell(steps.min(), 0)
          .cell(steps.max(), 0)
          .cell(timer.ms(), 0);
    }
    // HBO.
    {
      bench::WallTimer timer;
      core::ConsensusTrialConfig cfg;
      cfg.gsm = graph::complete(kN);
      cfg.algo = core::Algo::kHbo;
      cfg.f = f;
      cfg.crash_pick = core::CrashPick::kWorstCase;
      cfg.crash_window = 0;
      cfg.budget = 4'000'000;
      RunningStats steps;
      int decided = 0;
      const auto results = exec::parallel_map(6, [&cfg](std::uint64_t t) {
        core::ConsensusTrialConfig c = cfg;
        c.seed = 556 + t;
        return core::run_consensus_trial(c);
      });
      for (const auto& res : results) {
        if (!res.agreement || !res.validity) return 1;
        if (res.all_correct_decided) {
          ++decided;
          steps.add(static_cast<double>(res.steps_used));
        }
      }
      table.row()
          .cell("hbo")
          .cell(f)
          .cell(static_cast<double>(decided) / 6.0, 2)
          .cell(steps.mean(), 0)
          .cell(steps.min(), 0)
          .cell(steps.max(), 0)
          .cell(timer.ms(), 0);
    }
  }
  table.print();
  std::printf("\nΩ-Paxos buys determinism and no coins, at the price of the majority bound;\n"
              "HBO pays randomized rounds and buys tolerance up to n-1 on this GSM.\n");
  return 0;
}
