// Tests for Ω-driven single-decree Paxos: deterministic consensus whose only
// synchrony need is the m&m leader election's one timely process.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/omega_paxos.hpp"
#include "graph/generators.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::core {
namespace {

using runtime::Env;
using runtime::SimConfig;
using runtime::SimRuntime;

struct PaxosRun {
  std::vector<int> decisions;
  std::vector<bool> crashed;
  bool all_correct_decided = true;
};

PaxosRun run_paxos(std::size_t n, const std::vector<std::uint32_t>& inputs,
                   std::uint64_t seed, const std::vector<std::optional<Step>>& crash_at = {},
                   Step max_delay = 8, Step budget = 4'000'000) {
  SimConfig sim;
  sim.gsm = graph::complete(n);  // Ω needs the §5 complete GSM
  sim.seed = seed;
  sim.crash_at = crash_at;
  sim.max_delay = max_delay;
  sim.timely = Pid{0};
  SimRuntime rt{std::move(sim)};

  std::vector<std::unique_ptr<OmegaPaxos>> algs;
  for (std::size_t p = 0; p < n; ++p) {
    algs.push_back(std::make_unique<OmegaPaxos>(inputs[p]));
    rt.add_process([alg = algs.back().get()](Env& env) { alg->run(env); });
  }
  rt.run_until_all_done(budget);
  rt.shutdown();
  rt.rethrow_process_error();

  PaxosRun res;
  for (std::size_t p = 0; p < n; ++p) {
    res.decisions.push_back(algs[p]->decision());
    const bool crashed = rt.crashed(Pid{static_cast<std::uint32_t>(p)});
    res.crashed.push_back(crashed);
    if (!crashed && algs[p]->decision() < 0) res.all_correct_decided = false;
  }
  return res;
}

void check_safety(const PaxosRun& res, const std::vector<std::uint32_t>& inputs) {
  int agreed = -1;
  const std::set<std::uint32_t> input_set{inputs.begin(), inputs.end()};
  for (const int d : res.decisions) {
    if (d < 0) continue;
    if (agreed < 0) agreed = d;
    EXPECT_EQ(d, agreed);
    EXPECT_TRUE(input_set.count(static_cast<std::uint32_t>(d)));
  }
}

TEST(OmegaPaxos, CrashFreeDecides) {
  const std::vector<std::uint32_t> inputs{0, 1, 0, 1, 1};
  const auto res = run_paxos(5, inputs, 3);
  check_safety(res, inputs);
  EXPECT_TRUE(res.all_correct_decided);
}

TEST(OmegaPaxos, UnanimousDecidesThatValue) {
  for (std::uint32_t v : {0u, 1u}) {
    const std::vector<std::uint32_t> inputs(4, v);
    const auto res = run_paxos(4, inputs, 5 + v);
    check_safety(res, inputs);
    EXPECT_TRUE(res.all_correct_decided);
    EXPECT_EQ(res.decisions[0], static_cast<int>(v));
  }
}

class PaxosSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PaxosSeedSweep, MinorityCrashesStayLiveAndSafe) {
  Rng rng{GetParam() * 7919};
  const std::size_t n = 5;
  std::vector<std::uint32_t> inputs;
  for (std::size_t p = 0; p < n; ++p) inputs.push_back(rng.coin() ? 1 : 0);
  // Crash up to 2 of 5 (< n/2), never the timely process p0.
  std::vector<std::optional<Step>> crash(n);
  crash[1 + rng.below(n - 1)] = rng.between(0, 20'000);
  crash[1 + rng.below(n - 1)] = rng.between(0, 20'000);
  const auto res = run_paxos(n, inputs, GetParam(), crash);
  check_safety(res, inputs);
  EXPECT_TRUE(res.all_correct_decided);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaxosSeedSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(OmegaPaxos, SafeUnderHeavyAsynchrony) {
  // Very large message delays: liveness may need longer, safety must hold.
  const std::vector<std::uint32_t> inputs{1, 0, 1};
  const auto res = run_paxos(3, inputs, 11, {}, /*max_delay=*/600, /*budget=*/8'000'000);
  check_safety(res, inputs);
  EXPECT_TRUE(res.all_correct_decided);
}

TEST(OmegaPaxos, BlocksWithoutMajorityButStaysSafe) {
  // 3 of 5 crashed at step 0: no quorum, so no decision — and no disagreement.
  const std::vector<std::uint32_t> inputs{0, 1, 0, 1, 0};
  std::vector<std::optional<Step>> crash(5);
  crash[2] = crash[3] = crash[4] = Step{0};
  const auto res = run_paxos(5, inputs, 13, crash, 8, /*budget=*/150'000);
  check_safety(res, inputs);
  EXPECT_FALSE(res.all_correct_decided);
}

TEST(OmegaPaxos, LeaderCrashTriggersReelectionAndDecision) {
  // p0 would normally win Ω; crash it mid-run. The timely process must be a
  // survivor for liveness, so designate p1 timely via a custom run.
  SimConfig sim;
  sim.gsm = graph::complete(4);
  sim.seed = 17;
  sim.timely = Pid{1};
  sim.crash_at = {std::optional<Step>{15'000}, std::nullopt, std::nullopt, std::nullopt};
  SimRuntime rt{std::move(sim)};
  const std::vector<std::uint32_t> inputs{0, 1, 1, 0};
  std::vector<std::unique_ptr<OmegaPaxos>> algs;
  for (std::size_t p = 0; p < 4; ++p) {
    algs.push_back(std::make_unique<OmegaPaxos>(inputs[p]));
    rt.add_process([alg = algs.back().get()](Env& env) { alg->run(env); });
  }
  rt.run_until_all_done(6'000'000);
  rt.shutdown();
  rt.rethrow_process_error();
  int agreed = -1;
  for (std::size_t p = 1; p < 4; ++p) {
    const int d = algs[p]->decision();
    ASSERT_GE(d, 0) << "survivor " << p << " undecided";
    if (agreed < 0) agreed = d;
    EXPECT_EQ(d, agreed);
  }
}

TEST(OmegaPaxos, DeterministicNoCoinsNeeded) {
  // Same seed → identical outcome, and decisions come from ballots, not
  // random estimates: ballots_attempted stays small once Ω stabilizes.
  const std::vector<std::uint32_t> inputs{1, 0, 1, 0};
  const auto a = run_paxos(4, inputs, 23);
  const auto b = run_paxos(4, inputs, 23);
  EXPECT_EQ(a.decisions, b.decisions);
}

}  // namespace
}  // namespace mm::core
