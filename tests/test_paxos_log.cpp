// Tests for the Multi-Paxos replicated log: agreement on log prefixes,
// command completeness, leader crash recovery (inherited-slot re-proposal),
// and the quorum bound that E13 contrasts against the m&m log.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "core/paxos_log.hpp"
#include "core/rsm.hpp"
#include "graph/generators.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::core {
namespace {

using runtime::Env;
using runtime::SimConfig;
using runtime::SimRuntime;

struct LogRun {
  std::vector<std::vector<std::uint64_t>> logs;
  std::vector<bool> crashed;
  bool all_committed = false;
};

/// Commands of process p are p*100 + 1 .. p*100 + k (nonzero, unique).
std::vector<std::uint64_t> commands_of(std::size_t p, std::size_t k) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 1; i <= k; ++i) out.push_back(p * 100 + i);
  return out;
}

LogRun run_log(std::size_t n, std::size_t cmds_each, std::uint64_t seed,
               const std::vector<std::optional<Step>>& crash_at = {},
               Pid timely = Pid{0}, Step budget = 8'000'000) {
  SimConfig sim;
  sim.gsm = graph::complete(n);
  sim.seed = seed;
  sim.timely = timely;
  sim.crash_at = crash_at;
  SimRuntime rt{std::move(sim)};

  std::vector<std::unique_ptr<PaxosLog>> replicas;
  for (std::size_t p = 0; p < n; ++p) {
    replicas.push_back(std::make_unique<PaxosLog>(commands_of(p, cmds_each)));
    rt.add_process([r = replicas.back().get()](Env& env) { r->run(env); });
  }

  // Run until every non-crashed replica committed all its commands.
  bool done = false;
  while (!done && rt.now() < budget) {
    rt.run_steps(4'000);
    rt.rethrow_process_error();
    done = true;
    for (std::size_t p = 0; p < n; ++p) {
      if (rt.crashed(Pid{static_cast<std::uint32_t>(p)})) continue;
      done = done && replicas[p]->all_mine_committed();
    }
  }
  // Let COMMITs propagate so logs converge, then stop.
  if (done) rt.run_steps(30'000);
  rt.request_stop();
  rt.run_until_all_done(rt.now() + 4'000'000);
  rt.shutdown();
  rt.rethrow_process_error();

  LogRun res;
  res.all_committed = done;
  for (std::size_t p = 0; p < n; ++p) {
    res.logs.push_back(replicas[p]->applied_log());
    res.crashed.push_back(rt.crashed(Pid{static_cast<std::uint32_t>(p)}));
  }
  return res;
}

void check_prefix_agreement(const LogRun& res) {
  // All applied logs must be prefixes of the longest one.
  const std::vector<std::uint64_t>* longest = &res.logs[0];
  for (const auto& log : res.logs)
    if (log.size() > longest->size()) longest = &log;
  for (std::size_t p = 0; p < res.logs.size(); ++p) {
    for (std::size_t s = 0; s < res.logs[p].size(); ++s)
      ASSERT_EQ(res.logs[p][s], (*longest)[s]) << "replica " << p << " slot " << s;
  }
}

TEST(PaxosLog, CrashFreeCommitsEverything) {
  const auto res = run_log(4, 3, 3);
  ASSERT_TRUE(res.all_committed);
  check_prefix_agreement(res);
  // Every command appears in the longest log.
  std::set<std::uint64_t> all(res.logs[0].begin(), res.logs[0].end());
  for (std::size_t p = 0; p < 4; ++p)
    for (const std::uint64_t cmd : commands_of(p, 3)) EXPECT_TRUE(all.count(cmd)) << cmd;
  // Under one stable leadership no command may be committed twice (the
  // leader must skip pending commands that are already chosen).
  std::set<std::uint64_t> seen;
  for (const std::uint64_t cmd : res.logs[0]) {
    if (cmd == kNoopCommand) continue;
    EXPECT_TRUE(seen.insert(cmd).second) << "duplicate commit of " << cmd;
  }
}

TEST(PaxosLog, MinorityCrashesStillCommit) {
  std::vector<std::optional<Step>> crash(5);
  crash[3] = 10'000;
  crash[4] = 0;
  const auto res = run_log(5, 3, 5, crash, /*timely=*/Pid{0});
  ASSERT_TRUE(res.all_committed);
  check_prefix_agreement(res);
}

TEST(PaxosLog, LeaderCrashRecoversInheritedSlots) {
  // The initial leader (p0, minimal pid) crashes mid-stream; a new leader
  // must re-propose inherited slots and the log must stay consistent and
  // complete for the survivors' commands.
  std::vector<std::optional<Step>> crash(5);
  crash[0] = 60'000;
  const auto res = run_log(5, 3, 7, crash, /*timely=*/Pid{1}, 12'000'000);
  check_prefix_agreement(res);
  ASSERT_TRUE(res.all_committed);
  std::set<std::uint64_t> all;
  for (const auto& log : res.logs) all.insert(log.begin(), log.end());
  for (std::size_t p = 1; p < 5; ++p)
    for (const std::uint64_t cmd : commands_of(p, 3))
      EXPECT_TRUE(all.count(cmd)) << "lost command " << cmd;
}

TEST(PaxosLog, WedgesWithoutMajorityButStaysSafe) {
  // 3 of 5 crashed at step 0: E13's contrast — the MP log cannot commit.
  std::vector<std::optional<Step>> crash(5);
  crash[2] = crash[3] = crash[4] = Step{0};
  const auto res = run_log(5, 2, 9, crash, Pid{0}, /*budget=*/400'000);
  EXPECT_FALSE(res.all_committed);
  check_prefix_agreement(res);
  EXPECT_TRUE(res.logs[0].empty());
}

class PaxosLogSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PaxosLogSeedSweep, RandomCrashTimingPrefixAgreement) {
  Rng rng{GetParam() * 2654435761ULL};
  std::vector<std::optional<Step>> crash(5);
  // Crash up to two of p2..p4 at random times; p0/p1 stay (p0 timely).
  crash[2 + rng.below(3)] = rng.between(0, 80'000);
  crash[2 + rng.below(3)] = rng.between(0, 80'000);
  const auto res = run_log(5, 2, GetParam(), crash, Pid{0}, 12'000'000);
  check_prefix_agreement(res);
  EXPECT_TRUE(res.all_committed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaxosLogSeedSweep, ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace mm::core
