// Tests for the parallel trial engine: MM_JOBS resolution, index-ordered
// results, deterministic equivalence of parallel and sequential sweeps
// (consensus and Ω), exception propagation (first-seed-wins, no deadlock),
// and the sweep_termination seed contract (seed, seed+1, ...).
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/trial.hpp"
#include "exec/jobs.hpp"
#include "exec/parallel_map.hpp"
#include "graph/generators.hpp"

namespace mm {
namespace {

core::ConsensusTrialConfig small_consensus_config() {
  core::ConsensusTrialConfig cfg;
  cfg.gsm = graph::chordal_ring(8);
  cfg.algo = core::Algo::kHbo;
  cfg.f = 2;
  cfg.crash_pick = core::CrashPick::kRandom;
  cfg.budget = 500'000;
  cfg.seed = 1'234;
  return cfg;
}

void expect_identical(const core::TerminationSweep& a, const core::TerminationSweep& b) {
  EXPECT_EQ(a.termination_rate, b.termination_rate);
  EXPECT_EQ(a.mean_decided_round, b.mean_decided_round);
  EXPECT_EQ(a.mean_steps, b.mean_steps);
  EXPECT_EQ(a.safety_violations, b.safety_violations);
}

TEST(Jobs, OverrideBeatsEnvironment) {
  setenv("MM_JOBS", "3", 1);
  EXPECT_EQ(exec::default_jobs(), 3u);
  {
    exec::ScopedJobs scoped{7};
    EXPECT_EQ(exec::default_jobs(), 7u);
  }
  EXPECT_EQ(exec::default_jobs(), 3u);
  unsetenv("MM_JOBS");
  EXPECT_GE(exec::default_jobs(), 1u);
}

TEST(Jobs, EmptyAndZeroMeanHardwareConcurrency) {
  unsetenv("MM_JOBS");
  const std::size_t unset = exec::default_jobs();
  for (const char* value : {"", "0"}) {
    setenv("MM_JOBS", value, 1);
    EXPECT_EQ(exec::default_jobs(), unset) << "MM_JOBS=\"" << value << "\"";
  }
  unsetenv("MM_JOBS");
}

TEST(Jobs, MalformedEnvironmentThrowsNamingTheValue) {
  // Only resolution runs here: no pool is started with these values. Before,
  // "2k" and "abc" fell back to hardware concurrency and "-1" wrapped to
  // 2^64 - 1 workers.
  for (const char* value : {"2k", "-1", "abc", "99999999999999999999", " 4", "+4"}) {
    setenv("MM_JOBS", value, 1);
    try {
      (void)exec::default_jobs();
      ADD_FAILURE() << "MM_JOBS=\"" << value << "\" was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("MM_JOBS"), std::string::npos) << what;
      EXPECT_NE(what.find(value), std::string::npos) << what;
    }
  }
  // The override still wins over a malformed environment.
  setenv("MM_JOBS", "2k", 1);
  {
    exec::ScopedJobs scoped{2};
    EXPECT_EQ(exec::default_jobs(), 2u);
  }
  unsetenv("MM_JOBS");
}

TEST(ParallelMap, ResultsInIndexOrder) {
  const auto out = exec::parallel_map(100, [](std::uint64_t i) { return i * i; }, 4);
  ASSERT_EQ(out.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, EmptyAndSingle) {
  EXPECT_TRUE(exec::parallel_map(0, [](std::uint64_t i) { return i; }, 4).empty());
  const auto one = exec::parallel_map(1, [](std::uint64_t i) { return i + 41; }, 4);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 41u);
}

TEST(ParallelMap, FirstSeedWinsOnError) {
  // Indices 2 and 5 throw; the pool must drain (no deadlock) and surface the
  // *smallest* failing index regardless of completion order.
  const auto run = [](std::size_t jobs) -> int {
    try {
      (void)exec::parallel_map(
          8,
          [](std::uint64_t i) -> int {
            if (i == 2 || i == 5) throw std::runtime_error{std::to_string(i)};
            return static_cast<int>(i);
          },
          jobs);
    } catch (const std::runtime_error& e) {
      return std::atoi(e.what());
    }
    return -1;
  };
  EXPECT_EQ(run(1), 2);
  EXPECT_EQ(run(4), 2);
}

TEST(ParallelMap, ThrowingTrialSurfacesException) {
  // End-to-end: a trial that violates the model must throw out of the sweep
  // with any job count, not hang the pool or get swallowed.
  core::ConsensusTrialConfig cfg = small_consensus_config();
  cfg.gsm = graph::ring(6);
  cfg.f = 0;
  cfg.crash_pick = core::CrashPick::kNone;
  cfg.algo = core::Algo::kSmConsensus;  // single shared object on a ring: illegal
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    exec::ScopedJobs scoped{jobs};
    EXPECT_THROW((void)core::sweep_termination(cfg, 4), ModelViolation);
  }
}

TEST(TrialEngine, ConsensusSweepIdenticalAcrossJobCounts) {
  const core::ConsensusTrialConfig cfg = small_consensus_config();
  core::TerminationSweep seq;
  {
    exec::ScopedJobs scoped{1};
    seq = core::sweep_termination(cfg, 6);
  }
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{4}}) {
    exec::ScopedJobs scoped{jobs};
    expect_identical(core::sweep_termination(cfg, 6), seq);
  }
}

TEST(TrialEngine, OmegaTrialsIdenticalAcrossJobCounts) {
  core::OmegaTrialConfig cfg;
  cfg.n = 4;
  cfg.algo = core::OmegaAlgo::kMnmReliable;
  cfg.crash_leader_at = 10'000;
  cfg.budget = 400'000;
  const std::vector<std::uint64_t> seeds = {3, 14, 15, 92};
  std::vector<core::OmegaTrialResult> seq;
  {
    exec::ScopedJobs scoped{1};
    seq = core::run_omega_trials(cfg, seeds);
  }
  exec::ScopedJobs scoped{4};
  const auto par = core::run_omega_trials(cfg, seeds);
  ASSERT_EQ(par.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(par[i].stabilized, seq[i].stabilized);
    EXPECT_EQ(par[i].final_leader, seq[i].final_leader);
    EXPECT_EQ(par[i].stabilization_step, seq[i].stabilization_step);
    EXPECT_EQ(par[i].failover_step, seq[i].failover_step);
    EXPECT_EQ(par[i].steady_msgs_per_1k, seq[i].steady_msgs_per_1k);
    EXPECT_EQ(par[i].leader_writes_per_1k, seq[i].leader_writes_per_1k);
    EXPECT_EQ(par[i].leader_reads_per_1k, seq[i].leader_reads_per_1k);
    EXPECT_EQ(par[i].others_writes_per_1k, seq[i].others_writes_per_1k);
    EXPECT_EQ(par[i].others_reads_per_1k, seq[i].others_reads_per_1k);
  }
}

TEST(SweepTermination, FirstSeedUsedIsConfiguredSeed) {
  // Regression for the historical off-by-one: the sweep's first trial must
  // run exactly cfg.seed, not cfg.seed + 1 (the header's "(seed, seed+1,
  // ...)" contract).
  core::ConsensusTrialConfig cfg = small_consensus_config();
  cfg.f = 0;
  cfg.crash_pick = core::CrashPick::kNone;
  const auto direct = core::run_consensus_trial(cfg);
  ASSERT_TRUE(direct.all_correct_decided);

  core::ConsensusTrialConfig shifted = cfg;
  shifted.seed = cfg.seed + 1;
  const auto next = core::run_consensus_trial(shifted);
  // Precondition: the two seeds are distinguishable through the sweep stats,
  // otherwise this test couldn't detect the off-by-one.
  ASSERT_NE(direct.steps_used, next.steps_used);

  const auto sweep = core::sweep_termination(cfg, 1);
  EXPECT_EQ(sweep.termination_rate, 1.0);
  EXPECT_EQ(sweep.mean_steps, static_cast<double>(direct.steps_used));
  EXPECT_EQ(sweep.mean_decided_round, static_cast<double>(direct.max_decided_round));
}

}  // namespace
}  // namespace mm
