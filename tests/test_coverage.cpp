// Coverage-focused tests for paths the main suites exercise only
// incidentally: Env helpers, metrics deltas, runtime corner cases,
// and the paper algorithms under the REAL-thread runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/hbo.hpp"
#include "core/omega.hpp"
#include "core/tags.hpp"
#include "graph/generators.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/thread_runtime.hpp"
#include "shm/consensus_object.hpp"

namespace mm {
namespace {

using runtime::Env;
using runtime::RegKey;
using runtime::SimConfig;
using runtime::SimRuntime;

// ---------------------------------------------------------------------------
// Env helpers
// ---------------------------------------------------------------------------

TEST(EnvHelpers, WaitUntilReturnsTrueWhenPredicateHolds) {
  SimConfig cfg;
  cfg.gsm = graph::complete(2);
  cfg.seed = 1;
  SimRuntime rt{cfg};
  bool waited = false;
  rt.add_process([&](Env& env) {
    waited = runtime::wait_until(env, [&env] { return env.now() >= 50; });
  });
  rt.add_process([](Env& env) {
    for (int i = 0; i < 100; ++i) env.step();
  });
  rt.run_until_all_done(10'000);
  EXPECT_TRUE(waited);
}

TEST(EnvHelpers, WaitUntilReturnsFalseOnStop) {
  SimConfig cfg;
  cfg.gsm = graph::complete(1);
  cfg.seed = 2;
  SimRuntime rt{cfg};
  bool result = true;
  rt.add_process([&](Env& env) {
    result = runtime::wait_until(env, [] { return false; });
  });
  rt.run_steps(100);
  rt.request_stop();
  rt.run_until_all_done(10'000);
  EXPECT_FALSE(result);
}

TEST(EnvHelpers, ReadWriteKeyRoundTrip) {
  SimConfig cfg;
  cfg.gsm = graph::complete(1);
  cfg.seed = 3;
  SimRuntime rt{cfg};
  rt.add_process([](Env& env) {
    const auto key = RegKey::make(core::kTagState, Pid{0}, 9, 4);
    runtime::write_key(env, key, 1234);
    EXPECT_EQ(runtime::read_key(env, key), 1234u);
  });
  rt.run_until_all_done(1'000);
  rt.rethrow_process_error();
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, DeltaSinceSubtractsEveryField) {
  runtime::Metrics a{2}, b{2};
  b.msgs_sent = 10;
  b.reg_reads = 5;
  b.reg_writes = 4;
  b.steps_by_proc[1] = 7;
  b.remote_reads_by_proc[0] = 2;
  a.msgs_sent = 4;
  a.reg_reads = 1;
  const auto d = b.delta_since(a);
  EXPECT_EQ(d.msgs_sent, 6u);
  EXPECT_EQ(d.reg_reads, 4u);
  EXPECT_EQ(d.reg_writes, 4u);
  EXPECT_EQ(d.steps_by_proc[1], 7u);
  EXPECT_EQ(d.remote_reads_by_proc[0], 2u);
}

// ---------------------------------------------------------------------------
// Runtime corner cases
// ---------------------------------------------------------------------------

TEST(SimCorner, ImmediateReturnBody) {
  SimConfig cfg;
  cfg.gsm = graph::complete(2);
  cfg.seed = 5;
  SimRuntime rt{cfg};
  rt.add_process([](Env&) {});  // returns without a single step
  rt.add_process([](Env&) {});
  EXPECT_TRUE(rt.run_until_all_done(100));
}

TEST(SimCorner, CrashAtStepZeroBeforeFirstActivation) {
  SimConfig cfg;
  cfg.gsm = graph::complete(2);
  cfg.seed = 6;
  cfg.crash_at = {std::optional<Step>{0}, std::nullopt};
  SimRuntime rt{cfg};
  bool p0_ran = false;
  rt.add_process([&p0_ran](Env&) { p0_ran = true; });
  rt.add_process([](Env& env) { env.step(); });
  rt.run_until_all_done(1'000);
  EXPECT_FALSE(p0_ran);
  EXPECT_TRUE(rt.crashed(Pid{0}));
}

TEST(SimCorner, RegLookupIsStable) {
  SimConfig cfg;
  cfg.gsm = graph::complete(2);
  cfg.seed = 7;
  SimRuntime rt{cfg};
  rt.add_process([](Env& env) {
    const auto key = RegKey::make(core::kTagState, Pid{0}, 1);
    const RegId a = env.reg(key);
    const RegId b = env.reg(key);
    EXPECT_EQ(a, b);
    const RegId c = env.reg(RegKey::make(core::kTagState, Pid{0}, 2));
    EXPECT_NE(a, c);
  });
  rt.add_process([](Env&) {});
  rt.run_until_all_done(1'000);
  rt.rethrow_process_error();
}

TEST(SimCorner, ConsensusPeekAfterRwCommit) {
  SimConfig cfg;
  cfg.gsm = graph::complete(1);
  cfg.seed = 8;
  SimRuntime rt{cfg};
  rt.add_process([](Env& env) {
    const shm::ConsensusObject obj{RegKey::make(0x61, Pid{0}, 1), 3, shm::ConsensusImpl::kRw};
    EXPECT_EQ(obj.propose(env, 2), 2u);
    EXPECT_EQ(obj.peek(env), 2u);
  });
  rt.run_until_all_done(100'000);
  rt.rethrow_process_error();
}

// ---------------------------------------------------------------------------
// Paper algorithms under real threads
// ---------------------------------------------------------------------------

TEST(ThreadAlgorithms, HboWithMidRunCrash) {
  const graph::Graph gsm = graph::complete(5);
  runtime::ThreadRuntime::Config cfg;
  cfg.gsm = gsm;
  cfg.seed = 9;
  runtime::ThreadRuntime rt{cfg};
  std::vector<std::unique_ptr<core::HboConsensus>> algs;
  for (std::uint32_t p = 0; p < 5; ++p) {
    core::HboConsensus::Config hc;
    hc.gsm = &gsm;
    algs.push_back(std::make_unique<core::HboConsensus>(hc, p % 2));
    rt.add_process([alg = algs.back().get()](Env& env) { alg->run(env); });
  }
  rt.start();
  rt.crash(Pid{4});  // somewhere near the start of its run
  rt.join_all();
  rt.rethrow_process_error();
  int agreed = -1;
  for (std::uint32_t p = 0; p < 4; ++p) {
    const int d = algs[p]->decision();
    ASSERT_GE(d, 0);
    if (agreed < 0) agreed = d;
    EXPECT_EQ(d, agreed);
  }
}

TEST(ThreadAlgorithms, OmegaStabilizesOnRealThreads) {
  const std::size_t n = 4;
  runtime::ThreadRuntime::Config cfg;
  cfg.gsm = graph::complete(n);
  cfg.seed = 10;
  runtime::ThreadRuntime rt{cfg};
  std::vector<std::unique_ptr<core::OmegaMM>> nodes;
  for (std::size_t p = 0; p < n; ++p) {
    nodes.push_back(std::make_unique<core::OmegaMM>(core::OmegaMM::Config{}));
    rt.add_process([node = nodes.back().get()](Env& env) { node->run(env); });
  }
  rt.start();
  // Poll for agreement on some leader, with a generous wall-clock budget.
  bool agreed = false;
  for (int attempt = 0; attempt < 2'000 && !agreed; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const Pid l0 = nodes[0]->leader();
    if (l0.is_none()) continue;
    agreed = true;
    for (std::size_t p = 1; p < n; ++p) agreed = agreed && nodes[p]->leader() == l0;
  }
  rt.request_stop();
  rt.join_all();
  rt.rethrow_process_error();
  EXPECT_TRUE(agreed);
}

TEST(ThreadAlgorithms, SmConsensusObjectAcrossRuntimes) {
  // The same ConsensusObject code must behave identically under both
  // runtimes; run it on threads with contending proposers and assert the
  // simulator's agreed invariants.
  runtime::ThreadRuntime::Config cfg;
  cfg.gsm = graph::complete(6);
  cfg.seed = 11;
  runtime::ThreadRuntime rt{cfg};
  std::vector<std::atomic<int>> results(6);
  for (auto& r : results) r.store(-1);
  for (std::uint32_t p = 0; p < 6; ++p)
    rt.add_process([&results, p](Env& env) {
      const shm::ConsensusObject obj{RegKey::make(0x62, Pid{0}, 1), 2,
                                     shm::ConsensusImpl::kRw};
      results[p].store(static_cast<int>(obj.propose(env, p % 2)));
    });
  rt.start();
  rt.join_all();
  rt.rethrow_process_error();
  const int first = results[0].load();
  ASSERT_GE(first, 0);
  for (auto& r : results) EXPECT_EQ(r.load(), first);
}

}  // namespace
}  // namespace mm
