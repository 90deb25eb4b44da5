// Tests for the §6 future-work extension: partial shared-memory failures.
// Registers of a failed host throw MemoryFailure; algorithms degrade
// gracefully — HBO stops representing the affected neighbors, Ω evicts
// contenders it can no longer monitor.
#include <gtest/gtest.h>

#include <memory>

#include "core/hbo.hpp"
#include "core/omega.hpp"
#include "core/tags.hpp"
#include "fault/engine.hpp"
#include "graph/expansion.hpp"
#include "graph/generators.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/thread_runtime.hpp"

namespace mm {
namespace {

using runtime::Env;
using runtime::RegKey;
using runtime::SimConfig;
using runtime::SimRuntime;

TEST(MemoryFailureRuntime, AccessThrowsAfterFailStep) {
  SimConfig cfg;
  cfg.gsm = graph::complete(2);
  cfg.seed = 1;
  SimRuntime rt{cfg};
  bool before_ok = false, after_threw = false;
  rt.add_process([&](Env& env) {
    const RegId r = env.reg(RegKey::make(core::kTagState, Pid{0}));
    env.write(r, 7);
    before_ok = env.read(r) == 7;
    while (env.now() < 100) env.step();
    try {
      (void)env.read(r);
    } catch (const MemoryFailure&) {
      after_threw = true;
    }
  });
  rt.add_process([](Env&) {});
  rt.run_steps(50);
  rt.fail_memory_now(Pid{0});
  rt.run_until_all_done(10'000);
  rt.rethrow_process_error();
  EXPECT_TRUE(before_ok);
  EXPECT_TRUE(after_threw);
}

TEST(MemoryFailureRuntime, TransientWindowThrowsInsideRecoversAfter) {
  // A window with a recovery step: accesses throw inside it, and afterwards
  // the register is reachable again with its pre-failure value intact
  // (unavailability, never corruption).
  SimConfig cfg;
  cfg.gsm = graph::complete(2);
  cfg.seed = 4;
  SimRuntime rt{cfg};
  bool inside_threw = false, after_ok = false;
  rt.add_process([&](Env& env) {
    const RegId r = env.reg(RegKey::make(core::kTagState, Pid{0}));
    env.write(r, 7);
    while (env.now() < 100) env.step();
    try {
      (void)env.read(r);
    } catch (const MemoryFailure&) {
      inside_threw = true;
    }
    while (env.now() < 250) env.step();
    after_ok = env.read(r) == 7;  // value survived the outage
  });
  rt.add_process([](Env&) {});
  rt.run_steps(50);
  rt.fail_memory_now(Pid{0}, Step{200});
  rt.run_until_all_done(10'000);
  rt.rethrow_process_error();
  EXPECT_TRUE(inside_threw);
  EXPECT_TRUE(after_ok);
}

TEST(MemoryFailureRuntime, DynamicFailAndRecoverActuators) {
  // The injector-facing actuators drive the same window machinery at
  // arbitrary points mid-run.
  SimConfig cfg;
  cfg.gsm = graph::complete(2);
  cfg.seed = 5;
  SimRuntime rt{cfg};
  bool threw = false, recovered = false;
  rt.add_process([&](Env& env) {
    const RegId r = env.reg(RegKey::make(core::kTagState, Pid{0}));
    env.write(r, 3);
    while (env.now() < 100) env.step();
    try {
      (void)env.read(r);
    } catch (const MemoryFailure&) {
      threw = true;
    }
    while (env.now() < 300) env.step();
    recovered = env.read(r) == 3;
  });
  rt.add_process([](Env&) {});
  rt.run_steps(50);
  rt.fail_memory_now(Pid{0});
  rt.run_steps(150);
  rt.recover_memory_now(Pid{0});
  rt.run_until_all_done(10'000);
  rt.rethrow_process_error();
  EXPECT_TRUE(threw);
  EXPECT_TRUE(recovered);
}

TEST(MemoryFailureRuntime, OtherHostsUnaffected) {
  SimConfig cfg;
  cfg.gsm = graph::complete(3);
  cfg.seed = 2;
  SimRuntime rt{cfg};
  rt.fail_memory_now(Pid{0});
  rt.add_process([](Env& env) {
    // Host 1's registers still work even though host 0's memory is gone.
    const RegId r = env.reg(RegKey::make(core::kTagState, Pid{1}));
    env.write(r, 9);
    EXPECT_EQ(env.read(r), 9u);
  });
  rt.add_process([](Env&) {});
  rt.add_process([](Env&) {});
  rt.run_until_all_done(10'000);
  rt.rethrow_process_error();
}

TEST(MemoryFailureRuntime, GlobalKeysNeverFail) {
  SimConfig cfg;
  cfg.gsm = graph::complete(2);
  cfg.seed = 3;
  SimRuntime rt{cfg};
  rt.fail_memory_now(Pid{0});
  rt.fail_memory_now(Pid{1});
  rt.add_process([](Env& env) {
    const RegId r = env.reg(RegKey::make_global(0x50, Pid{0}));
    env.write(r, 1);
    EXPECT_EQ(env.read(r), 1u);
  });
  rt.add_process([](Env&) {});
  rt.run_until_all_done(10'000);
  rt.rethrow_process_error();
}

TEST(MemoryFailureRuntime, ThreadRuntimeFailMemory) {
  runtime::ThreadRuntime::Config cfg;
  cfg.gsm = graph::complete(2);
  runtime::ThreadRuntime rt{cfg};
  std::atomic<bool> wrote{false};
  std::atomic<bool> failed{false};
  std::atomic<bool> threw{false};
  rt.add_process([&](Env& env) {
    const RegId r = env.reg(RegKey::make(core::kTagState, Pid{0}));
    env.write(r, 5);
    wrote.store(true);
    while (!failed.load()) env.step();
    try {
      (void)env.read(r);
    } catch (const MemoryFailure&) {
      threw.store(true);
    }
  });
  rt.add_process([](Env&) {});
  rt.start();
  while (!wrote.load()) std::this_thread::yield();
  rt.fail_memory(Pid{0});
  failed.store(true);
  rt.join_all();
  rt.rethrow_process_error();
  EXPECT_TRUE(threw.load());
}

// ---------------------------------------------------------------------------
// HBO under partial memory failure
// ---------------------------------------------------------------------------

struct HboMemRun {
  bool agreement = true;
  bool all_correct_decided = true;
  std::optional<std::uint32_t> decision;
};

/// `mem_windows` are kMemoryWindow rules the run's fault engine fires.
HboMemRun run_hbo_memfail(const graph::Graph& gsm, const std::vector<std::uint32_t>& inputs,
                          std::vector<fault::FaultRule> mem_windows, std::uint64_t seed,
                          Step budget = 4'000'000) {
  const std::size_t n = gsm.size();
  SimConfig sim;
  sim.gsm = gsm;
  sim.seed = seed;
  SimRuntime rt{std::move(sim)};
  fault::FaultEngine engine{std::move(mem_windows)};
  rt.set_fault_injector(&engine);
  std::vector<std::unique_ptr<core::HboConsensus>> algs;
  for (std::size_t p = 0; p < n; ++p) {
    core::HboConsensus::Config hc;
    hc.gsm = &gsm;
    algs.push_back(std::make_unique<core::HboConsensus>(hc, inputs[p]));
    rt.add_process([alg = algs.back().get()](Env& env) { alg->run(env); });
  }
  rt.run_until_all_done(budget);
  rt.shutdown();
  rt.rethrow_process_error();

  HboMemRun res;
  for (std::size_t p = 0; p < n; ++p) {
    const int d = algs[p]->decision();
    if (d < 0) {
      res.all_correct_decided = false;
      continue;
    }
    if (res.decision.has_value() && *res.decision != static_cast<std::uint32_t>(d))
      res.agreement = false;
    if (!res.decision.has_value()) res.decision = static_cast<std::uint32_t>(d);
  }
  return res;
}

TEST(HboMemoryFailure, DecidesDespitePartialMemoryLoss) {
  // No crashes, but two hosts lose their memory at step 0: everyone still
  // participates in messages, and the remaining representation (all n via
  // messages... each process still represents itself through surviving
  // objects) keeps a majority.
  const graph::Graph g = graph::complete(6);
  const std::vector<fault::FaultRule> mem{
      {.count = 0, .action = fault::Action::kMemoryWindow, .target = Pid{1}},
      {.count = 0, .action = fault::Action::kMemoryWindow, .target = Pid{4}}};
  const auto res =
      run_hbo_memfail(g, std::vector<std::uint32_t>{0, 1, 0, 1, 0, 1}, mem, 3);
  EXPECT_TRUE(res.agreement);
  EXPECT_TRUE(res.all_correct_decided);
}

TEST(HboMemoryFailure, MidRunFailuresStaySafe) {
  Rng rng{5};
  const graph::Graph g = graph::chordal_ring(8);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::vector<std::uint32_t> inputs;
    for (int p = 0; p < 8; ++p) inputs.push_back(rng.coin() ? 1 : 0);
    // Two hosts fail for good at steps in [0, 2000]: the step is drawn
    // before its host. (No seed here draws one host twice.)
    std::vector<fault::FaultRule> mem;
    for (int k = 0; k < 2; ++k)
      mem.push_back({.count = rng.between(0, 2'000),
                     .action = fault::Action::kMemoryWindow,
                     .target = Pid{static_cast<std::uint32_t>(rng.below(8))}});
    const auto res = run_hbo_memfail(g, inputs, mem, seed * 13);
    EXPECT_TRUE(res.agreement) << "seed " << seed;
  }
}

TEST(HboMemoryFailure, TotalMemoryLossDegradesToBenOr) {
  // Every host's memory fails at step 0: HBO degenerates to message-only
  // representation of... nothing — no process can even be represented, so
  // no majority ever forms and the run must not decide. Safety still holds.
  const graph::Graph g = graph::complete(4);
  std::vector<fault::FaultRule> mem;
  for (std::uint32_t p = 0; p < 4; ++p)
    mem.push_back({.count = 0, .action = fault::Action::kMemoryWindow, .target = Pid{p}});
  const auto res = run_hbo_memfail(g, std::vector<std::uint32_t>{0, 1, 0, 1}, mem, 7,
                                   /*budget=*/80'000);
  EXPECT_TRUE(res.agreement);
  EXPECT_FALSE(res.all_correct_decided);
}

TEST(HboMemoryFailure, TransientMinorityLossStaysLiveAndDecides) {
  // A minority of hosts (1 of 4) loses its memory transiently from step 0.
  // HBO skips the unavailable host's consensus objects, the remaining 3
  // still form a represented majority, and every process — including the
  // one whose memory failed — decides. (Total transient loss would NOT
  // recover: each phase's tuple-bearing message is built exactly once, so
  // all-empty round-1 messages block await_majority forever. That matches
  // the paper's standing minority-of-memories assumption.)
  const graph::Graph g = graph::complete(4);
  const std::size_t n = g.size();
  SimConfig sim;
  sim.gsm = g;
  sim.seed = 7;
  SimRuntime rt{std::move(sim)};
  rt.fail_memory_now(Pid{3}, Step{5'000});
  const std::vector<std::uint32_t> inputs{0, 1, 0, 1};
  std::vector<std::unique_ptr<core::HboConsensus>> algs;
  for (std::size_t p = 0; p < n; ++p) {
    core::HboConsensus::Config hc;
    hc.gsm = &g;
    algs.push_back(std::make_unique<core::HboConsensus>(hc, inputs[p]));
    rt.add_process([alg = algs.back().get()](Env& env) { alg->run(env); });
  }
  rt.run_until_all_done(4'000'000);
  rt.shutdown();
  rt.rethrow_process_error();
  std::optional<std::uint32_t> decision;
  for (std::size_t p = 0; p < n; ++p) {
    const int d = algs[p]->decision();
    ASSERT_GE(d, 0) << "p" << p << " did not decide under minority memory loss";
    if (!decision) decision = static_cast<std::uint32_t>(d);
    EXPECT_EQ(static_cast<std::uint32_t>(d), *decision);
  }
}

// ---------------------------------------------------------------------------
// Ω under partial memory failure (message-notification variant)
// ---------------------------------------------------------------------------

TEST(OmegaMemoryFailure, ReelectsWhenLeadersMemoryDies) {
  // p0 wins initially; its heartbeat registers then fail. Everyone must
  // eventually agree on a different leader whose memory still works.
  const std::size_t n = 4;
  SimConfig sim;
  sim.gsm = graph::complete(n);
  sim.seed = 11;
  SimRuntime rt{std::move(sim)};
  fault::FaultEngine engine{
      {{.count = 20'000, .action = fault::Action::kMemoryWindow, .target = Pid{0}}}};
  rt.set_fault_injector(&engine);
  std::vector<std::unique_ptr<core::OmegaMM>> nodes;
  for (std::size_t p = 0; p < n; ++p) {
    nodes.push_back(std::make_unique<core::OmegaMM>(core::OmegaMM::Config{}));
    rt.add_process([node = nodes.back().get()](Env& env) { node->run(env); });
  }
  bool converged = false;
  for (int chunk = 0; chunk < 400 && !converged; ++chunk) {
    rt.run_steps(2'000);
    rt.rethrow_process_error();
    if (rt.now() < 30'000) continue;
    Pid agreed = nodes[0]->leader();
    converged = !agreed.is_none() && agreed != Pid{0};
    for (std::size_t p = 1; p < n && converged; ++p)
      converged = nodes[p]->leader() == agreed;
  }
  rt.shutdown();
  EXPECT_TRUE(converged) << "no post-memory-failure leader agreement";
}

TEST(OmegaMemoryFailure, ReadoptsRecoveredHost) {
  // p0 leads, loses its memory for a window, and comes back: the recovery
  // probe lets p0 heartbeat again, it re-claims contention at its true rank
  // (smallest pid), and every process re-adopts it as leader.
  const std::size_t n = 4;
  SimConfig sim;
  sim.gsm = graph::complete(n);
  sim.seed = 13;
  SimRuntime rt{std::move(sim)};
  fault::FaultEngine engine{{{.count = 20'000,
                              .action = fault::Action::kMemoryWindow,
                              .target = Pid{0},
                              .duration = 40'000}}};  // recovers at step 60'000
  rt.set_fault_injector(&engine);
  std::vector<std::unique_ptr<core::OmegaMM>> nodes;
  for (std::size_t p = 0; p < n; ++p) {
    nodes.push_back(std::make_unique<core::OmegaMM>(core::OmegaMM::Config{}));
    rt.add_process([node = nodes.back().get()](Env& env) { node->run(env); });
  }
  // During the outage the others must move off p0...
  bool moved_away = false;
  for (int chunk = 0; chunk < 200 && !moved_away; ++chunk) {
    rt.run_steps(2'000);
    rt.rethrow_process_error();
    if (rt.now() < 30'000) continue;
    if (rt.now() >= 58'000) break;  // window about to close
    Pid agreed = nodes[1]->leader();
    moved_away = !agreed.is_none() && agreed != Pid{0};
    for (std::size_t p = 2; p < n && moved_away; ++p)
      moved_away = nodes[p]->leader() == agreed;
  }
  EXPECT_TRUE(moved_away) << "others never evicted the failed-memory leader";
  // ...and after recovery everyone must converge back onto p0.
  bool readopted = false;
  for (int chunk = 0; chunk < 400 && !readopted; ++chunk) {
    rt.run_steps(2'000);
    rt.rethrow_process_error();
    if (rt.now() < 80'000) continue;
    readopted = true;
    for (std::size_t p = 0; p < n && readopted; ++p)
      readopted = nodes[p]->leader() == Pid{0};
  }
  rt.shutdown();
  EXPECT_TRUE(readopted) << "recovered host was never re-adopted as leader";
}

}  // namespace
}  // namespace mm
