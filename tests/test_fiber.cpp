// Tests for the stackful fiber primitive every simulated process runs on:
// resume/yield ordering, completion, stack integrity, many concurrent
// fibers, nesting (fibers inside fibers, simulators inside fibers — the
// shape the parallel trial engine produces), and the scoped stack recycler
// the explorers run under.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "runtime/fiber.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::runtime {
namespace {

TEST(Fiber, ResumeYieldOrdering) {
  std::string log;
  Fiber f{[&] {
    log += "b";
    f.yield();
    log += "d";
    f.yield();
    log += "f";
  }};
  log += "a";
  f.resume();
  log += "c";
  f.resume();
  log += "e";
  f.resume();
  log += "g";
  EXPECT_EQ(log, "abcdefg");
  EXPECT_TRUE(f.done());
}

TEST(Fiber, DoneOnlyAfterEntryReturns) {
  Fiber f{[&] { f.yield(); }};
  EXPECT_FALSE(f.done());
  f.resume();
  EXPECT_FALSE(f.done());  // suspended at the yield
  f.resume();
  EXPECT_TRUE(f.done());
}

TEST(Fiber, ExitLeavesWithoutReturningFromEntry) {
  bool after_exit = false;
  Fiber f{[&] {
    f.yield();
    f.exit();
    after_exit = true;
  }};
  f.resume();
  EXPECT_TRUE(f.started());
  EXPECT_FALSE(f.done());
  f.resume();  // returns at the exit
  EXPECT_TRUE(f.done());
  EXPECT_FALSE(after_exit);
}

TEST(Fiber, NeverStartedDestructsCleanly) {
  Fiber f{[] { FAIL() << "entry must not run"; }};
  EXPECT_FALSE(f.done());
}

TEST(Fiber, LocalsSurviveYield) {
  std::uint64_t out = 0;
  Fiber f{[&] {
    std::uint64_t acc = 1;
    for (int i = 0; i < 64; ++i) {
      acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
      f.yield();
    }
    out = acc;
  }};
  while (!f.done()) f.resume();

  // Same recurrence computed without any switches.
  std::uint64_t want = 1;
  for (int i = 0; i < 64; ++i) want = want * 6364136223846793005ULL + 1442695040888963407ULL;
  EXPECT_EQ(out, want);
}

TEST(Fiber, ManyFibersInterleaved) {
  constexpr int kFibers = 64;
  constexpr int kRounds = 32;
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<int> counts(kFibers, 0);
  fibers.reserve(kFibers);
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&, i] {
      for (int r = 0; r < kRounds; ++r) {
        ++counts[static_cast<std::size_t>(i)];
        fibers[static_cast<std::size_t>(i)]->yield();
      }
    }));
  }
  bool any = true;
  while (any) {
    any = false;
    for (auto& f : fibers) {
      if (!f->done()) {
        f->resume();
        any = true;
      }
    }
  }
  for (int c : counts) EXPECT_EQ(c, kRounds);
}

// Recursion that touches a real call stack across yields — the reason the
// simulator uses stackful fibers rather than stackless coroutines.
std::uint64_t yielding_fib(Fiber& self, int n) {
  self.yield();
  if (n < 2) return static_cast<std::uint64_t>(n);
  return yielding_fib(self, n - 1) + yielding_fib(self, n - 2);
}

TEST(Fiber, DeepCallStackAcrossYields) {
  std::uint64_t result = 0;
  Fiber f{[&] { result = yielding_fib(f, 15); }};
  while (!f.done()) f.resume();
  EXPECT_EQ(result, 610u);
}

TEST(Fiber, NestedFibers) {
  std::string log;
  Fiber outer{[&] {
    Fiber inner{[&] {
      log += "2";
      inner.yield();
      log += "4";
    }};
    log += "1";
    inner.resume();
    log += "3";
    outer.yield();  // suspend the outer fiber while the inner one is parked
    inner.resume();
    log += "5";
  }};
  outer.resume();
  outer.resume();
  EXPECT_EQ(log, "12345");
  EXPECT_TRUE(outer.done());
}

// The parallel trial engine runs whole simulators on worker threads, which
// means fibers whose caller stack is a worker thread and, in
// nested-simulation tests, fibers created inside fibers. Exercise a full
// SimRuntime from inside a fiber to cover that composition.
TEST(Fiber, SimRuntimeInsideFiber) {
  std::uint64_t delivered = 0;
  Fiber f{[&] {
    SimConfig cfg;
    cfg.gsm = graph::complete(3);
    cfg.seed = 7;
    SimRuntime rt{cfg};
    for (std::uint32_t p = 0; p < 3; ++p) {
      rt.add_process([p](Env& env) {
        Message m;
        m.kind = 1;
        env.send(Pid{(p + 1) % 3}, m);
        std::vector<Message> drained;
        for (int i = 0; i < 20; ++i) {
          env.drain_inbox(drained);
          env.step();
        }
      });
    }
    EXPECT_TRUE(rt.run_until_all_done(10'000));
    rt.rethrow_process_error();
    delivered = rt.metrics().msgs_delivered;
    f.yield();  // suspend with the finished runtime still alive
  }};
  f.resume();
  EXPECT_EQ(delivered, 3u);
  f.resume();
  EXPECT_TRUE(f.done());
}

// -- pooled stacks -----------------------------------------------------------

/// Run a four-process workload of register reads and writes, coin flips,
/// sends and drains to completion, on pooled or on guarded fiber stacks.
std::unique_ptr<SimRuntime> run_small_workload(bool pooled) {
  SimConfig cfg;
  cfg.gsm = graph::complete(4);
  cfg.seed = 21;
  cfg.pooled_fiber_stacks = pooled;
  auto rt = std::make_unique<SimRuntime>(cfg);
  for (std::uint32_t p = 0; p < 4; ++p)
    rt->add_process([p](Env& env) {
      const RegId mine = env.reg(RegKey::make(0x31, Pid{p}));
      const RegId next = env.reg(RegKey::make(0x31, Pid{(p + 1) % 4}));
      std::vector<Message> drained;
      Message m;
      m.kind = 1;
      for (int i = 0; i < 20; ++i) {
        env.write(mine, env.read(next) + (env.coin() ? 1 : 2));
        m.value = static_cast<std::uint64_t>(i);
        env.send(Pid{(p + 1) % 4}, m);
        env.drain_inbox(drained);
        env.step();
      }
    });
  EXPECT_TRUE(rt->run_until_all_done(100'000));
  rt->rethrow_process_error();
  return rt;
}

/// Every counter of `m`, in field order.
std::vector<std::uint64_t> counters(const Metrics& m) {
  std::vector<std::uint64_t> out{m.msgs_sent,        m.msgs_delivered,  m.msgs_dropped,
                                 m.reg_reads,        m.reg_writes,      m.reg_cas_ops,
                                 m.reg_reads_local,  m.reg_writes_local, m.reg_cas_local};
  for (const std::vector<std::uint64_t>* per :
       {&m.steps_by_proc, &m.sends_by_proc, &m.reads_by_proc, &m.writes_by_proc,
        &m.remote_reads_by_proc, &m.remote_writes_by_proc})
    out.insert(out.end(), per->begin(), per->end());
  return out;
}

TEST(FiberStacks, PooledStacksRunTheGuardedTrajectory) {
  // The stack a process runs on is not part of the trajectory: a pooled
  // runtime ends where a guarded one does, and maps no guarded stack.
  const FiberStackCounts c0 = fiber_stack_counts();
  const std::unique_ptr<SimRuntime> pooled = run_small_workload(true);
  const FiberStackCounts c1 = fiber_stack_counts();
  EXPECT_EQ(c1.mapped, c0.mapped);
  const std::unique_ptr<SimRuntime> guarded = run_small_workload(false);
  EXPECT_EQ(fiber_stack_counts().mapped - c1.mapped, 4u);

  EXPECT_EQ(counters(pooled->metrics()), counters(guarded->metrics()));
  EXPECT_EQ(pooled->register_values(), guarded->register_values());
  EXPECT_EQ(pooled->now(), guarded->now());
  EXPECT_GT(pooled->metrics().msgs_delivered, 0u);
}

// -- FiberStackRecycler ------------------------------------------------------

/// Build, run and destroy a three-process runtime: three default-size
/// fibers.
void run_three_process_runtime() {
  SimConfig cfg;
  cfg.gsm = graph::complete(3);
  cfg.seed = 11;
  SimRuntime rt{cfg};
  for (std::uint32_t p = 0; p < 3; ++p)
    rt.add_process([](Env& env) {
      for (int i = 0; i < 4; ++i) env.step();
    });
  EXPECT_TRUE(rt.run_until_all_done(1'000));
}

TEST(FiberRecycler, SecondRuntimeInScopeMapsNoStack) {
  const FiberStackCounts before = fiber_stack_counts();
  {
    const FiberStackRecycler scope;
    run_three_process_runtime();
    const FiberStackCounts warm = fiber_stack_counts();
    EXPECT_EQ(warm.mapped - before.mapped, 3u);
    EXPECT_EQ(warm.unmapped - before.unmapped, 0u);  // handed back to the cache
    run_three_process_runtime();
    const FiberStackCounts again = fiber_stack_counts();
    EXPECT_EQ(again.mapped, warm.mapped);
    EXPECT_EQ(again.unmapped, warm.unmapped);
  }
  // Closing the scope unmaps the cache.
  const FiberStackCounts after = fiber_stack_counts();
  EXPECT_EQ(after.mapped - before.mapped, 3u);
  EXPECT_EQ(after.unmapped - before.unmapped, 3u);
}

TEST(FiberRecycler, UnscopedFibersOwnTheirStacks) {
  const FiberStackCounts c0 = fiber_stack_counts();
  {
    Fiber f{[] {}};  // no scope open
    f.resume();
    EXPECT_TRUE(f.done());
  }
  const FiberStackCounts c1 = fiber_stack_counts();
  EXPECT_EQ(c1.mapped - c0.mapped, 1u);
  EXPECT_EQ(c1.unmapped - c0.unmapped, 1u);
}

TEST(FiberRecycler, FiberOutlivingItsScopeUnmapsItsStack) {
  const FiberStackCounts c0 = fiber_stack_counts();
  std::unique_ptr<Fiber> survivor;
  {
    const FiberStackRecycler scope;
    {
      Fiber first{[] {}};
      first.resume();
    }
    survivor = std::make_unique<Fiber>([] {});  // takes first's cached mapping
    EXPECT_EQ(fiber_stack_counts().mapped - c0.mapped, 1u);
  }
  EXPECT_EQ(fiber_stack_counts().unmapped - c0.unmapped, 0u);  // still in use
  survivor->resume();
  EXPECT_TRUE(survivor->done());
  survivor.reset();
  const FiberStackCounts c1 = fiber_stack_counts();
  EXPECT_EQ(c1.mapped - c0.mapped, 1u);
  EXPECT_EQ(c1.unmapped - c0.unmapped, 1u);  // unmapped, not leaked
}

TEST(FiberRecycler, ParkedStorageGoesToTheNextTakeOfItsType) {
  auto storage = std::make_unique<std::vector<int>>(3, 7);
  FiberStackRecycler::park(storage);  // no scope open: left to its owner
  ASSERT_NE(storage, nullptr);
  EXPECT_EQ(FiberStackRecycler::take<std::vector<int>>(), nullptr);
  const std::vector<int>* const parked = storage.get();
  {
    const FiberStackRecycler scope;
    EXPECT_TRUE(FiberStackRecycler::active());
    FiberStackRecycler::park(storage);
    EXPECT_EQ(storage, nullptr);
    EXPECT_EQ(FiberStackRecycler::take<std::vector<char>>(), nullptr);  // other type
    std::unique_ptr<std::vector<int>> taken = FiberStackRecycler::take<std::vector<int>>();
    EXPECT_EQ(taken.get(), parked);
    EXPECT_EQ(FiberStackRecycler::take<std::vector<int>>(), nullptr);  // taken once
    FiberStackRecycler::park(taken);  // freed when the scope closes
  }
  EXPECT_FALSE(FiberStackRecycler::active());
}

TEST(FiberRecycler, NestedScopeJoinsTheOpenOne) {
  const FiberStackCounts c0 = fiber_stack_counts();
  {
    const FiberStackRecycler outer;
    {
      const FiberStackRecycler inner;
      run_three_process_runtime();
    }
    EXPECT_EQ(fiber_stack_counts().unmapped - c0.unmapped, 0u);  // outer still caches
    run_three_process_runtime();
    EXPECT_EQ(fiber_stack_counts().mapped - c0.mapped, 3u);
  }
  EXPECT_EQ(fiber_stack_counts().unmapped - c0.unmapped, 3u);
}

// 1 KiB frames, far more of them than a fiber stack holds. The volatile
// limit keeps the recursion from being provably infinite.
std::uint64_t recurse_deep(std::uint64_t depth, std::uint64_t limit) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  if (depth >= limit) return 0;
  return recurse_deep(depth + 1, limit) + static_cast<std::uint64_t>(frame[0]);
}

void overflow_a_recycled_stack() {
  const rlimit no_core{0, 0};
  (void)::setrlimit(RLIMIT_CORE, &no_core);
  const FiberStackRecycler scope;
  {
    Fiber first{[] {}};
    first.resume();
  }
  volatile std::uint64_t limit = std::uint64_t{1} << 30;
  std::uint64_t sink = 0;
  Fiber second{[&] { sink = recurse_deep(0, limit); }};  // reuses first's mapping
  second.resume();
  std::fprintf(stderr, "overflow did not fault (%llu)\n",
               static_cast<unsigned long long>(sink));
}

TEST(FiberRecyclerDeathTest, OverflowOnRecycledStackStillFaults) {
  // The guard page travels with the cached mapping: overrunning the second
  // fiber's stack must still fault loudly, not run into other memory.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
#if defined(MM_FIBER_ASAN) || defined(MM_FIBER_TSAN)
  // The sanitizer's SEGV handler reports the fault and exits.
  EXPECT_DEATH(overflow_a_recycled_stack(), "");
#else
  EXPECT_EXIT(overflow_a_recycled_stack(), testing::KilledBySignal(SIGSEGV), "");
#endif
}

}  // namespace
}  // namespace mm::runtime
