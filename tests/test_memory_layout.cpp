// Tests for the allocation-light message path: TupleVec's inline/spill
// boundary, the SlabPool recycling it, and — the invariant all of it exists
// for — zero heap allocations per steady-state simulator step (including the
// consensus receive rules' spin loops) and per recycled runtime and DPOR
// replay, measured with the per-thread counting operator new in
// common/alloc_count.hpp.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "check/dpor.hpp"
#include "check/instances.hpp"
#include "common/alloc_count.hpp"
#include "common/slab.hpp"
#include "core/ben_or.hpp"
#include "core/hbo.hpp"
#include "graph/generators.hpp"
#include "runtime/env.hpp"
#include "runtime/fiber.hpp"
#include "runtime/message.hpp"
#include "runtime/sim_config.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm {
namespace {

using runtime::Env;
using runtime::Message;
using runtime::RepTuple;
using runtime::SimConfig;
using runtime::SimRuntime;
using runtime::TupleVec;

RepTuple tup(std::uint32_t p, std::uint32_t v) { return RepTuple{Pid{p}, v}; }

TupleVec make_vec(std::size_t n) {
  TupleVec v;
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(tup(i, i * 10));
  return v;
}

// -- TupleVec boundary behaviour --------------------------------------------

TEST(TupleVec, EmptyIsInlineAndEqualToEmpty) {
  TupleVec a, b;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0u);
  EXPECT_FALSE(a.spilled());
  EXPECT_EQ(a.capacity(), TupleVec::kInline);
  EXPECT_TRUE(a == b);
}

TEST(TupleVec, ExactlyInlineCapacityStaysInline) {
  TupleVec v = make_vec(TupleVec::kInline);
  EXPECT_EQ(v.size(), TupleVec::kInline);
  EXPECT_FALSE(v.spilled());
  for (std::uint32_t i = 0; i < TupleVec::kInline; ++i) {
    EXPECT_EQ(v[i].pid, Pid{i});
    EXPECT_EQ(v[i].value, i * 10);
  }
}

TEST(TupleVec, NinthElementSpillsPreservingContents) {
  TupleVec v = make_vec(TupleVec::kInline);
  v.push_back(tup(8, 80));
  EXPECT_TRUE(v.spilled());
  EXPECT_EQ(v.size(), TupleVec::kInline + 1);
  for (std::uint32_t i = 0; i <= TupleVec::kInline; ++i)
    EXPECT_EQ(v[i].value, i * 10);
}

TEST(TupleVec, CopyAcrossSpillBoundaryBothDirections) {
  TupleVec small = make_vec(3);
  TupleVec big = make_vec(20);
  EXPECT_TRUE(big.spilled());

  TupleVec a = big;  // copy-construct a spilled vec
  EXPECT_TRUE(a == big);
  a = small;  // spilled -> inline-sized assignment
  EXPECT_TRUE(a == small);
  EXPECT_EQ(a.size(), 3u);
  a = big;  // back across the boundary
  EXPECT_TRUE(a == big);
}

TEST(TupleVec, MoveTransfersSpillOwnership) {
  TupleVec big = make_vec(20);
  const RepTuple* payload = big.data();
  TupleVec moved = std::move(big);
  EXPECT_EQ(moved.data(), payload);  // spill block moved, not copied
  EXPECT_EQ(moved.size(), 20u);
  EXPECT_TRUE(big.empty());  // NOLINT(bugprone-use-after-move): pinned state
  EXPECT_FALSE(big.spilled());

  TupleVec inline_src = make_vec(4);
  TupleVec dst;
  dst = std::move(inline_src);
  EXPECT_EQ(dst.size(), 4u);
  EXPECT_EQ(dst[3].value, 30u);
}

TEST(TupleVec, EqualityComparesValuesNotStorage) {
  TupleVec big = make_vec(9);
  TupleVec same = big;
  EXPECT_TRUE(big == same);
  same[8].value ^= 1;
  EXPECT_FALSE(big == same);
  // Differently-sized never equal, even sharing a prefix.
  TupleVec prefix = make_vec(8);
  EXPECT_FALSE(big == prefix);
}

TEST(TupleVec, AssignFromStdVectorMatchesAlgorithmUsage) {
  std::vector<RepTuple> payload;
  for (std::uint32_t i = 0; i < 12; ++i) payload.push_back(tup(i, i));
  Message m;
  m.tuples = payload;
  EXPECT_EQ(m.tuples.size(), 12u);
  EXPECT_TRUE(m.tuples.spilled());
  EXPECT_TRUE(std::equal(m.tuples.begin(), m.tuples.end(), payload.begin()));
}

TEST(TupleVec, ClearKeepsSpillCapacityForReuse) {
  TupleVec v = make_vec(20);
  std::size_t cap = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);  // spill block retained, refills allocation-free
}

// -- SlabPool ---------------------------------------------------------------

TEST(SlabPool, RoundsUpToClassAndRecycles) {
  common::SlabPool& pool = common::SlabPool::local();
  std::size_t bytes = 100;
  void* p = pool.acquire(bytes);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(bytes, 128u);  // next power-of-two class
  pool.release(p, bytes);

  std::uint64_t reuses_before = pool.stats().reuses;
  std::size_t again = 70;  // same class after rounding
  void* q = pool.acquire(again);
  EXPECT_EQ(q, p);  // LIFO free list hands the block straight back
  EXPECT_EQ(pool.stats().reuses, reuses_before + 1);
  pool.release(q, again);
}

TEST(SlabPool, MinimumClassServesTinyRequests) {
  common::SlabPool& pool = common::SlabPool::local();
  std::size_t bytes = 1;
  void* p = pool.acquire(bytes);
  EXPECT_EQ(bytes, common::SlabPool::kMinBlock);
  pool.release(p, bytes);
}

// -- SimRuntime object size -------------------------------------------------

// The explorers build one runtime per schedule replay, so every construction
// zeroes the whole object. Whatever only an armed feature uses, such as the
// observability recorder's three 976-bucket histograms (23 KB), is allocated
// when the feature is armed, not carried inline.
TEST(SimRuntimeLayout, ObjectStaysUnderFourKilobytes) {
  EXPECT_LT(sizeof(SimRuntime), 4096u);
}

// -- steady-state allocation invariant --------------------------------------

// A four-process ring exchanging spilled (9-tuple) messages every step: after
// warmup fills the slab free lists and the drain scratch buffers, further
// steps must not touch the heap at all.
TEST(AllocInvariant, SteadyStateStepsAreHeapFree) {
  if (!common::alloc_counting_active())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";

  SimConfig cfg;
  cfg.gsm = graph::complete(4);
  cfg.seed = 2026;
  SimRuntime rt{cfg};
  for (std::uint32_t p = 0; p < 4; ++p) {
    rt.add_process([p](Env& env) {
      std::vector<Message> drained;
      drained.reserve(64);  // past any starvation-stretch drain batch
      Message m;
      m.kind = 7;
      for (std::uint32_t i = 0; i < TupleVec::kInline + 1; ++i)
        m.tuples.push_back(RepTuple{Pid{i % 4}, i});
      for (;;) {
        m.round = env.now();
        env.send(Pid{(p + 1) % 4}, m);
        env.drain_inbox(drained);
        if (env.stop_requested()) return;
        env.step();
      }
    });
  }
  rt.run_steps(20'000);  // warmup: scratch vectors, pending queues

  // Deepen the slab free list past any in-flight high-water mark the measured
  // window can reach: the number of simultaneously spilled payloads grows
  // (logarithmically) with scheduler starvation stretches, so a longer run can
  // exceed what the warmup happened to see. Pool depth is warmup state, not
  // steady-state traffic.
  {
    common::SlabPool& pool = common::SlabPool::local();
    constexpr int kDepth = 256;
    void* blocks[kDepth];
    std::size_t granted[kDepth];
    for (int i = 0; i < kDepth; ++i) {
      granted[i] = (TupleVec::kInline + 1) * sizeof(RepTuple);
      blocks[i] = pool.acquire(granted[i]);
    }
    for (int i = 0; i < kDepth; ++i) pool.release(blocks[i], granted[i]);
  }

  const auto before = common::alloc_counts();
  rt.run_steps(50'000);
  const auto delta = common::alloc_counts() - before;
  EXPECT_EQ(delta.allocs, 0u) << "heap allocations leaked into the steady state";
  EXPECT_EQ(delta.bytes, 0u);

  rt.request_stop();
  rt.run_until_all_done(100'000);
}

// Observability compiled in but DISARMED must stay off the heap too: each
// Env backend tests the flag at the access, so after arming (which
// allocates histograms and event vectors) and disarming again, steady-state
// steps skip every histogram feed and must allocate nothing.
TEST(AllocInvariant, ObservabilityDisarmedStepsAreHeapFree) {
  if (!common::alloc_counting_active())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";

  SimConfig cfg;
  cfg.gsm = graph::complete(4);
  cfg.seed = 2026;
  SimRuntime rt{cfg};
  for (std::uint32_t p = 0; p < 4; ++p) {
    rt.add_process([p](Env& env) {
      std::vector<Message> drained;
      drained.reserve(64);
      Message m;
      m.kind = 7;
      for (;;) {
        m.round = env.now();
        env.send(Pid{(p + 1) % 4}, m);
        env.drain_inbox(drained);
        if (env.stop_requested()) return;
        env.step();
      }
    });
  }
  rt.set_observability(true);  // recording path: the histograms fill
  rt.run_steps(20'000);
  EXPECT_GT(rt.obs_report().delivery_latency.total(), 0u);
  rt.set_observability(false);

  const auto before = common::alloc_counts();
  rt.run_steps(50'000);
  const auto delta = common::alloc_counts() - before;
  EXPECT_EQ(delta.allocs, 0u) << "disarmed observability still allocated";
  EXPECT_EQ(delta.bytes, 0u);

  rt.request_stop();
  rt.run_until_all_done(100'000);
}

// The consensus receive rules rescan the buffer once per scheduler step
// while they wait. n = 5 on the edgeless GSM with p0–p2 crashed at step 0:
// each message represents only its sender, so the two survivors can never
// gather HBO's majority (2 of 5 represented) or Ben-Or's quorum (2 of the
// n − f = 4 senders), and spin in the rule until stopped.
constexpr std::size_t kSpinN = 5;

SimConfig await_spin_config(const graph::Graph& gsm) {
  SimConfig cfg;
  cfg.gsm = gsm;
  cfg.seed = 2026;
  cfg.crash_at.assign(kSpinN, std::nullopt);
  for (std::size_t p = 0; p < 3; ++p) cfg.crash_at[p] = 0;
  return cfg;
}

/// Allocations the calling thread makes while rt's survivors spin for
/// 20,000 steps after 2,000 warm-up steps; stops the run afterwards.
std::uint64_t await_spin_allocs(SimRuntime& rt) {
  rt.run_steps(2'000);  // warmup: receive buffers, drain scratch, pending queues
  const auto before = common::alloc_counts();
  const Step ran = rt.run_steps(20'000);
  const auto delta = common::alloc_counts() - before;
  EXPECT_EQ(ran, 20'000u) << "the survivors stopped spinning";
  EXPECT_EQ(delta.bytes, 0u);
  rt.request_stop();
  rt.run_until_all_done(100'000);
  return delta.allocs;
}

TEST(AllocInvariant, HboAwaitMajoritySpinIsHeapFree) {
  if (!common::alloc_counting_active())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";

  const graph::Graph gsm = graph::edgeless(kSpinN);
  SimRuntime rt{await_spin_config(gsm)};
  std::vector<std::unique_ptr<core::HboConsensus>> procs;
  for (std::uint32_t p = 0; p < kSpinN; ++p) {
    core::HboConsensus::Config hc;
    hc.gsm = &gsm;
    procs.push_back(std::make_unique<core::HboConsensus>(hc, p % 2));
    rt.add_process([alg = procs.back().get()](Env& env) { alg->run(env); });
  }
  EXPECT_EQ(await_spin_allocs(rt), 0u) << "await_majority allocated while spinning";
  for (const auto& alg : procs) EXPECT_EQ(alg->decision(), -1);
}

TEST(AllocInvariant, BenOrAwaitQuorumSpinIsHeapFree) {
  if (!common::alloc_counting_active())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";

  const graph::Graph gsm = graph::edgeless(kSpinN);
  SimRuntime rt{await_spin_config(gsm)};
  std::vector<std::unique_ptr<core::BenOrConsensus>> procs;
  for (std::uint32_t p = 0; p < kSpinN; ++p) {
    core::BenOrConsensus::Config bc;
    bc.f = 1;
    procs.push_back(std::make_unique<core::BenOrConsensus>(bc, p % 2));
    rt.add_process([alg = procs.back().get()](Env& env) { alg->run(env); });
  }
  EXPECT_EQ(await_spin_allocs(rt), 0u) << "await_quorum allocated while spinning";
  for (const auto& alg : procs) EXPECT_EQ(alg->decision(), -1);
}

// -- recycled runtimes and DPOR walks ---------------------------------------

/// The registers, sends and hashes one recycled-runtime cycle produced.
struct CycleResult {
  std::vector<std::uint64_t> registers;
  std::uint64_t msgs_delivered = 0;
  runtime::StateHash hash;
  common::AllocCounts allocs;
};

/// Build, start, run, shut down and destroy one runtime the way a DPOR
/// replay does (recording armed, a schedule policy, a state hash), counting
/// the calling thread's allocations. Three processes each write a register,
/// send to the next and drain into an inbox the caller sized, then spin
/// until killed; each body captures 24 bytes, too many for std::function's
/// inline buffer, so each costs one allocation.
CycleResult recycled_cycle(SimConfig cfg) {
  CycleResult out;
  out.registers.reserve(8);  // the copy below then allocates nothing
  std::vector<std::vector<Message>> inboxes(3);
  for (std::vector<Message>& inbox : inboxes) inbox.reserve(8);
  const auto before = common::alloc_counts();
  {
    SimRuntime rt{std::move(cfg)};
    for (std::uint32_t p = 0; p < 3; ++p) {
      const std::uint64_t value = 10 * p + 1;
      rt.add_process([p, value, inbox = &inboxes[p]](Env& env) {
        env.write(env.reg(runtime::RegKey::make_global(0x20, Pid{p})), value);
        Message m;
        m.kind = 3;
        env.send(Pid{(p + 1) % 3}, m);
        for (;;) {
          env.drain_inbox(*inbox);
          env.step();
        }
      });
    }
    rt.set_footprint_recording(true);
    std::size_t turn = 0;
    rt.set_schedule_policy(
        [&turn](const std::vector<Pid>& runnable) { return turn++ % runnable.size(); });
    rt.run_steps(60);
    out.hash = rt.state_hash();
    rt.shutdown();
    out.registers = rt.register_values();
    out.msgs_delivered = rt.metrics().msgs_delivered;
  }
  out.allocs = common::alloc_counts() - before;
  return out;
}

// Inside an open recycler scope a runtime adopts the containers, process
// records and fiber stacks the last one parked: a second identical replay
// allocates only its bodies' captures, and it runs exactly as the first.
TEST(AllocInvariant, RecycledRuntimeAllocatesOnlyItsBodies) {
  if (!common::alloc_counting_active())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";

  SimConfig cfg;
  cfg.gsm = graph::complete(3);
  cfg.seed = 2026;
  SimConfig again = cfg;
  const runtime::FiberStackRecycler scope;
  const CycleResult first = recycled_cycle(std::move(cfg));
  const CycleResult second = recycled_cycle(std::move(again));
  EXPECT_EQ(second.allocs.allocs, 3u) << "a recycled runtime allocated beyond its bodies";
  EXPECT_EQ(second.registers, first.registers);
  EXPECT_EQ(second.msgs_delivered, first.msgs_delivered);
  EXPECT_EQ(second.hash, first.hash);
  EXPECT_GT(first.msgs_delivered, 0u);
}

// A DPOR walk builds and destroys a runtime per replay. After a warm-up walk
// in the same recycler scope, a walk over ac3 allocates nothing outside the
// instance's make() calls but the one block of the final-state set it
// returns: runtimes, fiber stacks, the walker's nodes, state cache and scan
// scratch all come back from the first walk.
TEST(AllocInvariant, DporWalkAllocatesOnlyInMake) {
  if (!common::alloc_counting_active())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";

  const check::Instance* const inst = check::find_instance("ac3");
  ASSERT_NE(inst, nullptr);
  std::uint64_t in_make = 0;
  const std::function<std::unique_ptr<SimRuntime>()> make = [&] {
    const auto before = common::alloc_counts();
    auto rt = inst->make();
    in_make += (common::alloc_counts() - before).allocs;
    return rt;
  };
  const std::function<void(SimRuntime&)> verify = [](SimRuntime&) {};
  const runtime::FiberStackRecycler scope;
  const check::ExploreResult warm = check::explore_dpor(make, verify, inst->dpor);
  in_make = 0;
  const auto before = common::alloc_counts();
  const check::ExploreResult walk = check::explore_dpor(make, verify, inst->dpor);
  const std::uint64_t allocs = (common::alloc_counts() - before).allocs;
  EXPECT_EQ(allocs - in_make, 1u) << "the walk allocated outside make()";
  EXPECT_EQ(walk.runs, warm.runs);
  EXPECT_EQ(walk.final_states, warm.final_states);
}

// The counters are per thread: a worker's allocations never show up in
// another thread's delta, and the calling thread's own are counted exactly.
// Explicit operator new/delete calls, unlike new-expressions, cannot be
// elided by the optimizer.
TEST(AllocInvariant, CountersArePerThread) {
  if (!common::alloc_counting_active())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";

  constexpr std::uint64_t kAllocs = 1'000;
  constexpr std::size_t kBytes = 24;
  // 0: worker waits, 1: worker allocates, 2: worker done. The worker is
  // started before the window opens: spawning a std::thread allocates on the
  // spawning thread.
  std::atomic<int> phase{0};
  common::AllocCounts worker_delta;
  std::thread worker([&] {
    while (phase.load(std::memory_order_acquire) == 0) std::this_thread::yield();
    const auto before = common::alloc_counts();
    for (std::uint64_t i = 0; i < kAllocs; ++i) ::operator delete(::operator new(kBytes));
    worker_delta = common::alloc_counts() - before;
    phase.store(2, std::memory_order_release);
  });
  const auto before = common::alloc_counts();
  phase.store(1, std::memory_order_release);
  while (phase.load(std::memory_order_acquire) != 2) std::this_thread::yield();
  const auto delta = common::alloc_counts() - before;
  worker.join();
  EXPECT_EQ(delta.allocs, 0u) << "another thread's allocations reached this thread's counts";
  EXPECT_EQ(delta.frees, 0u);
  EXPECT_EQ(delta.bytes, 0u);
  EXPECT_EQ(worker_delta.allocs, kAllocs);
  EXPECT_EQ(worker_delta.frees, kAllocs);

  void* blocks[kAllocs];
  const auto mine_before = common::alloc_counts();
  for (void*& b : blocks) b = ::operator new(kBytes);
  for (void* b : blocks) ::operator delete(b);
  const auto mine = common::alloc_counts() - mine_before;
  EXPECT_EQ(mine.allocs, kAllocs);
  EXPECT_EQ(mine.frees, kAllocs);
  EXPECT_EQ(mine.bytes, kAllocs * kBytes);
}

}  // namespace
}  // namespace mm
