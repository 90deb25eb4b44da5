// Micro-benchmarks (google-benchmark): primitive costs of the substrate —
// simulator scheduling steps, register operations,
// adopt-commit and consensus-object proposals, and a small end-to-end HBO.
// These are the constants behind the experiment tables' wall-clock columns.
//
// In addition to the google-benchmark suite, main() measures the null-loop
// scheduler steps/sec, fiber handoffs/sec, allocations per step and the
// 2048-process ring's tracing overhead, and writes them to
// BENCH_runtime.json (override the path with MM_BENCH_JSON; MM_BENCH_QUICK=1
// shrinks the workload for smoke runs) so the perf trajectory is tracked
// across changes. Trials/sec through the parallel engine is perfbench's
// `sweep` workload.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_count.hpp"
#include "common/slab.hpp"
#include "core/hbo.hpp"
#include "core/tags.hpp"
#include "graph/expansion.hpp"
#include "graph/generators.hpp"
#include "runtime/fiber.hpp"
#include "runtime/sim_runtime.hpp"
#include "shm/adopt_commit.hpp"
#include "shm/consensus_object.hpp"

namespace {

using namespace mm;

// One scheduler handoff round-trip: the simulator's unit cost.
void BM_SimStep(benchmark::State& state) {
  runtime::SimConfig cfg;
  cfg.gsm = graph::complete(1);
  runtime::SimRuntime rt{cfg};
  rt.add_process([](runtime::Env& env) {
    for (;;) env.step();
  });
  rt.start();
  for (auto _ : state) rt.run_steps(1);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimStep);

// Raw fiber resume/yield round-trip, no scheduler at all: the floor the
// simulator's step cost sits on.
void BM_FiberHandoff(benchmark::State& state) {
  bool stop = false;
  runtime::Fiber fiber{[&] {
    while (!stop) fiber.yield();
  }};
  for (auto _ : state) fiber.resume();
  stop = true;
  while (!fiber.done()) fiber.resume();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FiberHandoff);

// Register write through the simulator (includes the auto-step handoff).
void BM_SimRegisterWrite(benchmark::State& state) {
  runtime::SimConfig cfg;
  cfg.gsm = graph::complete(1);
  runtime::SimRuntime rt{cfg};
  rt.add_process([](runtime::Env& env) {
    const RegId r = env.reg(runtime::RegKey::make(core::kTagState, Pid{0}));
    for (std::uint64_t i = 0;; ++i) env.write(r, i);
  });
  rt.start();
  for (auto _ : state) rt.run_steps(1);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimRegisterWrite);

// Adopt-commit propose, solo proposer (the fast path HBO hits every round).
void BM_AdoptCommitPropose(benchmark::State& state) {
  runtime::SimConfig cfg;
  cfg.gsm = graph::complete(1);
  runtime::SimRuntime rt{cfg};
  rt.set_auto_step_on_shm(false);
  std::uint64_t round = 0;
  rt.add_process([&round](runtime::Env& env) {
    for (;; ++round) {
      const shm::AdoptCommit ac{runtime::RegKey::make(0x21, Pid{0}, round), 2};
      benchmark::DoNotOptimize(ac.propose(env, 1));
      env.step();
    }
  });
  rt.start();
  for (auto _ : state) rt.run_steps(1);
  state.SetItemsProcessed(static_cast<std::int64_t>(round));
}
BENCHMARK(BM_AdoptCommitPropose);

// Consensus-object propose by implementation.
void BM_ConsensusPropose(benchmark::State& state) {
  const auto impl = static_cast<shm::ConsensusImpl>(state.range(0));
  runtime::SimConfig cfg;
  cfg.gsm = graph::complete(1);
  runtime::SimRuntime rt{cfg};
  rt.set_auto_step_on_shm(false);
  std::uint64_t round = 0;
  rt.add_process([&round, impl](runtime::Env& env) {
    for (;; ++round) {
      const shm::ConsensusObject obj{runtime::RegKey::make(0x22, Pid{0}, round % (1 << 20)),
                                     2, impl};
      benchmark::DoNotOptimize(obj.propose(env, 1));
      env.step();
    }
  });
  rt.start();
  for (auto _ : state) rt.run_steps(1);
  state.SetItemsProcessed(static_cast<std::int64_t>(round));
  state.SetLabel(shm::to_string(impl));
}
BENCHMARK(BM_ConsensusPropose)->Arg(0)->Arg(1);

// End-to-end crash-free HBO on a degree-3 expander, per full consensus.
void BM_HboEndToEnd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng{n * 13 + seed};
    const graph::Graph gsm =
        (n * 3) % 2 == 0 ? graph::random_regular_must(n, 3, rng) : graph::chordal_ring(n);
    runtime::SimConfig cfg;
    cfg.gsm = gsm;
    cfg.seed = ++seed;
    runtime::SimRuntime rt{std::move(cfg)};
    std::vector<std::unique_ptr<core::HboConsensus>> algs;
    for (std::uint32_t p = 0; p < n; ++p) {
      core::HboConsensus::Config hc;
      hc.gsm = &gsm;
      algs.push_back(std::make_unique<core::HboConsensus>(hc, p % 2));
      rt.add_process([alg = algs.back().get()](runtime::Env& env) { alg->run(env); });
    }
    const bool ok = rt.run_until_all_done(4'000'000);
    rt.shutdown();
    if (!ok) state.SkipWithError("budget exhausted");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HboEndToEnd)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

// Exact expansion enumeration cost by n (the analysis-side budget).
void BM_ExactExpansion(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng{n};
  const graph::Graph g = graph::random_regular_must(n, 4, rng);
  for (auto _ : state) benchmark::DoNotOptimize(graph::vertex_expansion_exact(g));
}
BENCHMARK(BM_ExactExpansion)->Arg(12)->Arg(16)->Arg(20)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BENCH_runtime.json: the tracked throughput record.
// ---------------------------------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// One scheduler handoff round-trip, measured over k steps.
double measure_steps_per_sec(Step steps) {
  runtime::SimConfig cfg;
  cfg.gsm = graph::complete(1);
  runtime::SimRuntime rt{cfg};
  rt.add_process([](runtime::Env& env) {
    for (;;) env.step();
  });
  rt.start();
  rt.run_steps(1'000);  // warm up
  const auto start = std::chrono::steady_clock::now();
  rt.run_steps(steps);
  return static_cast<double>(steps) / seconds_since(start);
}

// Raw fiber resume/yield pairs per second (no scheduler logic at all).
double measure_handoffs_per_sec(std::uint64_t handoffs) {
  bool stop = false;
  runtime::Fiber fiber{[&] {
    while (!stop) fiber.yield();
  }};
  for (std::uint64_t i = 0; i < 1'000; ++i) fiber.resume();  // warm up
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < handoffs; ++i) fiber.resume();
  const double rate = static_cast<double>(handoffs) / seconds_since(start);
  stop = true;
  while (!fiber.done()) fiber.resume();
  return rate;
}

// Heap traffic per steady-state step on a messaging workload (a 4-process
// ring exchanging spilled 9-tuple payloads every step — the same shape the
// AllocInvariant test pins to zero). Returns {allocs_per_step,
// bytes_per_step}; {0, 0} when the counting operators are compiled out.
struct AllocRates {
  double allocs_per_step = 0.0;
  double bytes_per_step = 0.0;
};

AllocRates measure_alloc_rates(Step steps) {
  if (!common::alloc_counting_active()) return {};
  runtime::SimConfig cfg;
  cfg.gsm = graph::complete(4);
  cfg.seed = 2026;
  runtime::SimRuntime rt{cfg};
  for (std::uint32_t p = 0; p < 4; ++p) {
    rt.add_process([p](runtime::Env& env) {
      std::vector<runtime::Message> drained;
      drained.reserve(64);  // past any starvation-stretch drain batch
      runtime::Message m;
      m.kind = 7;
      for (std::uint32_t i = 0; i < runtime::TupleVec::kInline + 1; ++i)
        m.tuples.push_back(runtime::RepTuple{Pid{i % 4}, i});
      for (;;) {
        m.round = env.now();
        env.send(Pid{(p + 1) % 4}, m);
        env.drain_inbox(drained);
        env.step();
      }
    });
  }
  rt.run_steps(20'000);  // warm up scratch vectors and pending queues
  {
    // Deepen the slab free list past any in-flight high-water mark (pool
    // depth is warmup state; see tests/test_memory_layout.cpp).
    common::SlabPool& pool = common::SlabPool::local();
    constexpr int kDepth = 256;
    void* blocks[kDepth];
    std::size_t granted[kDepth];
    for (int i = 0; i < kDepth; ++i) {
      granted[i] = (runtime::TupleVec::kInline + 1) * sizeof(runtime::RepTuple);
      blocks[i] = pool.acquire(granted[i]);
    }
    for (int i = 0; i < kDepth; ++i) pool.release(blocks[i], granted[i]);
  }
  const auto before = common::alloc_counts();
  rt.run_steps(steps);
  const auto delta = common::alloc_counts() - before;
  return {static_cast<double>(delta.allocs) / static_cast<double>(steps),
          static_cast<double>(delta.bytes) / static_cast<double>(steps)};
}

// ---------------------------------------------------------------------------
// Observability tax (schema 6).
// ---------------------------------------------------------------------------

struct RingRates {
  double untraced = 0.0;
  double traced = 0.0;
};

// Steps/sec of a 2048-process ring on pooled stacks with a fixed 64-step
// link delay, untraced and traced: every slice sends one message and drains
// whatever is due, so an armed trace ring and the sim-time histograms see
// traffic on every step. One runtime alternates untraced chunks with
// chunks that arm the event ring and the histograms — the exact
// configuration tools/trace runs with — so both sides run on the same
// memory and the same stretch of machine load. Arming only observes, so
// the trajectory is the one an untraced run takes.
RingRates measure_tracing_tax(Step steps) {
  constexpr std::uint32_t kProcs = 2048;
  constexpr int kRounds = 10;
  runtime::SimConfig cfg;
  cfg.gsm = graph::Graph{kProcs};
  cfg.seed = 77;
  cfg.min_delay = 64;
  cfg.max_delay = 64;
  cfg.pooled_fiber_stacks = true;
  runtime::SimRuntime rt{cfg};
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    rt.add_process([p](runtime::Env& env) {
      std::vector<runtime::Message> drained;
      drained.reserve(16);
      runtime::Message m;
      m.kind = 1;
      for (;;) {
        m.value = env.now();
        env.send(Pid{(p + 1) % kProcs}, m);
        env.drain_inbox(drained);
        env.step();
      }
    });
  }
  rt.start();
  rt.run_steps(steps / 10);  // warm up (stacks committed, heaps sized)
  const Step chunk = steps / kRounds;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  for (int i = 0; i < kRounds; ++i) {
    auto start = std::chrono::steady_clock::now();
    rt.run_steps(chunk);
    untraced_s += seconds_since(start);
    rt.enable_trace(65'536);
    rt.set_observability(true);
    start = std::chrono::steady_clock::now();
    rt.run_steps(chunk);
    traced_s += seconds_since(start);
    rt.enable_trace(0);
    rt.set_observability(false);
  }
  const auto total = static_cast<double>(chunk * kRounds);
  return {total / untraced_s, total / traced_s};
}

int write_bench_runtime_json() {
  const bool quick = std::getenv("MM_BENCH_QUICK") != nullptr;
  const char* path_env = std::getenv("MM_BENCH_JSON");
  const std::string path = path_env != nullptr ? path_env : "BENCH_runtime.json";
  const Step step_count = quick ? 100'000 : 1'000'000;

  // The null-loop step rate sits on the raw fiber handoff floor.
  const double steps_per_sec = measure_steps_per_sec(step_count);
  const double handoffs_per_sec = measure_handoffs_per_sec(quick ? 200'000 : 2'000'000);
  const AllocRates alloc_rates = measure_alloc_rates(quick ? 50'000 : 500'000);

  // The observability tax: the same ring run untraced and with the event
  // ring + sim-time histograms armed.
  const RingRates ring = measure_tracing_tax(quick ? 200'000 : 2'000'000);
  const double tracing_overhead_pct = 100.0 * (ring.untraced / ring.traced - 1.0);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"schema\": 8,\n"
               "  \"quick\": %s,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"sim_steps_per_sec\": %.1f,\n"
               "  \"handoffs_per_sec\": %.1f,\n"
               "  \"sim_steps_per_sec_ring\": %.1f,\n"
               "  \"sim_steps_per_sec_ring_traced\": %.1f,\n"
               "  \"tracing_overhead_pct\": %.2f,\n"
               "  \"alloc_counting_active\": %s,\n"
               "  \"allocs_per_step\": %.6f,\n"
               "  \"bytes_per_step\": %.4f\n"
               "}\n",
               quick ? "true" : "false", std::thread::hardware_concurrency(), steps_per_sec,
               handoffs_per_sec, ring.untraced, ring.traced, tracing_overhead_pct,
               common::alloc_counting_active() ? "true" : "false", alloc_rates.allocs_per_step,
               alloc_rates.bytes_per_step);
  std::fclose(f);
  std::printf("\nBENCH_runtime.json -> %s\n", path.c_str());
  std::printf("  sim steps/sec      : %.0f\n", steps_per_sec);
  std::printf("  fiber handoffs/sec : %.0f\n", handoffs_per_sec);
  std::printf("  2048-proc ring     : %.0f steps/sec untraced, %.0f traced (overhead %.1f%%)\n",
              ring.untraced, ring.traced, tracing_overhead_pct);
  std::printf("  allocs/step        : %.6f (%.2f bytes/step%s)\n", alloc_rates.allocs_per_step,
              alloc_rates.bytes_per_step,
              common::alloc_counting_active() ? "" : "; counting inactive");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_bench_runtime_json();
}
