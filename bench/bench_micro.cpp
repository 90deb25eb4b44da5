// Micro-benchmarks: the per-layer costs of the substrate, written to
// BENCH_runtime.json (schema 9; MM_BENCH_JSON overrides the path, and
// MM_BENCH_QUICK=1 shrinks the workloads for smoke runs). It takes no
// arguments. Each rate is the median, min and max of kRepeats timed repeats
// (kQuickRepeats when quick), taken round-robin so every rung sees the same
// stretch of machine load: L0 fiber handoffs, L1 null-loop scheduler steps,
// L2 one Env operation per slice, and solo adopt-commit and consensus-object
// proposes. Beside them: the 2048-process ring's tracing tax and the exact
// heap traffic per steady-state step. Trials are perfbench `sweep`'s to time,
// and graph analysis bench_e10_expansion's `ms` column.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/alloc_count.hpp"
#include "common/slab.hpp"
#include "core/tags.hpp"
#include "graph/generators.hpp"
#include "runtime/fiber.hpp"
#include "runtime/sim_runtime.hpp"
#include "shm/adopt_commit.hpp"
#include "shm/consensus_object.hpp"

namespace {

using namespace mm;
using runtime::Env;

constexpr int kRepeats = 5;
constexpr int kQuickRepeats = 3;
/// Proposes per object-rung repeat, in both modes: every propose names fresh
/// registers, so its cost grows with the register table, and a quick run
/// must time the same table to read the same rung.
constexpr Step kProposes = 100'000;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const double median =
      n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  return {median, samples.front(), samples.back()};
}

// L0: raw fiber resume/yield pairs per second — the floor the simulator's
// step cost sits on.
double handoffs_per_sec(std::uint64_t handoffs) {
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

/// Steps per second of one process on complete(1) running `body`, timed over
/// `steps` scheduler steps after a warm-up. L1's body only steps.
double steps_per_sec(Step steps, std::function<void(Env&)> body, bool auto_step_on_shm = true) {
  runtime::SimConfig cfg;
  cfg.gsm = graph::complete(1);
  runtime::SimRuntime rt{cfg};
  rt.set_auto_step_on_shm(auto_step_on_shm);
  rt.add_process(std::move(body));
  rt.start();
  rt.run_steps(1'000);  // warm up
  const auto start = std::chrono::steady_clock::now();
  rt.run_steps(steps);
  return static_cast<double>(steps) / seconds_since(start);
}

enum class EnvOp { kSendDrain, kRead, kWrite, kCas };

// L2: one Env operation per slice, by a process that does nothing else.
// read, write and cas yield in their own auto-step, and send+drain ends its
// slice with env.step(), so each step is one operation plus one handoff:
// L1's step cost is the handoff's share.
double env_ops_per_sec(Step steps, EnvOp op) {
  return steps_per_sec(steps, [op](Env& env) {
    const RegId r = env.reg(runtime::RegKey::make(core::kTagState, Pid{0}));
    std::vector<runtime::Message> drained;
    runtime::Message m;
    for (std::uint64_t i = 0;; ++i) {
      switch (op) {
        case EnvOp::kSendDrain:
          m.value = i;
          env.send(Pid{0}, m);
          env.drain_inbox(drained);
          env.step();
          break;
        case EnvOp::kRead: (void)env.read(r); break;
        case EnvOp::kWrite: env.write(r, i); break;
        case EnvOp::kCas: (void)env.cas(r, i, i + 1); break;
      }
    }
  });
}

// Objects: one solo propose per slice with auto-step off, each on a fresh
// object, so every propose also names its registers, as a new round does.
template <class Propose>
double proposes_per_sec(Propose propose) {
  return steps_per_sec(
      kProposes,
      [propose](Env& env) {
        for (std::uint64_t round = 0;; ++round) {
          propose(env, round);
          env.step();
        }
      },
      /*auto_step_on_shm=*/false);
}

double consensus_proposes_per_sec(shm::ConsensusImpl impl) {
  return proposes_per_sec([impl](Env& env, std::uint64_t round) {
    // ConsensusObject wants base.round() < 2^24.
    const shm::ConsensusObject obj{runtime::RegKey::make(0x22, Pid{0}, round % (1 << 20)), 2,
                                   impl};
    (void)obj.propose(env, 1);
  });
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
    rt.add_process([p](Env& env) {
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
// Observability tax.
// ---------------------------------------------------------------------------

constexpr int kRingRounds = 10;

struct RingRates {
  std::vector<double> untraced;  ///< steps/sec, one per round
  std::vector<double> traced;
};

// Steps/sec of a 2048-process ring on pooled stacks with a fixed 64-step
// link delay, untraced and traced: every slice sends one message and drains
// whatever is due, so an armed trace ring and the sim-time histograms see
// traffic on every step. One runtime alternates untraced chunks with chunks
// under enable_trace — the configuration tools/trace runs with — so both
// sides run on the same memory and the same stretch of machine load. Arming
// only observes, so the trajectory is the one an untraced run takes.
RingRates measure_tracing_tax(Step steps) {
  constexpr std::uint32_t kProcs = 2048;
  runtime::SimConfig cfg;
  cfg.gsm = graph::Graph{kProcs};
  cfg.seed = 77;
  cfg.min_delay = 64;
  cfg.max_delay = 64;
  cfg.pooled_fiber_stacks = true;
  runtime::SimRuntime rt{cfg};
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    rt.add_process([p](Env& env) {
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
  const Step chunk = steps / kRingRounds;
  const auto rate = [&rt, chunk] {
    const auto start = std::chrono::steady_clock::now();
    rt.run_steps(chunk);
    return static_cast<double>(chunk) / seconds_since(start);
  };
  RingRates out;
  for (int i = 0; i < kRingRounds; ++i) {
    out.untraced.push_back(rate());
    rt.enable_trace(65'536);
    out.traced.push_back(rate());
    rt.enable_trace(0);
  }
  return out;
}

// ---------------------------------------------------------------------------
// BENCH_runtime.json: the tracked record.
// ---------------------------------------------------------------------------

int write_bench_runtime_json() {
  const bool quick = std::getenv("MM_BENCH_QUICK") != nullptr;
  const char* path_env = std::getenv("MM_BENCH_JSON");
  const std::string path = path_env != nullptr ? path_env : "BENCH_runtime.json";
  const int repeats = quick ? kQuickRepeats : kRepeats;
  const Step steps = quick ? 100'000 : 1'000'000;

  const std::pair<const char*, std::function<double()>> rungs[] = {
      {"handoffs_per_sec", [steps] { return handoffs_per_sec(2 * steps); }},
      {"sim_steps_per_sec",
       [steps] {
         return steps_per_sec(steps, [](Env& env) {
           for (;;) env.step();
         });
       }},
      {"sim_send_drains_per_sec", [steps] { return env_ops_per_sec(steps, EnvOp::kSendDrain); }},
      {"sim_reads_per_sec", [steps] { return env_ops_per_sec(steps, EnvOp::kRead); }},
      {"sim_writes_per_sec", [steps] { return env_ops_per_sec(steps, EnvOp::kWrite); }},
      {"sim_cas_per_sec", [steps] { return env_ops_per_sec(steps, EnvOp::kCas); }},
      {"adopt_commit_proposes_per_sec",
       [] {
         return proposes_per_sec([](Env& env, std::uint64_t round) {
           const shm::AdoptCommit ac{runtime::RegKey::make(0x21, Pid{0}, round), 2};
           (void)ac.propose(env, 1);
         });
       }},
      {"cas_consensus_proposes_per_sec",
       [] { return consensus_proposes_per_sec(shm::ConsensusImpl::kCas); }},
      {"rw_consensus_proposes_per_sec",
       [] { return consensus_proposes_per_sec(shm::ConsensusImpl::kRw); }},
  };
  // Every rate of the record, (key, samples), in record order.
  std::vector<std::pair<const char*, std::vector<double>>> rates;
  for (const auto& rung : rungs) rates.push_back({rung.first, {}});
  for (int rep = 0; rep < repeats; ++rep)
    for (std::size_t i = 0; i < std::size(rungs); ++i)
      rates[i].second.push_back(rungs[i].second());
  RingRates ring = measure_tracing_tax(quick ? 200'000 : 2'000'000);
  const double tracing_overhead_pct =
      100.0 * (spread_of(ring.untraced).median / spread_of(ring.traced).median - 1.0);
  rates.push_back({"sim_steps_per_sec_ring", std::move(ring.untraced)});
  rates.push_back({"sim_steps_per_sec_ring_traced", std::move(ring.traced)});
  const AllocRates alloc_rates = measure_alloc_rates(quick ? 50'000 : 500'000);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": 9,\n  \"quick\": %s,\n  \"hardware_concurrency\": %u,\n",
               quick ? "true" : "false", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"repeats\": %d,\n  \"ring_rounds\": %d,\n", repeats, kRingRounds);
  std::printf("BENCH_runtime.json -> %s (%d repeats; ring: %d rounds)\n", path.c_str(), repeats,
              kRingRounds);
  for (const auto& [key, samples] : rates) {
    const Spread s = spread_of(samples);
    std::fprintf(f, "  \"%s\": {\"median\": %.1f, \"min\": %.1f, \"max\": %.1f},\n", key,
                 s.median, s.min, s.max);
    std::printf("  %-30s %8.3fM/s  [%7.3fM, %7.3fM]  %7.1f ns\n", key, s.median / 1e6,
                s.min / 1e6, s.max / 1e6, 1e9 / s.median);
  }
  std::fprintf(f,
               "  \"tracing_overhead_pct\": %.2f,\n"
               "  \"alloc_counting_active\": %s,\n"
               "  \"allocs_per_step\": %.6f,\n"
               "  \"bytes_per_step\": %.4f\n"
               "}\n",
               tracing_overhead_pct, common::alloc_counting_active() ? "true" : "false",
               alloc_rates.allocs_per_step, alloc_rates.bytes_per_step);
  std::fclose(f);
  std::printf("  tracing overhead (medians)     %.1f%%\n", tracing_overhead_pct);
  std::printf("  allocs/step                    %.6f (%.2f bytes/step%s)\n",
              alloc_rates.allocs_per_step, alloc_rates.bytes_per_step,
              common::alloc_counting_active() ? "" : "; counting inactive");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr,
                 "%s: takes no arguments, got '%s' (MM_BENCH_QUICK and MM_BENCH_JSON are its "
                 "settings)\n",
                 argv[0], argv[1]);
    return 2;
  }
  return write_bench_runtime_json();
}
