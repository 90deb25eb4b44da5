// E8 — §1/§3 scalability: HBO keeps the shared-memory degree constant as n
// grows; pure shared memory needs degree n−1.
//
// Part A (simulator): crash-free HBO decision cost vs n at fixed degree 4,
// against the degree column a complete-GSM deployment would need. Rounds
// stay O(1) in expectation for crash-free runs; messages grow ~n² per round
// (Ben-Or's broadcast pattern) while per-process GSM connections stay at 4.
//
// Part B (real threads): the same HBO objects under ThreadRuntime, showing
// the algorithm is runtime-agnostic and the wall time at real concurrency.
//
// Part C (simulator): one run at n = 10^6 fiber processes on
// pooled guardless stacks — the fiber-population scale a per-process OS
// thread (or a per-fiber guarded mapping, which costs two VMAs against
// vm.max_map_count) cannot reach. Override n with MM_E8_N.
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench_common.hpp"
#include "common/parse.hpp"
#include "core/hbo.hpp"
#include "core/trial.hpp"
#include "exec/parallel_map.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/thread_runtime.hpp"

namespace {

double thread_hbo_ms(std::size_t n, std::uint64_t seed) {
  using namespace mm;
  Rng rng{n * 77 + seed};
  const std::size_t d = n > 4 ? 4 : n - 1;  // keep n·d even and d < n
  const graph::Graph gsm = graph::random_regular_must(n, d, rng);
  runtime::ThreadRuntime::Config cfg;
  cfg.gsm = gsm;
  cfg.seed = seed;
  runtime::ThreadRuntime rt{cfg};
  std::vector<std::unique_ptr<core::HboConsensus>> algs;
  for (std::uint32_t p = 0; p < n; ++p) {
    core::HboConsensus::Config hc;
    hc.gsm = &gsm;
    algs.push_back(std::make_unique<core::HboConsensus>(hc, p % 2));
    rt.add_process([alg = algs.back().get()](runtime::Env& env) { alg->run(env); });
  }
  bench::WallTimer timer;
  rt.start();
  rt.join_all();
  rt.rethrow_process_error();
  const double ms = timer.ms();
  for (std::size_t p = 1; p < n; ++p) {
    MM_ASSERT_MSG(algs[p]->decision() == algs[0]->decision(), "agreement violated");
  }
  return ms;
}

/// Peak resident set (VmHWM) in MiB, from /proc/self/status; 0 if unreadable.
double vm_hwm_mib() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in{line.substr(6)};
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

/// One token ring over n fiber processes: each sends once to its successor,
/// then drains and steps until stopped. Edgeless GSM (no registers), so the
/// run isolates the pure scheduling + messaging cost at population scale.
int million_fiber_run(std::size_t n) {
  using namespace mm;
  runtime::SimConfig cfg;
  cfg.gsm = graph::edgeless(n);
  cfg.seed = 8;
  cfg.pooled_fiber_stacks = true;
  runtime::SimRuntime rt{cfg};
  for (std::uint32_t p = 0; p < n; ++p) {
    rt.add_process([p, n](runtime::Env& env) {
      runtime::Message m;
      m.kind = 1;
      env.send(Pid{static_cast<std::uint32_t>((p + 1) % n)}, m);
      std::vector<runtime::Message> drained;
      while (!env.stop_requested()) {
        env.drain_inbox(drained);
        env.step();
      }
    });
  }
  bench::WallTimer construct;
  rt.start();
  const double construct_ms = construct.ms();

  const Step steps = static_cast<Step>(n) * 4;  // ~4 activations per process
  bench::WallTimer timer;
  rt.run_steps(steps);
  const double run_ms = timer.ms();

  Table c{{"n", "construct ms", "steps", "steps/sec", "VmHWM MiB"}};
  c.row()
      .cell(n)
      .cell(construct_ms, 0)
      .cell(static_cast<double>(steps), 0)
      .cell(static_cast<double>(steps) / (run_ms / 1'000.0), 0)
      .cell(vm_hwm_mib(), 0);
  c.print();

  // Let every token land: with uniform scheduling a process goes unscheduled
  // for ~n ln n steps in the worst case (coupon collector), so keep running
  // n-step batches until all n sends have been drained by their receivers.
  for (int batch = 0; batch < 64 && rt.metrics().msgs_delivered < n; ++batch)
    rt.run_steps(static_cast<Step>(n));
  if (rt.metrics().msgs_delivered < n) {
    std::printf("!! token ring stalled: %llu of %zu tokens delivered\n",
                static_cast<unsigned long long>(rt.metrics().msgs_delivered), n);
    return 1;
  }
  rt.shutdown();
  return 0;
}

}  // namespace

int main() {
  using namespace mm;
  // Part C's population, read before any part runs: a malformed MM_E8_N
  // stops the bench here, not after Parts A and B.
  std::size_t big_n = 1'000'000;
  try {
    if (const char* env_n = std::getenv("MM_E8_N"))
      big_n = parse_decimal<std::size_t>("MM_E8_N", env_n, 1);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_e8_scalability: %s\n", e.what());
    return 2;
  }
  bench::banner("E8: scalability at fixed shared-memory degree (§1, §3)",
                "Part A: simulator, crash-free HBO at degree 4, 5 seeds per n.\n"
                "Expected shape: GSM degree flat at 4 (vs n-1 for pure SM); rounds O(1);\n"
                "messages grow with n^2 per round (broadcasts), steps near-linearly.");

  Table a{{"n", "GSM deg", "pure-SM deg", "mean rounds", "mean steps", "mean msgs",
           "mean reg ops", "ms"}};
  for (const std::size_t n : {8u, 16u, 32u, 64u, 128u}) {
    bench::WallTimer timer;
    Rng rng{n * 77};
    core::ConsensusTrialConfig cfg;
    cfg.gsm = graph::random_regular_must(n, 4, rng);
    cfg.algo = core::Algo::kHbo;
    cfg.crash_pick = core::CrashPick::kNone;
    cfg.budget = 4'000'000;
    cfg.seed = n;
    RunningStats rounds, steps, msgs, regs;
    const std::uint64_t base_seed = cfg.seed;
    const auto results = exec::parallel_map(5, [&cfg, base_seed](std::uint64_t t) {
      core::ConsensusTrialConfig c = cfg;
      c.seed = base_seed + 1 + t;
      return core::run_consensus_trial(c);
    });
    for (const auto& res : results) {
      if (!res.agreement || !res.validity || !res.all_correct_decided) {
        std::printf("!! n=%zu failed\n", n);
        return 1;
      }
      rounds.add(static_cast<double>(res.max_decided_round));
      steps.add(static_cast<double>(res.steps_used));
      msgs.add(static_cast<double>(res.msgs_sent));
      regs.add(static_cast<double>(res.reg_ops));
    }
    a.row()
        .cell(n)
        .cell(4)
        .cell(n - 1)
        .cell(rounds.mean(), 1)
        .cell(steps.mean(), 0)
        .cell(msgs.mean(), 0)
        .cell(regs.mean(), 0)
        .cell(timer.ms(), 0);
  }
  a.print();

  std::printf("\nPart B: same algorithm under real threads (ThreadRuntime)\n");
  Table b{{"n", "wall ms (threads)"}};
  for (const std::size_t n : {4u, 8u, 16u}) {
    RunningStats ms;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) ms.add(thread_hbo_ms(n, seed));
    b.row().cell(n).cell(ms.mean(), 1);
  }
  b.print();

  std::printf("\nPart C: one run at n=%zu fiber processes (pooled 32 KiB\n"
              "guardless stacks; override n with MM_E8_N)\n",
              big_n);
  return million_fiber_run(big_n);
}
