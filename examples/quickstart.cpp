// Quickstart: run Hybrid Ben-Or consensus on an 8-process m&m system whose
// shared-memory graph is a degree-3 chordal ring, with 4 of 8 processes
// crashing — more than any pure message-passing algorithm could survive.
//
//   $ ./quickstart [seed]
//
// Walks through the public API: build a GSM, configure the deterministic
// runtime, attach one HboConsensus per process, run, inspect decisions.
#include <cstdio>
#include <memory>
#include <vector>

#include "common/parse.hpp"
#include "core/hbo.hpp"
#include "graph/expansion.hpp"
#include "graph/generators.hpp"
#include "runtime/sim_runtime.hpp"

int main(int argc, char** argv) {
  const std::uint64_t seed = mm::positional_decimal(argc, argv, 1, "seed", std::uint64_t{1});

  // 1. The shared-memory graph: every process shares registers with its
  //    GSM neighbors only (degree 3 here — this is what scales, §3).
  const mm::graph::Graph gsm = mm::graph::chordal_ring(8);
  const auto expansion = mm::graph::vertex_expansion_exact(gsm);
  std::printf("GSM: %s  h(G)=%.3f\n", gsm.summary().c_str(), expansion.h);
  std::printf("Theorem 4.3 bound: tolerates f <= %zu of n=8 (pure MP caps at 3)\n",
              mm::graph::hbo_f_bound(8, expansion.h));
  std::printf("exact worst-case tolerance f* = %zu\n\n", mm::graph::hbo_f_exact(gsm));

  // 2. A deterministic m&m runtime: reliable asynchronous links + the GSM.
  //    Crash processes 1, 3, 5, 6 at step 0 — half the system.
  mm::runtime::SimConfig sim;
  sim.gsm = gsm;
  sim.seed = seed;
  sim.crash_at.assign(8, std::nullopt);
  for (std::uint32_t victim : {1u, 3u, 5u, 6u}) sim.crash_at[victim] = 0;
  mm::runtime::SimRuntime rt{std::move(sim)};

  // 3. One HBO instance per process; inputs alternate 0/1.
  std::vector<std::unique_ptr<mm::core::HboConsensus>> algs;
  for (std::uint32_t p = 0; p < 8; ++p) {
    mm::core::HboConsensus::Config hc;
    hc.gsm = &gsm;
    algs.push_back(std::make_unique<mm::core::HboConsensus>(hc, p % 2));
    rt.add_process([alg = algs.back().get()](mm::runtime::Env& env) { alg->run(env); });
  }

  // 4. Run to completion and report.
  const bool done = rt.run_until_all_done(2'000'000);
  rt.shutdown();
  rt.rethrow_process_error();

  std::printf("run %s after %llu steps; %llu messages, %llu register ops\n",
              done ? "completed" : "hit budget",
              static_cast<unsigned long long>(rt.now()),
              static_cast<unsigned long long>(rt.metrics().msgs_sent),
              static_cast<unsigned long long>(rt.metrics().reg_reads +
                                              rt.metrics().reg_writes +
                                              rt.metrics().reg_cas_ops));
  for (std::uint32_t p = 0; p < 8; ++p) {
    if (rt.crashed(mm::Pid{p})) {
      std::printf("  p%u: crashed (input %u)\n", p, algs[p]->initial_value());
    } else {
      std::printf("  p%u: decided %d in round %llu (input %u)\n", p, algs[p]->decision(),
                  static_cast<unsigned long long>(algs[p]->decided_round()),
                  algs[p]->initial_value());
    }
  }
  return done ? 0 : 1;
}
