// mmlab — a command-line laboratory for the m&m model.
//
// Runs any of the repository's experiments with custom parameters, so a
// reader can poke at the model without writing code:
//
//   mmlab consensus --algo hbo --topology rreg --n 16 --d 4 --f 9
//         --crash worst --seeds 20
//   mmlab omega --algo mnm-fairlossy --n 8 --drop 0.5 --crash-leader 30000
//   mmlab graph --topology chordal --n 16
//   mmlab trace --n 4 --f 1 --steps 60
//
// Subcommands:
//   consensus  seeded termination/safety sweep for hbo | ben-or | sm
//   omega      leader-election stabilization + steady-state profile
//   graph      expansion/tolerance analysis of a topology
//   trace      tiny annotated HBO run with the event trace printed
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>

#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/hbo.hpp"
#include "core/trial.hpp"
#include "graph/expansion.hpp"
#include "graph/generators.hpp"
#include "graph/smcut.hpp"
#include "runtime/sim_runtime.hpp"

namespace {

using namespace mm;

/// `--flag value` pairs. Every accessor checks its value strictly: a
/// malformed one throws std::invalid_argument naming the flag, which main()
/// reports with exit status 2.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "mmlab: expected --flag value, got '%s'\n", argv[i]);
        std::exit(2);
      }
      if (i + 1 == argc) {
        std::fprintf(stderr, "mmlab: missing value for %s\n", argv[i]);
        std::exit(2);
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
  }

  [[nodiscard]] std::string str(const std::string& key, const std::string& dflt) const {
    const auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }
  [[nodiscard]] std::uint64_t num(const std::string& key, std::uint64_t dflt,
                                  std::uint64_t min = 0) const {
    const auto it = values_.find(key);
    return it == values_.end() ? dflt : parse_decimal("--" + key, it->second, min);
  }
  [[nodiscard]] double real(const std::string& key, double dflt) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return dflt;
    const std::string& text = it->second;
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc{} || ptr != text.data() + text.size() || !std::isfinite(v))
      throw std::invalid_argument{"--" + key + " wants a decimal number, got '" + text + "'"};
    return v;
  }

 private:
  std::map<std::string, std::string> values_;
};

graph::Graph make_topology(const std::string& name, std::size_t n, std::size_t d,
                           std::uint64_t seed) {
  if (name == "edgeless") return graph::edgeless(n);
  if (name == "ring") return graph::ring(n);
  if (name == "chordal") return graph::chordal_ring(n);
  if (name == "complete") return graph::complete(n);
  if (name == "star") return graph::star(n);
  if (name == "hypercube") {
    std::size_t dim = 0;
    while ((1ULL << (dim + 1)) <= n) ++dim;
    return graph::hypercube(dim);
  }
  if (name == "gabber-galil" || name == "gg") {
    std::size_t m = 2;
    while (m * m < n) ++m;
    return graph::gabber_galil(m);
  }
  if (name == "barbell") return graph::barbell_path(n / 2 > 1 ? n / 2 - 1 : 2, 2);
  if (name == "rreg") {
    Rng rng{seed * 131 + n * 17 + d};
    return graph::random_regular_must(n, d, rng);
  }
  std::fprintf(stderr, "mmlab: unknown topology '%s'\n", name.c_str());
  std::exit(2);
}

int cmd_consensus(const Args& args) {
  const std::size_t n = args.num("n", 16);
  const std::size_t d = args.num("d", 4);
  const std::uint64_t seed = args.num("seed", 1);
  const std::string algo_name = args.str("algo", "hbo");
  const std::string topology = args.str("topology", "rreg");
  const std::string crash = args.str("crash", "worst");
  const std::uint64_t seeds = args.num("seeds", 10, 1);

  core::ConsensusTrialConfig cfg;
  cfg.gsm = make_topology(topology, n, d, seed);
  cfg.algo = algo_name == "ben-or" ? core::Algo::kBenOr
             : algo_name == "sm"   ? core::Algo::kSmConsensus
                                   : core::Algo::kHbo;
  cfg.impl = args.str("impl", "cas") == "rw" ? shm::ConsensusImpl::kRw
                                             : shm::ConsensusImpl::kCas;
  cfg.f = args.num("f", 0);
  cfg.crash_pick = crash == "none"     ? core::CrashPick::kNone
                   : crash == "random" ? core::CrashPick::kRandom
                                       : core::CrashPick::kWorstCase;
  cfg.crash_window = args.num("crash-window", 0);
  cfg.budget = args.num("budget", 4'000'000);
  cfg.max_rounds = args.num("max-rounds", 100'000);
  cfg.seed = seed;

  std::printf("GSM %s  (h=%.3f  f_thm=%zu  f*=%zu  f_imp=%zu)\n", cfg.gsm.summary().c_str(),
              graph::vertex_expansion_exact(cfg.gsm).h,
              graph::hbo_f_bound(n, graph::vertex_expansion_exact(cfg.gsm).h),
              graph::hbo_f_exact(cfg.gsm), graph::impossibility_f_threshold(cfg.gsm));

  const auto sweep = core::sweep_termination(cfg, seeds);
  Table t{{"algo", "f", "crash", "termination", "mean rounds", "mean steps",
           "safety violations"}};
  t.row()
      .cell(core::to_string(cfg.algo))
      .cell(cfg.f)
      .cell(crash)
      .cell(sweep.termination_rate, 2)
      .cell(sweep.mean_decided_round, 1)
      .cell(sweep.mean_steps, 0)
      .cell(sweep.safety_violations);
  t.print();
  return sweep.safety_violations == 0 ? 0 : 1;
}

int cmd_omega(const Args& args) {
  core::OmegaTrialConfig cfg;
  cfg.n = args.num("n", 8);
  cfg.seed = args.num("seed", 1);
  const std::string algo = args.str("algo", "mnm-reliable");
  cfg.algo = algo == "mnm-fairlossy" ? core::OmegaAlgo::kMnmFairLossy
             : algo == "mp"          ? core::OmegaAlgo::kMessagePassing
                                     : core::OmegaAlgo::kMnmReliable;
  cfg.drop_prob = args.real("drop", 0.3);
  cfg.min_delay = args.num("min-delay", 1);
  cfg.max_delay = args.num("max-delay", 8);
  cfg.crash_leader_at = args.num("crash-leader", 0);
  cfg.budget = args.num("budget", 2'000'000);

  const auto res = core::run_omega_trial(cfg);
  Table t{{"algo", "stabilized", "leader", "stabilize step", "failover steps", "msgs/1k",
           "leader wr/1k", "leader rd/1k", "others rd/1k"}};
  t.row()
      .cell(core::to_string(cfg.algo))
      .cell(res.stabilized)
      .cell(to_string(res.final_leader))
      .cell(static_cast<std::uint64_t>(res.stabilization_step))
      .cell(static_cast<std::uint64_t>(res.failover_step))
      .cell(res.steady_msgs_per_1k, 2)
      .cell(res.leader_writes_per_1k, 2)
      .cell(res.leader_reads_per_1k, 2)
      .cell(res.others_reads_per_1k, 2);
  t.print();
  return res.stabilized ? 0 : 1;
}

int cmd_graph(const Args& args) {
  const std::size_t n = args.num("n", 16);
  const std::size_t d = args.num("d", 4);
  const graph::Graph g =
      make_topology(args.str("topology", "rreg"), n, d, args.num("seed", 1));
  std::printf("%s\n", g.summary().c_str());
  Table t{{"metric", "value"}};
  if (g.size() <= graph::kExactExpansionMaxN) {
    t.row().cell("h(G) exact").cell(graph::vertex_expansion_exact(g).h, 4);
    t.row().cell("f* exact").cell(graph::hbo_f_exact(g));
    t.row().cell("f_imp (Thm 4.4)").cell(graph::impossibility_f_threshold(g));
    t.row().cell("f_thm (Thm 4.3)").cell(
        graph::hbo_f_bound(g.size(), graph::vertex_expansion_exact(g).h));
  }
  t.row().cell("spectral gap (lazy)").cell(graph::lazy_walk_spectral_gap(g), 4);
  t.row().cell("h(G) spectral LB").cell(graph::vertex_expansion_spectral_lower_bound(g), 4);
  t.row().cell("MP tolerance").cell((g.size() - 1) / 2);
  t.print();
  return 0;
}

int cmd_trace(const Args& args) {
  const std::size_t n = args.num("n", 4);
  const graph::Graph gsm = graph::complete(n);
  runtime::SimConfig sim;
  sim.gsm = gsm;
  sim.seed = args.num("seed", 1);
  const std::size_t f = args.num("f", 1);
  const std::size_t steps = args.num("steps", 60);
  sim.crash_at.assign(n, std::nullopt);
  for (std::size_t p = 0; p < f && p < n - 1; ++p) sim.crash_at[n - 1 - p] = 0;
  runtime::SimRuntime rt{std::move(sim)};
  rt.enable_trace(100'000);

  std::vector<std::unique_ptr<core::HboConsensus>> algs;
  for (std::uint32_t p = 0; p < n; ++p) {
    core::HboConsensus::Config hc;
    hc.gsm = &gsm;
    algs.push_back(std::make_unique<core::HboConsensus>(hc, p % 2));
    rt.add_process([alg = algs.back().get()](runtime::Env& env) { alg->run(env); });
  }
  rt.run_until_all_done(2'000'000);
  rt.shutdown();
  rt.rethrow_process_error();
  std::printf("%s", rt.dump_trace(steps).c_str());
  std::printf("\ndecisions:");
  for (std::uint32_t p = 0; p < n; ++p) std::printf(" p%u=%d", p, algs[p]->decision());
  std::printf("\n");
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: mmlab <consensus|omega|graph|trace> [--flag value]...\n"
               "  consensus: --algo hbo|ben-or|sm --topology T --n N --d D --f F\n"
               "             --crash none|random|worst --seeds S --impl cas|rw\n"
               "  omega:     --algo mnm-reliable|mnm-fairlossy|mp --n N --drop P\n"
               "             --max-delay D --crash-leader STEP\n"
               "  graph:     --topology T --n N --d D\n"
               "  trace:     --n N --f F --steps K\n"
               "  topologies: edgeless ring chordal complete star hypercube gg rreg barbell\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args{argc, argv, 2};
  try {
    if (cmd == "consensus") return cmd_consensus(args);
    if (cmd == "omega") return cmd_omega(args);
    if (cmd == "graph") return cmd_graph(args);
    if (cmd == "trace") return cmd_trace(args);
  } catch (const std::invalid_argument& e) {  // a malformed flag, or a ConfigError
    std::fprintf(stderr, "mmlab: %s\n", e.what());
    return 2;
  }
  usage();
  return 2;
}
