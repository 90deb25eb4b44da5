// sweep: independent seeded HBO consensus trials, the experiment
// core::sweep_termination runs for E1 and E17: an n = 8 chordal-ring GSM,
// f = 2 random crashes in [0, 2000] and link delays of 1..8 steps, on
// nproc workers through exec::parallel_map. A trial is ~120 scheduler
// steps, so its lifecycle (per-fiber stack mmap/munmap, allocation
// counting) and pool dispatch are most of its cost and the uninstrumented
// run_fast loop the rest. Each trial is built call by call through the
// public SimRuntime API, the sequence core::run_consensus_trial runs, so
// every runtime call gets its own span; checks() shows that the harness
// reproduces sweep_termination's aggregates for the same seeds.
#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/hbo.hpp"
#include "core/trial.hpp"
#include "exec/jobs.hpp"
#include "graph/generators.hpp"
#include "runtime/sim_runtime.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using mm::core::ConsensusTrialConfig;
using mm::core::ConsensusTrialResult;

constexpr std::uint64_t kTrials = 2'000;  ///< items per batch
constexpr std::uint64_t kWindows = 16;    ///< disjoint trial-seed ranges
constexpr std::uint64_t kSeedStride = 1'000'000;
constexpr std::uint64_t kWarmUpTrials = 200;

ConsensusTrialConfig sweep_config(std::uint64_t first_seed) {
  ConsensusTrialConfig cfg;
  cfg.gsm = mm::graph::chordal_ring(8);
  cfg.seed = first_seed;
  cfg.algo = mm::core::Algo::kHbo;
  cfg.f = 2;
  cfg.crash_pick = mm::core::CrashPick::kRandom;
  cfg.crash_window = 2'000;
  cfg.min_delay = 1;
  cfg.max_delay = 8;
  cfg.budget = 500'000;
  return cfg;
}

/// core::run_consensus_trial for Algo::kHbo and CrashPick::kRandom, step for
/// step: the same RNG draws and the same runtime calls in the same order.
ConsensusTrialResult run_trial(const ConsensusTrialConfig& cfg) {
  const std::size_t n = cfg.gsm.size();
  mm::Rng rng{cfg.seed ^ 0x7ad870c830358979ULL};
  std::vector<std::uint32_t> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) inputs.push_back(rng.coin() ? 1 : 0);
  std::vector<bool> crash_set(n, false);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  mm::shuffle(order.begin(), order.end(), rng);
  for (std::size_t i = 0; i < cfg.f; ++i) crash_set[order[i]] = true;

  mm::runtime::SimConfig sim;
  sim.gsm = cfg.gsm;
  sim.seed = cfg.seed;
  sim.link_type = mm::runtime::LinkType::kReliable;
  sim.min_delay = cfg.min_delay;
  sim.max_delay = cfg.max_delay;
  sim.crash_at.assign(n, std::nullopt);
  for (std::size_t p = 0; p < n; ++p)
    if (crash_set[p]) sim.crash_at[p] = rng.between(0, cfg.crash_window);

  mm::core::HboConsensus::Config hc;
  hc.gsm = &cfg.gsm;
  hc.impl = cfg.impl;
  hc.max_rounds = cfg.max_rounds;
  std::vector<std::unique_ptr<mm::core::HboConsensus>> hbos;
  std::optional<mm::runtime::SimRuntime> rt;
  {
    const ScopedSpan span{"runtime.ctor"};
    rt.emplace(std::move(sim));
  }
  for (std::size_t p = 0; p < n; ++p) {
    hbos.push_back(std::make_unique<mm::core::HboConsensus>(hc, inputs[p]));
    const ScopedSpan span{"runtime.add_process"};
    rt->add_process([alg = hbos.back().get()](mm::runtime::Env& env) { alg->run(env); });
  }
  {
    const ScopedSpan span{"runtime.start"};
    rt->start();
  }
  {
    const ScopedSpan span{"runtime.run"};
    (void)rt->run_until_all_done(cfg.budget);
  }
  {
    const ScopedSpan span{"runtime.shutdown"};
    rt->shutdown();
  }
  rt->rethrow_process_error();

  ConsensusTrialResult res;
  res.crashed = crash_set;
  res.steps_used = rt->now();
  const mm::runtime::Metrics& m = rt->metrics();
  res.msgs_sent = m.msgs_sent;
  res.reg_ops = m.reg_reads + m.reg_writes + m.reg_cas_ops;
  bool all_correct_decided = true;
  for (std::size_t p = 0; p < n; ++p) {
    const int d = hbos[p]->decision();
    const bool correct = !rt->crashed(mm::Pid{static_cast<std::uint32_t>(p)});
    if (d >= 0) {
      const auto dv = static_cast<std::uint32_t>(d);
      if (res.decision.has_value() && *res.decision != dv) res.agreement = false;
      if (!res.decision.has_value()) res.decision = dv;
      if (std::find(inputs.begin(), inputs.end(), dv) == inputs.end()) res.validity = false;
      res.max_decided_round = std::max(res.max_decided_round, hbos[p]->decided_round());
    } else if (correct) {
      all_correct_decided = false;
    }
  }
  res.all_correct_decided = all_correct_decided && res.decision.has_value();
  {
    const ScopedSpan span{"runtime.dtor"};
    rt.reset();
  }
  return res;
}

class Sweep final : public Workload {
 public:
  explicit Sweep(std::uint64_t window)
      : window_(window), config_(sweep_config(1 + window * kSeedStride)) {}

  [[nodiscard]] std::uint64_t window() const override { return window_; }

  [[nodiscard]] Json params() const override {
    Json j = Json::object();
    j.set("trials", Json::uint(kTrials));
    j.set("windows", Json::uint(kWindows));
    j.set("seed_stride", Json::uint(kSeedStride));
    return j;
  }

  [[nodiscard]] bool uses_pool() const override { return true; }

  void warm_up(std::size_t workers) override { (void)trials(kWarmUpTrials, workers); }

  Batch run_batch(std::size_t workers) override {
    Batch b;
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan root{"bench.batch"};
      reduce(trials(kTrials, workers), b);
    }
    b.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    return b;
  }

  void layer_metrics(const Pass& traced, const Pass* one_worker, Metrics& out) const override {
    lifecycle(traced, "", out);
    lifecycle(one_worker != nullptr ? *one_worker : traced, "_1w", out);
    const double items = traced.items();
    out["runtime.steps_per_item"] = ratio(traced.sum("steps_all"), items);
    out["runtime.msgs_per_item"] = ratio(traced.sum("msgs"), items);
    out["runtime.reg_ops_per_item"] = ratio(traced.sum("reg_ops"), items);
    out["core.decided_frac"] = ratio(traced.sum("terminated"), items);
    out["core.mean_round"] = ratio(traced.sum("rounds"), traced.sum("terminated"));
  }

  [[nodiscard]] Json checks(const Pass& measured) override {
    mm::core::TerminationSweep reference;
    {
      const mm::exec::ScopedJobs jobs{measured.workers};
      reference = mm::core::sweep_termination(config_, kTrials);
    }
    // The harness's own aggregates, computed the way sweep_termination does.
    const Metrics& s = measured.batches.front().sums;
    const double terminated = s.at("terminated");
    mm::core::TerminationSweep harness;
    harness.termination_rate = terminated / static_cast<double>(kTrials);
    if (terminated > 0) {
      harness.mean_decided_round = s.at("rounds") / terminated;
      harness.mean_steps = s.at("steps") / terminated;
    }
    harness.safety_violations = static_cast<std::uint64_t>(s.at("safety_violations"));
    const bool match = harness.termination_rate == reference.termination_rate &&
                       harness.mean_decided_round == reference.mean_decided_round &&
                       harness.mean_steps == reference.mean_steps &&
                       harness.safety_violations == reference.safety_violations;
    const auto to_json = [](const mm::core::TerminationSweep& t) {
      Json j = Json::object();
      j.set("termination_rate", Json::number(t.termination_rate));
      j.set("mean_decided_round", Json::number(t.mean_decided_round));
      j.set("mean_steps", Json::number(t.mean_steps));
      j.set("safety_violations", Json::uint(t.safety_violations));
      return j;
    };
    Json ref = Json::object();
    ref.set("match", Json::boolean(match));
    ref.set("sweep_termination", to_json(reference));
    ref.set("harness", to_json(harness));
    Json j = Json::object();
    j.set("reference", std::move(ref));
    return j;
  }

 private:
  [[nodiscard]] std::vector<Timed<ConsensusTrialResult>> trials(std::uint64_t count,
                                                                std::size_t workers) const {
    return map_items(
        count, workers, "core.trial",
        [this](std::uint64_t i) {
          // sweep_termination's per-seed step: copy the config, set the seed.
          ConsensusTrialConfig c = config_;
          c.seed = config_.seed + i;
          return run_trial(c);
        },
        [](std::uint64_t) { return ""; });
  }

  static void reduce(const std::vector<Timed<ConsensusTrialResult>>& trials, Batch& b) {
    Digest digest;
    double terminated = 0, rounds = 0, steps = 0, safety = 0, steps_all = 0, msgs = 0,
           reg_ops = 0;
    for (std::size_t i = 0; i < trials.size(); ++i) {
      const Timed<ConsensusTrialResult>& t = trials[i];
      b.item_us.push_back(t.us);
      if (t.threw) {
        ++b.exceptions;
        digest.add(~0ULL);
        continue;
      }
      const ConsensusTrialResult& r = t.value;
      std::uint64_t crashed = 0;
      for (std::size_t p = 0; p < r.crashed.size(); ++p)
        if (r.crashed[p]) crashed |= 1ULL << p;
      digest.add(r.decision.has_value() ? *r.decision : ~0ULL);
      digest.add(r.max_decided_round);
      digest.add(r.steps_used);
      digest.add(r.msgs_sent);
      digest.add(r.reg_ops);
      digest.add(crashed);
      digest.add((r.all_correct_decided ? 1U : 0U) | (r.agreement ? 2U : 0U) |
                 (r.validity ? 4U : 0U));
      if (!r.agreement) {
        b.violations.emplace_back(i, "agreement");
      } else if (!r.validity) {
        b.violations.emplace_back(i, "validity");
      }
      // sweep_termination's reduction, in the same order.
      if (!r.agreement || !r.validity) ++safety;
      if (r.all_correct_decided) {
        ++terminated;
        rounds += static_cast<double>(r.max_decided_round);
        steps += static_cast<double>(r.steps_used);
      }
      steps_all += static_cast<double>(r.steps_used);
      msgs += static_cast<double>(r.msgs_sent);
      reg_ops += static_cast<double>(r.reg_ops);
    }
    b.digest = digest.value();
    b.sums = {{"terminated", terminated},   {"rounds", rounds},       {"steps", steps},
              {"safety_violations", safety}, {"steps_all", steps_all}, {"msgs", msgs},
              {"reg_ops", reg_ops}};
  }

  /// Mean construct (ctor + add_process + start), run, and teardown
  /// (shutdown + dtor) time per trial, and ns_per_step for the main pass.
  static void lifecycle(const Pass& pass, const std::string& suffix, Metrics& out) {
    double construct = 0.0, run = 0.0, teardown = 0.0;
    for (const Span& s : pass.spans) {
      const std::string_view name{s.name};
      const auto ns = static_cast<double>(s.duration_ns());
      if (name == "runtime.ctor" || name == "runtime.add_process" || name == "runtime.start") {
        construct += ns;
      } else if (name == "runtime.run") {
        run += ns;
      } else if (name == "runtime.shutdown" || name == "runtime.dtor") {
        teardown += ns;
      }
    }
    const double items = pass.items();
    out["runtime.construct_us" + suffix] = ratio(construct, items) * 1e-3;
    out["runtime.run_us" + suffix] = ratio(run, items) * 1e-3;
    out["runtime.teardown_us" + suffix] = ratio(teardown, items) * 1e-3;
    if (suffix.empty()) out["runtime.ns_per_step"] = ratio(run, pass.sum("steps_all"));
  }

  std::uint64_t window_;
  ConsensusTrialConfig config_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep(std::uint64_t seed) {
  return std::make_unique<Sweep>(seed % kWindows);
}

}  // namespace perfbench
