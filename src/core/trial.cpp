#include "core/trial.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "exec/parallel_map.hpp"
#include "core/ben_or.hpp"
#include "core/byz_register.hpp"
#include "core/hbo.hpp"
#include "core/tags.hpp"
#include "core/omega.hpp"
#include "core/omega_mp.hpp"
#include "core/sm_consensus.hpp"
#include "graph/expansion.hpp"
#include "graph/generators.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::core {

using runtime::SimConfig;
using runtime::SimRuntime;


const char* to_string(Algo algo) noexcept {
  switch (algo) {
    case Algo::kHbo: return "hbo";
    case Algo::kBenOr: return "ben-or";
    case Algo::kSmConsensus: return "sm";
  }
  return "?";
}

const char* to_string(OmegaAlgo algo) noexcept {
  switch (algo) {
    case OmegaAlgo::kMnmReliable: return "mnm-reliable";
    case OmegaAlgo::kMnmFairLossy: return "mnm-fairlossy";
    case OmegaAlgo::kMessagePassing: return "mp-heartbeat";
  }
  return "?";
}

namespace {

/// Pick the f-subset of processes to crash.
std::vector<bool> pick_crash_set(const ConsensusTrialConfig& cfg, Rng& rng) {
  const std::size_t n = cfg.gsm.size();
  std::vector<bool> crashed(n, false);
  if (cfg.crash_pick == CrashPick::kTargeted) {
    for (std::size_t p = 0; p < n && p < 64; ++p)
      crashed[p] = ((cfg.targeted_crash_mask >> p) & 1ULL) != 0;
    return crashed;
  }
  if (cfg.f == 0 || cfg.crash_pick == CrashPick::kNone) return crashed;
  require_crashable(cfg.f, n);

  if (cfg.crash_pick == CrashPick::kWorstCase && n <= graph::kExactExpansionMaxN) {
    // Crash the complement of the correct set that minimises representation:
    // the adversary Theorem 4.3 quantifies over.
    const auto worst = graph::min_represented_exact(cfg.gsm, n - cfg.f);
    for (std::size_t p = 0; p < n; ++p)
      crashed[p] = ((worst.witness >> p) & 1ULL) == 0;
    return crashed;
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  shuffle(order.begin(), order.end(), rng);
  for (std::size_t i = 0; i < cfg.f; ++i) crashed[order[i]] = true;
  return crashed;
}

}  // namespace

void require_crashable(std::size_t f, std::size_t n) {
  if (f >= n)
    throw runtime::ConfigError{"cannot crash every process: f = " + std::to_string(f) +
                               " >= n = " + std::to_string(n)};
}

void require_two_processes(std::size_t n) {
  if (n < 2)
    throw runtime::ConfigError{"omega and byz_register trials need n >= 2, got " +
                               std::to_string(n)};
}

ConsensusTrialResult run_consensus_trial(const ConsensusTrialConfig& cfg) {
  const std::size_t n = cfg.gsm.size();
  MM_ASSERT(n >= 1);
  Rng rng{cfg.seed ^ 0x7ad870c830358979ULL};

  // Inputs.
  std::vector<std::uint32_t> inputs;
  if (cfg.inputs.has_value()) {
    MM_ASSERT_MSG(cfg.inputs->size() == n, "inputs arity");
    inputs = *cfg.inputs;
  } else {
    inputs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) inputs.push_back(rng.coin() ? 1 : 0);
  }

  // Adversary: crash set and crash times.
  const std::vector<bool> crash_set = pick_crash_set(cfg, rng);

  SimConfig sim;
  sim.gsm = cfg.gsm;
  sim.seed = cfg.seed;
  sim.link_type = runtime::LinkType::kReliable;
  sim.min_delay = cfg.min_delay;
  sim.max_delay = cfg.max_delay;
  sim.partition = cfg.partition;
  sim.crash_at.assign(n, std::nullopt);
  for (std::size_t p = 0; p < n; ++p)
    if (crash_set[p]) sim.crash_at[p] = rng.between(0, cfg.crash_window);

  SimRuntime rt{std::move(sim)};
  if (cfg.trace_capacity != 0) rt.enable_trace(cfg.trace_capacity);
  if (cfg.injector != nullptr) rt.set_fault_injector(cfg.injector);

  std::vector<std::unique_ptr<HboConsensus>> hbos;
  std::vector<std::unique_ptr<BenOrConsensus>> benors;
  std::vector<std::unique_ptr<SmConsensus>> sms;

  for (std::size_t p = 0; p < n; ++p) {
    switch (cfg.algo) {
      case Algo::kHbo: {
        HboConsensus::Config hc;
        hc.gsm = &cfg.gsm;
        hc.impl = cfg.impl;
        hc.max_rounds = cfg.max_rounds;
        hbos.push_back(std::make_unique<HboConsensus>(hc, inputs[p]));
        rt.add_process([alg = hbos.back().get()](runtime::Env& env) { alg->run(env); });
        break;
      }
      case Algo::kBenOr: {
        BenOrConsensus::Config bc;
        // Ben-Or's configured crash bound (its quorum is n − f): ⌊(n−1)/2⌋,
        // the most it can safely be configured for. The crashes actually
        // injected, cfg.f, may exceed it — that is precisely the E2
        // comparison.
        bc.f = (n - 1) / 2;
        bc.max_rounds = cfg.max_rounds;
        benors.push_back(std::make_unique<BenOrConsensus>(bc, inputs[p]));
        rt.add_process([alg = benors.back().get()](runtime::Env& env) { alg->run(env); });
        break;
      }
      case Algo::kSmConsensus: {
        SmConsensus::Config sc;
        sc.impl = cfg.impl;
        sms.push_back(std::make_unique<SmConsensus>(sc, inputs[p]));
        rt.add_process([alg = sms.back().get()](runtime::Env& env) { alg->run(env); });
        break;
      }
    }
  }

  rt.run_until_all_done(cfg.budget);
  rt.shutdown();
  rt.rethrow_process_error();

  auto decision_of = [&](std::size_t p) -> int {
    switch (cfg.algo) {
      case Algo::kHbo: return hbos[p]->decision();
      case Algo::kBenOr: return benors[p]->decision();
      case Algo::kSmConsensus: return sms[p]->decision();
    }
    return -1;
  };
  auto round_of = [&](std::size_t p) -> std::uint64_t {
    switch (cfg.algo) {
      case Algo::kHbo: return hbos[p]->decided_round();
      case Algo::kBenOr: return benors[p]->decided_round();
      case Algo::kSmConsensus: return 1;
    }
    return 0;
  };

  ConsensusTrialResult res;
  res.crashed = crash_set;
  res.steps_used = rt.now();
  if (cfg.trace_capacity != 0) res.trace_tail = rt.dump_trace(60);
  res.msgs_sent = rt.metrics().msgs_sent;
  res.reg_ops = rt.metrics().reg_reads + rt.metrics().reg_writes + rt.metrics().reg_cas_ops;

  // Uniform Agreement + Validity, over every decision including those of
  // processes that crashed after deciding.
  bool all_correct_decided = true;
  for (std::size_t p = 0; p < n; ++p) {
    const int d = decision_of(p);
    const bool correct = !rt.crashed(Pid{static_cast<std::uint32_t>(p)});
    if (d >= 0) {
      const auto dv = static_cast<std::uint32_t>(d);
      if (res.decision.has_value() && *res.decision != dv) res.agreement = false;
      if (!res.decision.has_value()) res.decision = dv;
      if (std::find(inputs.begin(), inputs.end(), dv) == inputs.end()) res.validity = false;
      res.max_decided_round = std::max(res.max_decided_round, round_of(p));
    } else if (correct) {
      all_correct_decided = false;
    }
  }
  res.all_correct_decided = all_correct_decided && res.decision.has_value();
  return res;
}

TerminationSweep sweep_termination(ConsensusTrialConfig cfg, std::uint64_t trials) {
  // Trials are independent seeded runs (seeds cfg.seed, cfg.seed+1, ... per
  // the header contract), so they fan out across the worker pool; the
  // reduction below consumes results in seed order, which keeps every
  // aggregate — including the floating-point sums — bit-identical to the
  // sequential loop (and to MM_JOBS=1).
  MM_ASSERT_MSG(cfg.injector == nullptr,
                "sweeps share the config across parallel trials; a stateful injector "
                "must be built per seed, not passed here");
  const std::uint64_t base_seed = cfg.seed;
  const auto results = exec::parallel_map(trials, [&cfg, base_seed](std::uint64_t t) {
    ConsensusTrialConfig c = cfg;
    c.seed = base_seed + t;
    return run_consensus_trial(c);
  });

  TerminationSweep sweep;
  std::uint64_t terminated = 0;
  double rounds = 0.0;
  double steps = 0.0;
  for (const ConsensusTrialResult& res : results) {
    if (!res.agreement || !res.validity) ++sweep.safety_violations;
    if (res.all_correct_decided) {
      ++terminated;
      rounds += static_cast<double>(res.max_decided_round);
      steps += static_cast<double>(res.steps_used);
    }
  }
  sweep.termination_rate = trials ? static_cast<double>(terminated) / static_cast<double>(trials) : 0.0;
  if (terminated > 0) {
    sweep.mean_decided_round = rounds / static_cast<double>(terminated);
    sweep.mean_steps = steps / static_cast<double>(terminated);
  }
  return sweep;
}

// ---------------------------------------------------------------------------
// Byzantine register trials (E20)
// ---------------------------------------------------------------------------

namespace {

/// Harness-global completion flag, one per process (slot 1 keeps it disjoint
/// from the ByzRegister pair registers, which use slot 0 and no global bit).
runtime::RegKey byz_done_key(Pid p) {
  return runtime::RegKey::make_global(kTagByzReg, p, 0, 1);
}

}  // namespace

ByzRegisterTrialResult run_byz_register_trial(const ByzRegisterTrialConfig& cfg) {
  const std::size_t n = cfg.gsm.size();
  require_two_processes(n);
  const Pid writer{0};

  // Resilience-bound validation, mirroring SimConfig::validate's style: a
  // mis-parameterised register instance is a config error, not a finding.
  const bool bracha_ok = n > 3 * cfg.f;
  if (!cfg.use_gsm && !bracha_ok) {
    throw runtime::ConfigError{
        "byz_register (message mode) requires n > 3f: n = " + std::to_string(n) +
        ", f = " + std::to_string(cfg.f)};
  }
  if (cfg.use_gsm) {
    if (n <= 2 * cfg.f) {
      throw runtime::ConfigError{
          "byz_register (hybrid mode) requires n > 2f: n = " + std::to_string(n) +
          ", f = " + std::to_string(cfg.f)};
    }
    if (!bracha_ok) {
      for (std::size_t q = 1; q < n; ++q) {
        if (!cfg.gsm.has_edge(writer, Pid{static_cast<std::uint32_t>(q)})) {
          throw runtime::ConfigError{
              "byz_register (hybrid mode) with f >= n/3 disables the Bracha "
              "channel, so the writer must neighbor every process; p" +
              std::to_string(q) + " is outside the writer's GSM neighborhood"};
        }
      }
    }
  }

  SimConfig sim;
  sim.gsm = cfg.gsm;
  sim.seed = cfg.seed;
  sim.max_delay = cfg.max_delay;
  sim.crash_at = cfg.crash_at;
  sim.byzantine = cfg.byzantine;  // validate() rejects crash-plan overlap

  SimRuntime rt{std::move(sim)};
  if (cfg.trace_capacity != 0) rt.enable_trace(cfg.trace_capacity);
  if (cfg.injector != nullptr) rt.set_fault_injector(cfg.injector);

  ByzRegisterTrialResult res;
  res.written.reserve(cfg.writes);
  for (std::size_t w = 1; w <= cfg.writes; ++w) res.written.push_back(w);
  res.histories.resize(n);

  std::vector<std::unique_ptr<ByzRegister>> regs;
  regs.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    ByzRegister::Config bc;
    bc.f = cfg.f;
    bc.writer = writer;
    bc.use_gsm = cfg.use_gsm;
    bc.gsm = &cfg.gsm;
    regs.push_back(std::make_unique<ByzRegister>(bc));
    rt.add_process([p, &cfg, reg = regs.back().get(),
                    hist = &res.histories[p]](runtime::Env& env) {
      if (p == 0) {
        for (std::size_t w = 1; w <= cfg.writes; ++w) {
          const Step invoked = env.now();
          if (!reg->write(env, w)) return;
          hist->record_write(w, invoked, env.now(), env.self());
        }
      }
      for (int r = 0; r < 2; ++r) {
        const Step invoked = env.now();
        const auto v = reg->read(env);
        if (!v.has_value()) return;
        hist->record_read(*v, invoked, env.now(), env.self());
      }
      env.write(env.reg(byz_done_key(env.self())), 1);
      // Stay alive as a server: other processes' reads need our rows/acks.
      while (!env.stop_requested()) {
        reg->pump(env);
        env.step();
      }
    });
  }

  // Drive until every correct process published its completion flag (a
  // Byzantine process's own operations have no liveness guarantee — its
  // traffic is being corrupted — so it is excluded like a crashed one).
  while (rt.now() < cfg.budget && !res.completed) {
    rt.run_steps(2'000);
    rt.rethrow_process_error();
    bool all = true;
    for (std::size_t p = 0; p < n; ++p) {
      const Pid pid{static_cast<std::uint32_t>(p)};
      if (rt.crashed(pid)) continue;
      if (!cfg.byzantine.empty() && cfg.byzantine[p] != 0) continue;
      if (rt.register_value(byz_done_key(pid)).value_or(0) == 0) {
        all = false;
        break;
      }
    }
    res.completed = all;
  }
  res.steps_used = rt.now();
  res.crashed.resize(n);
  for (std::size_t p = 0; p < n; ++p)
    res.crashed[p] = rt.crashed(Pid{static_cast<std::uint32_t>(p)});
  if (cfg.trace_capacity != 0) res.trace_tail = rt.dump_trace(60);
  rt.shutdown();
  rt.rethrow_process_error();

  res.adopted.reserve(n);
  for (std::size_t p = 0; p < n; ++p) res.adopted.push_back(regs[p]->adopted_log());
  return res;
}

// ---------------------------------------------------------------------------
// Ω trials
// ---------------------------------------------------------------------------

OmegaTrialResult run_omega_trial(const OmegaTrialConfig& cfg) {
  constexpr Step kTimelyBound = 8;  // the timely process runs in every window this long
  const std::size_t n = cfg.n;
  require_two_processes(n);

  SimConfig sim;
  sim.gsm = graph::complete(n);  // §5 assumes a complete GSM
  sim.seed = cfg.seed;
  sim.link_type = cfg.algo == OmegaAlgo::kMnmFairLossy ? runtime::LinkType::kFairLossy
                                                       : runtime::LinkType::kReliable;
  sim.drop_prob = cfg.algo == OmegaAlgo::kMnmFairLossy ? cfg.drop_prob : 0.0;
  sim.min_delay = cfg.min_delay;
  sim.max_delay = cfg.max_delay;
  sim.timely = cfg.timely;
  sim.timely_bound = kTimelyBound;
  if (cfg.slow_weight != 1.0) {
    sim.sched_weight.assign(n, cfg.slow_weight);
    sim.sched_weight[cfg.timely.index()] = 1.0;
  }

  SimRuntime rt{std::move(sim)};
  if (cfg.trace_capacity != 0) rt.enable_trace(cfg.trace_capacity);
  if (cfg.injector != nullptr) rt.set_fault_injector(cfg.injector);

  std::vector<std::unique_ptr<OmegaMM>> mnms;
  std::vector<std::unique_ptr<OmegaMP>> mps;
  for (std::size_t p = 0; p < n; ++p) {
    if (cfg.algo == OmegaAlgo::kMessagePassing) {
      mps.push_back(std::make_unique<OmegaMP>());
      rt.add_process([alg = mps.back().get()](runtime::Env& env) { alg->run(env); });
    } else {
      OmegaMM::Config oc;
      oc.mech = cfg.algo == OmegaAlgo::kMnmReliable ? OmegaMM::NotifyMech::kMessage
                                                    : OmegaMM::NotifyMech::kRegister;
      mnms.push_back(std::make_unique<OmegaMM>(oc));
      rt.add_process([alg = mnms.back().get()](runtime::Env& env) { alg->run(env); });
    }
  }

  auto leader_of = [&](std::size_t p) -> Pid {
    return cfg.algo == OmegaAlgo::kMessagePassing ? mps[p]->leader() : mnms[p]->leader();
  };

  OmegaTrialResult res;
  bool crashed_done = cfg.crash_leader_at == 0;
  Pid crashed_pid = Pid::none();
  int streak = 0;
  Step streak_start = 0;
  bool measured_precrash = false;

  while (rt.now() < cfg.budget) {
    rt.run_steps(cfg.check_every);
    rt.rethrow_process_error();

    // Crash injection: take down the currently agreed leader.
    if (!crashed_done && rt.now() >= cfg.crash_leader_at) {
      Pid victim = leader_of(cfg.timely.index());
      if (victim.is_none() || victim.index() >= n || victim == cfg.timely) victim = Pid{0};
      if (victim == cfg.timely) victim = Pid{1};  // never crash the timely process
      rt.crash_now(victim);
      crashed_pid = victim;
      crashed_done = true;
      streak = 0;
      measured_precrash = true;
    }

    // Agreement check: every non-crashed process outputs the same correct pid.
    Pid agreed = Pid::none();
    bool all_agree = true;
    for (std::size_t p = 0; p < n; ++p) {
      if (rt.crashed(Pid{static_cast<std::uint32_t>(p)})) continue;
      const Pid l = leader_of(p);
      if (l.is_none() || l == crashed_pid) {
        all_agree = false;
        break;
      }
      if (agreed.is_none()) agreed = l;
      if (l != agreed) {
        all_agree = false;
        break;
      }
    }
    if (all_agree && !agreed.is_none()) {
      if (streak == 0) streak_start = rt.now();
      ++streak;
      if (streak >= cfg.stable_checks && crashed_done) {
        res.stabilized = true;
        res.final_leader = agreed;
        res.stabilization_step = streak_start;
        res.failover_step = measured_precrash && cfg.crash_leader_at > 0
                                ? streak_start - cfg.crash_leader_at
                                : streak_start;
        break;
      }
    } else {
      streak = 0;
    }
  }

  if (cfg.trace_capacity != 0) res.trace_tail = rt.dump_trace(60);

  if (!res.stabilized) {
    rt.shutdown();
    return res;
  }

  // Steady-state measurement window (Theorems 5.1/5.2 observables).
  const runtime::Metrics before = rt.metrics();
  const Step window = cfg.check_every * 20;
  rt.run_steps(window);
  const runtime::Metrics delta = rt.metrics().delta_since(before);
  rt.shutdown();

  const double per_1k = 1000.0 / static_cast<double>(window);
  const std::size_t lead = res.final_leader.index();
  res.steady_msgs_per_1k = static_cast<double>(delta.msgs_sent) * per_1k;
  res.leader_writes_per_1k = static_cast<double>(delta.writes_by_proc[lead]) * per_1k;
  res.leader_reads_per_1k = static_cast<double>(delta.reads_by_proc[lead]) * per_1k;
  res.leader_remote_per_1k =
      static_cast<double>(delta.remote_reads_by_proc[lead] + delta.remote_writes_by_proc[lead]) *
      per_1k;
  double ow = 0.0, orr = 0.0;
  std::size_t others = 0;
  for (std::size_t p = 0; p < n; ++p) {
    if (p == lead || (p == crashed_pid.index() && !crashed_pid.is_none())) continue;
    ow += static_cast<double>(delta.writes_by_proc[p]);
    orr += static_cast<double>(delta.reads_by_proc[p]);
    ++others;
  }
  if (others > 0) {
    res.others_writes_per_1k = ow * per_1k / static_cast<double>(others);
    res.others_reads_per_1k = orr * per_1k / static_cast<double>(others);
  }
  return res;
}

std::vector<OmegaTrialResult> run_omega_trials(const OmegaTrialConfig& cfg,
                                               const std::vector<std::uint64_t>& seeds) {
  MM_ASSERT_MSG(cfg.injector == nullptr,
                "sweeps share the config across parallel trials; a stateful injector "
                "must be built per seed, not passed here");
  return exec::parallel_map(seeds.size(), [&cfg, &seeds](std::uint64_t i) {
    OmegaTrialConfig c = cfg;
    c.seed = seeds[i];
    return run_omega_trial(c);
  });
}

}  // namespace mm::core
