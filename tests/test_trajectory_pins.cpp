// Trajectory pins: the seed → trajectory function, held to recorded values.
//
// Each cell runs one seeded workload and folds everything observable about
// the finished run into a 64-bit digest — for the mixed Env workload the
// metrics, the register table, the values the bodies computed, the final
// step and the event trace; for the whole-algorithm trials every result
// field that describes the run. Any change to a scheduling decision, an RNG
// draw, a message delay, a crash point or a register operation moves a
// digest.
//
// The constants were recorded while SimRuntime still carried a second,
// OS-thread execution backend, and only after that backend and the fibers
// produced the same digest on every cell, so the pins keep the old
// cross-check's verdict: control transfer is not part of the trajectory. A
// deliberate trajectory change re-records them (each failure prints the new
// value) and says so in CHANGES.md.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/tags.hpp"
#include "core/trial.hpp"
#include "fault/engine.hpp"
#include "graph/generators.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::runtime {
namespace {

/// Order-sensitive fold of 64-bit words (splitmix64 finalizer per word).
/// Containers fold their length first, so adjacent ones cannot trade
/// elements without changing the value.
class Digest {
 public:
  void add(std::uint64_t v) {
    std::uint64_t x = h_ ^ (v + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2));
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    h_ = x;
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::vector<std::uint64_t>& vs) {
    add(std::uint64_t{vs.size()});
    for (const std::uint64_t v : vs) add(v);
  }
  void add(const std::vector<bool>& vs) {
    add(std::uint64_t{vs.size()});
    for (const bool v : vs) add(std::uint64_t{v});
  }
  void add(std::string_view text) {
    add(std::uint64_t{text.size()});
    for (const char c : text) add(std::uint64_t{static_cast<unsigned char>(c)});
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0x6a09e667f3bcc909ULL;
};

void expect_pin(std::uint64_t actual, std::uint64_t pinned, const std::string& cell) {
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(actual));
  EXPECT_EQ(actual, pinned) << cell << ": trajectory digest is now " << hex;
}

// ---------------------------------------------------------------------------
// The mixed Env workload under six adversary configurations.
// ---------------------------------------------------------------------------

/// Everything observable about a finished run.
struct Snapshot {
  Metrics metrics;
  std::vector<std::uint64_t> regs;
  std::vector<std::uint64_t> sums;  ///< per-process values computed by the bodies
  Step now = 0;
  std::vector<SimRuntime::TraceEvent> trace;
};

/// A workload that exercises every Env facility: coins, bounded draws,
/// register reads/writes/CAS (on own and neighbours' registers), messaging,
/// inbox drains, and steps. Any divergence in scheduling or RNG shows up in
/// `sums`, the register table, or the metrics.
Snapshot run_mixed_workload(SimConfig cfg, bool trace) {
  const std::size_t n = cfg.n();
  SimRuntime rt{std::move(cfg)};
  if (trace) rt.enable_trace();

  std::vector<std::uint64_t> sums(n, 0);
  std::vector<Message> drained;
  for (std::uint32_t p = 0; p < n; ++p) {
    rt.add_process([&sums, &drained, p, n](Env& env) {
      const RegId mine = env.reg(RegKey::make(core::kTagState, env.self(), 0, 0));
      const RegId theirs =
          env.reg(RegKey::make(core::kTagState, Pid{(p + 1) % static_cast<std::uint32_t>(n)}, 0, 0));
      std::uint64_t acc = p;
      for (int i = 0; i < 120; ++i) {
        acc = acc * 3 + (env.coin() ? 1 : 0) + env.rand_below(17);
        env.write(mine, acc);
        acc ^= env.read(theirs);
        (void)env.cas(theirs, acc, acc + 1);
        Message m;
        m.kind = 1;
        m.value = acc;
        env.send(Pid{(p + 1) % static_cast<std::uint32_t>(n)}, m);
        env.drain_inbox(drained);
        for (const Message& r : drained) acc += r.value;
        env.step();
        sums[p] = acc;
      }
    });
  }
  rt.run_until_all_done(1'000'000);
  rt.shutdown();
  rt.rethrow_process_error();

  Snapshot s;
  s.metrics = rt.metrics();
  s.regs = rt.register_values();
  s.sums = std::move(sums);
  s.now = rt.now();
  s.trace = rt.trace();
  return s;
}

std::uint64_t digest(const Snapshot& s) {
  Digest d;
  const Metrics& m = s.metrics;
  for (const std::uint64_t v : {m.msgs_sent, m.msgs_delivered, m.msgs_dropped, m.reg_reads,
                                m.reg_writes, m.reg_cas_ops, m.reg_reads_local,
                                m.reg_writes_local, m.reg_cas_local})
    d.add(v);
  for (const auto* per_proc : {&m.steps_by_proc, &m.sends_by_proc, &m.reads_by_proc,
                               &m.writes_by_proc, &m.remote_reads_by_proc,
                               &m.remote_writes_by_proc})
    d.add(*per_proc);
  d.add(s.regs);
  d.add(s.sums);
  d.add(s.now);
  d.add(std::uint64_t{s.trace.size()});
  for (const SimRuntime::TraceEvent& e : s.trace) {
    d.add(e.step);
    d.add(std::uint64_t{e.pid.value()});
    d.add(static_cast<std::uint64_t>(e.kind));
    d.add(e.a);
    d.add(e.b);
    d.add(e.seq);
  }
  return d.value();
}

constexpr std::uint64_t kSeeds[] = {1, 42, 99'991};

SimConfig base(std::size_t n, std::uint64_t seed) {
  SimConfig cfg;
  cfg.gsm = graph::complete(n);
  cfg.seed = seed;
  return cfg;
}

/// Run the mixed workload on cfg_for(seed) for every seed in kSeeds and
/// compare each digest to its pin.
template <typename CfgFor>
void expect_workload_pins(const char* cell, CfgFor cfg_for, const std::uint64_t (&pins)[3],
                          bool trace = false) {
  for (std::size_t i = 0; i < 3; ++i) {
    const Snapshot s = run_mixed_workload(cfg_for(kSeeds[i]), trace);
    if (trace) {
      EXPECT_FALSE(s.trace.empty());
    }
    expect_pin(digest(s), pins[i], std::string{cell} + " seed " + std::to_string(kSeeds[i]));
  }
}

TEST(TrajectoryPins, PlainWorkload) {
  expect_workload_pins(
      "plain", [](std::uint64_t seed) { return base(4, seed); },
      {0x65e3ea89abae27b0ULL, 0x9ee7d0917e637fb7ULL, 0x0b4ce760fd1f36e1ULL});
}

TEST(TrajectoryPins, WithCrashes) {
  expect_workload_pins(
      "crashes",
      [](std::uint64_t seed) {
        SimConfig cfg = base(5, seed);
        cfg.crash_at.assign(5, std::nullopt);
        cfg.crash_at[1] = 40;
        cfg.crash_at[3] = 200;
        return cfg;
      },
      {0x52ca5b65c6b8d97eULL, 0xd4f1e612f127aa67ULL, 0xc5a6ebf7ddb5dc0dULL});
}

TEST(TrajectoryPins, FairLossyLinks) {
  expect_workload_pins(
      "fair-lossy",
      [](std::uint64_t seed) {
        SimConfig cfg = base(4, seed);
        cfg.link_type = LinkType::kFairLossy;
        cfg.drop_prob = 0.4;
        return cfg;
      },
      {0x947295e0563c2783ULL, 0x59fbe74ea70034b7ULL, 0xf0f7b9d7779b8402ULL});
}

TEST(TrajectoryPins, WeightedSchedulerWithTimelyProcess) {
  expect_workload_pins(
      "weighted+timely",
      [](std::uint64_t seed) {
        SimConfig cfg = base(4, seed);
        cfg.sched_weight = {1.0, 0.1, 0.1, 3.0};
        cfg.timely = Pid{1};
        cfg.timely_bound = 8;
        return cfg;
      },
      {0x8631aede49087591ULL, 0xe4befee6d73a131cULL, 0xf97240c90d674958ULL});
}

TEST(TrajectoryPins, PartitionWindow) {
  expect_workload_pins(
      "partition",
      [](std::uint64_t seed) {
        SimConfig cfg = base(4, seed);
        Partition part;
        part.side_a = 0b0011;
        part.from = 50;
        part.until = 400;
        cfg.partition = part;
        return cfg;
      },
      {0xf55cb6965c7824dfULL, 0xd3320bfbadd66d89ULL, 0xcc905210aeecb58fULL});
}

TEST(TrajectoryPins, TracedRunWithCrash) {
  expect_workload_pins(
      "traced",
      [](std::uint64_t seed) {
        SimConfig cfg = base(3, seed);
        cfg.crash_at.assign(3, std::nullopt);
        cfg.crash_at[2] = 100;
        return cfg;
      },
      {0xbf8fd734c803e811ULL, 0xf1acb0f3158ab0e2ULL, 0xc3212b7ffc6d7ed5ULL},
      /*trace=*/true);
}

// ---------------------------------------------------------------------------
// Whole-algorithm trials.
// ---------------------------------------------------------------------------

TEST(TrajectoryPins, ConsensusTrials) {
  constexpr std::uint64_t kPins[2][3] = {
      {0x39367af0bc89d20bULL, 0xda95eef8481e5fc4ULL, 0xaac5ce3ae591bfb9ULL},  // HBO
      {0x4e0e03fddca7b656ULL, 0x4d8e75d22c459c48ULL, 0x319b82b611a8c88cULL},  // Ben-Or
  };
  for (std::size_t a = 0; a < 2; ++a) {
    const core::Algo algo = a == 0 ? core::Algo::kHbo : core::Algo::kBenOr;
    for (std::size_t i = 0; i < 3; ++i) {
      core::ConsensusTrialConfig cfg;
      cfg.gsm = graph::complete(6);
      cfg.seed = kSeeds[i];
      cfg.algo = algo;
      cfg.f = 2;
      cfg.budget = 200'000;
      const core::ConsensusTrialResult r = core::run_consensus_trial(cfg);
      EXPECT_TRUE(r.agreement);
      EXPECT_TRUE(r.validity);
      Digest d;
      d.add(std::uint64_t{r.agreement});
      d.add(std::uint64_t{r.validity});
      d.add(std::uint64_t{r.all_correct_decided});
      d.add(std::uint64_t{r.decision.has_value()});
      d.add(std::uint64_t{r.decision.value_or(0)});
      d.add(r.max_decided_round);
      d.add(r.steps_used);
      d.add(r.msgs_sent);
      d.add(r.reg_ops);
      d.add(r.crashed);
      expect_pin(d.value(), kPins[a][i],
                 std::string{core::to_string(algo)} + " seed " + std::to_string(kSeeds[i]));
    }
  }
}

TEST(TrajectoryPins, OmegaTrial) {
  core::OmegaTrialConfig cfg;
  cfg.n = 5;
  cfg.seed = 7;
  cfg.algo = core::OmegaAlgo::kMnmFairLossy;
  cfg.drop_prob = 0.3;
  cfg.budget = 120'000;
  cfg.check_every = 200;
  cfg.stable_checks = 5;
  // The rates below are sums over a 4,000-step window and can survive a
  // changed schedule; the decoded tail of the event ring cannot.
  cfg.trace_capacity = 256;
  const core::OmegaTrialResult r = core::run_omega_trial(cfg);
  Digest d;
  d.add(std::uint64_t{r.stabilized});
  d.add(std::uint64_t{r.final_leader.value()});
  d.add(r.stabilization_step);
  d.add(r.failover_step);
  for (const double rate : {r.steady_msgs_per_1k, r.leader_writes_per_1k, r.leader_reads_per_1k,
                            r.leader_remote_per_1k, r.others_writes_per_1k,
                            r.others_reads_per_1k})
    d.add(rate);
  d.add(std::string_view{r.trace_tail});
  expect_pin(d.value(), 0x84cd57eb7cc2dd92ULL, "omega");
}

TEST(TrajectoryPins, ByzRegisterTrial) {
  // Two Byzantine processes, one equivocating and corrupting, one silent
  // towards everyone: corruption happens at deterministic interposition
  // points, so the corrupted run is as much a function of the seed as a
  // clean one.
  const auto byz = [](std::uint32_t target, std::uint32_t behaviors,
                      std::uint64_t silence_mask) {
    fault::FaultRule r;
    r.trigger = fault::Trigger::kAtStep;
    r.count = 0;
    r.action = fault::Action::kGoByzantine;
    r.target = Pid{target};
    r.byz_behaviors = behaviors;
    r.byz_silence_mask = silence_mask;
    return r;
  };
  fault::FaultEngine eng{{byz(1, fault::kByzEquivocate | fault::kByzCorrupt, 0),
                          byz(4, fault::kByzSilence, ~std::uint64_t{0})}};
  core::ByzRegisterTrialConfig cfg;
  cfg.gsm = graph::edgeless(7);
  cfg.seed = 9;
  cfg.f = 2;
  cfg.byzantine.assign(7, 0);
  cfg.byzantine[1] = cfg.byzantine[4] = 1;
  cfg.injector = &eng;
  const core::ByzRegisterTrialResult r = core::run_byz_register_trial(cfg);
  Digest d;
  d.add(std::uint64_t{r.completed});
  d.add(r.steps_used);
  d.add(r.written);
  d.add(std::uint64_t{r.adopted.size()});
  for (const auto& log : r.adopted) {
    d.add(std::uint64_t{log.size()});
    for (const auto& [ts, value] : log) {
      d.add(std::uint64_t{ts});
      d.add(value);
    }
  }
  d.add(r.crashed);
  // Every completed operation with its invocation and response step: the
  // fields above are coarse enough to survive a changed schedule.
  for (const check::HistoryRecorder& h : r.histories) {
    d.add(std::uint64_t{h.ops().size()});
    for (const check::RegOp& op : h.ops()) {
      d.add(std::uint64_t{op.is_write});
      d.add(op.value);
      d.add(op.invoked);
      d.add(op.responded);
      d.add(std::uint64_t{op.proc.value()});
    }
  }
  expect_pin(d.value(), 0x24de15c67da6ca32ULL, "byz-register");
}

}  // namespace
}  // namespace mm::runtime
