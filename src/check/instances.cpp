#include "check/instances.hpp"

#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "core/abd.hpp"
#include "core/hbo.hpp"
#include "core/omega.hpp"
#include "graph/generators.hpp"
#include "runtime/env.hpp"
#include "runtime/metrics.hpp"
#include "shm/adopt_commit.hpp"
#include "shm/consensus_object.hpp"

namespace mm::check {

using runtime::Env;
using runtime::ExploreFaults;
using runtime::Message;
using runtime::RegKey;
using runtime::SimConfig;
using runtime::SimRuntime;

namespace {

// Result channel: each process writes its outcome to a harness-global
// register keyed by its own pid (RegKey::make_global — readable by the
// oracle through SimRuntime::register_value on any schedule, and disjoint
// across processes so the publishes are independent steps).
constexpr std::uint8_t kResTag = 0x66;
constexpr std::uint8_t kAcTag = 0x61;
constexpr std::uint8_t kCasTag = 0x62;
constexpr std::uint32_t kPingKind = 0x50;
constexpr std::uint32_t kValKind = 0x56;
constexpr std::uint32_t kDoneKind = 0x44;

RegKey res_key(Pid p) { return RegKey::make_global(kResTag, p); }

void publish(Env& env, std::uint64_t value) { env.write(env.reg(res_key(env.self())), value); }

std::optional<std::uint64_t> published(const SimRuntime& rt, std::size_t p) {
  return rt.register_value(res_key(Pid{static_cast<std::uint32_t>(p)}));
}

SimConfig explorable_config(graph::Graph gsm, std::uint64_t seed) {
  SimConfig cfg;
  cfg.gsm = std::move(gsm);
  cfg.seed = seed;
  cfg.min_delay = 1;  // unit fixed delay: the explorer's soundness envelope
  cfg.max_delay = 1;
  return cfg;
}

// -- adopt-commit helpers ----------------------------------------------------

// (committed, value) ↦ 1 + 2·value + committed; 0 never occurs, so a missing
// or zero result register means the process never finished its propose.
std::uint64_t ac_encode(const shm::AcResult& r) {
  return 1 + 2 * static_cast<std::uint64_t>(r.value) + (r.committed ? 1 : 0);
}

std::optional<std::string> ac_check(const SimRuntime& rt, std::uint32_t domain) {
  const std::size_t n = rt.config().n();
  std::vector<shm::AcResult> outs(n);
  for (std::size_t p = 0; p < n; ++p) {
    const auto r = published(rt, p);
    if (!r.has_value() || *r == 0)
      return "p" + std::to_string(p) + " produced no adopt-commit result";
    const std::uint64_t e = *r - 1;
    outs[p] = shm::AcResult{(e & 1) != 0, static_cast<std::uint32_t>(e >> 1)};
    if (outs[p].value >= domain)
      return "validity violated: p" + std::to_string(p) + " output value " +
             std::to_string(outs[p].value) + " outside the domain";
  }
  for (const shm::AcResult& a : outs) {
    if (!a.committed) continue;
    for (std::size_t q = 0; q < n; ++q)
      if (outs[q].value != a.value)
        return "coherence violated: a commit of " + std::to_string(a.value) +
               " coexists with p" + std::to_string(q) + " outputting " +
               std::to_string(outs[q].value);
  }
  return std::nullopt;
}

/// AdoptCommit::propose with the announce write `b[value] <- 1` removed — a
/// planted coherence bug. Without the announcement, a slow proposer whose
/// value loses the race for `a` can still see a conflict-free b-array and
/// COMMIT its own late read of `a` while an earlier process already adopted
/// the other value. The explorer must find the interleaving.
shm::AcResult broken_ac_propose(Env& env, RegKey base, std::uint32_t domain,
                                std::uint32_t value) {
  // BUG (deliberate): step 1 of the construction, b[value] <- true, is
  // skipped here.
  const RegId a = env.reg(base);
  if (env.read(a) == 0) env.write(a, value + 1);
  const std::uint64_t w_enc = env.read(a);
  MM_ASSERT_MSG(w_enc != 0 && w_enc <= domain, "corrupt adopt-commit register");
  const auto w = static_cast<std::uint32_t>(w_enc - 1);
  for (std::uint32_t u = 0; u < domain; ++u) {
    if (u == w) continue;
    const RegKey b = RegKey::make(base.tag(), base.owner(), base.round(),
                                  static_cast<std::uint8_t>(base.slot() + 1 + u));
    if (env.read(env.reg(b)) != 0) return shm::AcResult{false, w};
  }
  return shm::AcResult{true, w};
}

// -- instance builders -------------------------------------------------------

Instance make_steppers2() {
  Instance in;
  in.name = "steppers2";
  in.description = "two independent 2-step processes: no shared state at all; "
                   "DPOR collapses the C(6,3)=20 naive interleavings";
  in.make = []() {
    auto rt = std::make_unique<SimRuntime>(explorable_config(graph::complete(2), 11));
    for (int p = 0; p < 2; ++p) {
      (void)p;
      rt->add_process([](Env& env) {
        env.step();
        env.step();
      });
    }
    return rt;
  };
  in.check = [](const SimRuntime& rt) -> std::optional<std::string> {
    for (std::uint32_t p = 0; p < 2; ++p)
      if (!rt.finished(Pid{p})) return "p" + std::to_string(p) + " did not finish";
    return std::nullopt;
  };
  return in;
}

/// One ping and a busy-wait receiver, optionally across an explorer-owned
/// partition window (`partition_mask`, side A). The schedules that starve
/// the sender spin forever, so exhausting this needs the state cache's
/// cycle prune. A run that hits its step budget is no violation: it leaves
/// the verdict budget-truncated, which tools/check fails on its own.
Instance make_pingpong(std::string name, std::uint64_t seed,
                       std::optional<std::uint64_t> partition_mask, std::string description) {
  Instance in;
  in.name = std::move(name);
  in.description = std::move(description);
  in.make = [seed, partition_mask]() {
    SimConfig cfg = explorable_config(graph::complete(2), seed);
    if (partition_mask.has_value()) {
      ExploreFaults ef;
      ef.partition_mask = partition_mask;
      cfg.explore_faults = ef;
    }
    auto rt = std::make_unique<SimRuntime>(cfg);
    rt->add_process([](Env& env) {
      Message m;
      m.kind = kPingKind;
      m.value = 42;
      env.send(Pid{1}, m);
    });
    rt->add_process([](Env& env) {
      std::vector<Message> msgs;
      for (;;) {
        env.drain_inbox(msgs);
        for (const Message& m : msgs)
          if (m.kind == kPingKind) {
            publish(env, m.value);
            return;
          }
        env.step();
      }
    });
    return rt;
  };
  in.check = [](const SimRuntime& rt) -> std::optional<std::string> {
    if (!rt.all_done()) return std::nullopt;
    const auto r = published(rt, 1);
    if (!r.has_value() || *r != 42)
      return "receiver published " + (r ? std::to_string(*r) : std::string{"nothing"}) +
             " instead of the ping payload";
    return std::nullopt;
  };
  in.dpor.idle_slice_collapse = true;
  in.dpor.max_steps_per_run = 2'000;
  in.dfs_feasible = false;  // DFS has no cycle prune: spin branches never end
  in.dfs.max_runs = 200;
  in.dfs.max_steps_per_run = 200;
  return in;
}

Instance make_ac(std::string name, std::size_t n, bool broken) {
  Instance in;
  in.name = std::move(name);
  in.description = std::string{broken ? "PLANTED BUG: p0 skips the announce write — "
                                        "an interleaving commits against an adopt"
                                      : "adopt-commit coherence + validity"} +
                   " (n=" + std::to_string(n) + ", conflicting inputs)";
  const auto base = RegKey::make(kAcTag, Pid{0}, 1);
  in.make = [n, broken, base]() {
    auto rt = std::make_unique<SimRuntime>(
        explorable_config(graph::complete(n), 3 + (broken ? 100 : 0) + n));
    for (std::uint32_t p = 0; p < n; ++p) {
      const std::uint32_t input = p == 0 ? 0 : 1;  // p0 vs everyone else
      rt->add_process([p, input, broken, base](Env& env) {
        shm::AcResult r;
        if (broken && p == 0) {
          r = broken_ac_propose(env, base, 2, input);
        } else {
          const shm::AdoptCommit ac{base, 2};
          r = ac.propose(env, input);
        }
        publish(env, ac_encode(r));
      });
    }
    return rt;
  };
  in.check = [](const SimRuntime& rt) { return ac_check(rt, 2); };
  in.expect_violation = broken;
  in.dfs.max_runs = 500'000;
  if (n >= 3) {
    in.dfs_feasible = false;  // ~(3k)!/(k!)^3 interleavings: beyond CI budget
    in.dfs.max_runs = 20'000;
  }
  return in;
}

Instance make_cas2() {
  Instance in;
  in.name = "cas2";
  in.description = "CAS consensus object, 2 processes with conflicting "
                   "proposals: agreement + validity over every schedule";
  in.make = []() {
    auto rt = std::make_unique<SimRuntime>(explorable_config(graph::complete(2), 7));
    for (std::uint32_t p = 0; p < 2; ++p)
      rt->add_process([p](Env& env) {
        const shm::ConsensusObject obj{RegKey::make(kCasTag, Pid{0}, 1), 2,
                                       shm::ConsensusImpl::kCas};
        publish(env, 1 + obj.propose(env, p));
      });
    return rt;
  };
  in.check = [](const SimRuntime& rt) -> std::optional<std::string> {
    std::optional<std::uint64_t> agreed;
    for (std::size_t p = 0; p < 2; ++p) {
      const auto r = published(rt, p);
      if (!r.has_value()) return "p" + std::to_string(p) + " never decided";
      if (*r != 1 && *r != 2)
        return "validity violated: p" + std::to_string(p) + " decided a value "
               "nobody proposed";
      if (agreed.has_value() && *agreed != *r)
        return "agreement violated: decisions " + std::to_string(*agreed - 1) +
               " and " + std::to_string(*r - 1);
      agreed = *r;
    }
    return std::nullopt;
  };
  in.dfs.max_runs = 200'000;
  return in;
}

std::optional<std::string> hbo_check(const SimRuntime& rt) {
  std::optional<std::uint64_t> agreed;
  for (std::size_t p = 0; p < rt.config().n(); ++p) {
    const Pid pid{static_cast<std::uint32_t>(p)};
    if (rt.crashed(pid)) continue;
    if (!rt.finished(pid))
      return "live p" + std::to_string(p) + " did not terminate within the step "
             "budget (false termination: the oracle's claim fails on this schedule)";
    const auto r = published(rt, p);
    if (!r.has_value() || *r == kHboUndecided)
      return "p" + std::to_string(p) + " finished undecided";
    if (*r != 1 && *r != 2)
      return "validity violated: p" + std::to_string(p) + " decided a non-input";
    if (agreed.has_value() && *agreed != *r)
      return "agreement violated: decisions " + std::to_string(*agreed - 1) + " and " +
             std::to_string(*r - 1);
    agreed = *r;
  }
  return std::nullopt;
}

Instance make_hbo3_crash() {
  Instance in;
  in.name = "hbo3-crash";
  in.description = "HBO consensus, n=3 complete GSM, p2 initially dead, inputs "
                   "{0,1}: agreement + validity + termination over every "
                   "schedule (the tentpole exhaustive proof)";
  in.make = []() {
    SimConfig cfg = explorable_config(graph::complete(3), 17);
    cfg.crash_at = {std::nullopt, std::nullopt, Step{0}};
    auto rt = std::make_unique<SimRuntime>(cfg);
    // Register-operation granularity (auto-step stays ON): the adversary
    // may interleave at every CAS on the representation consensus objects —
    // the granularity the paper's safety argument is about.
    auto gsm = std::make_shared<graph::Graph>(graph::complete(3));
    for (std::uint32_t p = 0; p < 2; ++p)  // inputs 0 and 1
      rt->add_process([gsm, p](Env& env) {
        run_hbo_and_publish(env, *gsm, p, 8, res_key(env.self()));
      });
    rt->add_process([](Env&) {});  // p2: crashed at step 0, never runs
    return rt;
  };
  in.check = hbo_check;
  // HBO's awaits are busy-wait pumps with no per-iteration state: collapse
  // is sound and required (else starving schedules spin to the step budget).
  in.dpor.idle_slice_collapse = true;
  in.dpor.max_steps_per_run = 20'000;
  // Feasible for the DFS too (~68k runs): with the decide broadcast, round 1
  // terminates on every schedule, so the tree is big but finite.
  in.dfs.max_runs = 200'000;
  return in;
}

Instance make_hbo3_stuck() {
  Instance in;
  in.name = "hbo3-stuck";
  in.description = "PLANTED BUG: HBO on an edgeless GSM with only p0 alive — "
                   "no majority is ever represented, so p0 spins forever and "
                   "the termination oracle must flag the truncated run";
  in.make = []() {
    SimConfig cfg = explorable_config(graph::edgeless(3), 19);
    cfg.crash_at = {std::nullopt, Step{0}, Step{0}};
    auto rt = std::make_unique<SimRuntime>(cfg);
    rt->set_auto_step_on_shm(false);
    auto gsm = std::make_shared<graph::Graph>(graph::edgeless(3));
    rt->add_process([gsm](Env& env) {
      run_hbo_and_publish(env, *gsm, 0, 8, res_key(env.self()));
    });
    rt->add_process([](Env&) {});
    rt->add_process([](Env&) {});
    return rt;
  };
  in.check = hbo_check;
  in.expect_violation = true;
  // Collapse stays OFF: the spin must surface as a truncated run (which the
  // oracle flags), not vanish into a cycle prune.
  in.dpor.max_steps_per_run = 400;
  in.dpor.max_runs = 50;
  in.dfs.max_steps_per_run = 400;
  in.dfs.max_runs = 50;
  return in;
}

/// Round-robin over the REAL runnable prefix. Under explore_faults the
/// policy list carries fault pseudo-pids after the real pids; a
/// deterministic warmup/baseline run must never fire those (they belong to
/// the explorer), so the modulus stops at the first pseudo entry.
std::size_t real_prefix(const std::vector<Pid>& runnable, std::size_t n) {
  std::size_t k = 0;
  while (k < runnable.size() && runnable[k].index() < n) ++k;
  return k;
}

Instance make_omega2(std::string name, bool partitioned) {
  constexpr std::uint64_t kTimeout = 8;  // η+1, in iterations
  constexpr int kTotalIters = 16;        // per-process loop bound
  constexpr Step kWarmSteps = 24;        // 12 round-robin iterations each

  Instance in;
  in.name = std::move(name);
  in.description =
      partitioned
          ? "omega2-steady plus an explorer-owned transient partition window: "
            "the held window is shorter than the suffix's 4 iterations < "
            "timeout, so EVERY toggle placement keeps the leader stable and "
            "the steady-state metrics unchanged (Theorem 5.1 under transient "
            "partitions)"
          : "Omega (message mech), n=2: after a fixed round-robin "
            "stabilization prefix, EVERY schedule of the remaining "
            "iterations keeps the leader stable, sends nothing, and "
            "writes only through the leader (Theorem 5.1 steady state)";
  const auto make = [partitioned]() {
    SimConfig cfg = explorable_config(graph::complete(2), 23);
    if (partitioned) {
      ExploreFaults ef;
      ef.partition_mask = 0b01;  // {p0} | {p1}
      cfg.explore_faults = ef;
    }
    auto rt = std::make_unique<SimRuntime>(cfg);
    rt->set_auto_step_on_shm(false);
    for (std::uint32_t p = 0; p < 2; ++p) {
      (void)p;
      rt->add_process([](Env& env) {
        core::OmegaMM om({core::OmegaMM::NotifyMech::kMessage, kTimeout});
        om.begin(env);
        for (int i = 0; i < kTotalIters; ++i) {
          om.iterate(env);
          env.step();
        }
        publish(env, 1 + static_cast<std::uint64_t>(om.leader().value()));
      });
    }
    // Deterministic round-robin warmup baked into construction: every
    // replay shares the same stabilization prefix and the explorers own
    // only the steady-state suffix. The suffix is 4 iterations per process
    // — strictly less than the timeout, so no schedule can manufacture an
    // accusation and the silence claim is schedule-independent.
    auto turn = std::make_shared<std::size_t>(0);
    rt->set_schedule_policy([turn](const std::vector<Pid>& runnable) {
      return (*turn)++ % real_prefix(runnable, 2);
    });
    (void)rt->run_steps(kWarmSteps);
    return rt;
  };
  in.make = make;

  // Baseline: one canonical round-robin completion fixes the expected
  // leader and the exact message/write counts every explored schedule must
  // reproduce (counts are per-process and loop-bounded, hence
  // schedule-independent — any divergence is steady-state activity).
  struct Baseline {
    runtime::Metrics metrics{0};
    std::uint64_t leader_enc = 0;
  };
  auto baseline = std::make_shared<Baseline>();
  {
    auto rt = make();
    auto turn = std::make_shared<std::size_t>(0);
    rt->set_schedule_policy([turn](const std::vector<Pid>& runnable) {
      return (*turn)++ % real_prefix(runnable, 2);
    });
    const bool done = rt->run_until_all_done(100'000);
    MM_ASSERT_MSG(done, "omega2 baseline run did not terminate");
    rt->shutdown();
    baseline->metrics = rt->metrics();
    const auto r = published(*rt, 0);
    MM_ASSERT_MSG(r.has_value(), "omega2 baseline published no leader");
    baseline->leader_enc = *r;
  }

  in.check = [baseline](const SimRuntime& rt) -> std::optional<std::string> {
    for (std::size_t p = 0; p < 2; ++p) {
      if (!rt.finished(Pid{static_cast<std::uint32_t>(p)}))
        return "p" + std::to_string(p) + " did not finish its bounded run";
      const auto r = published(rt, p);
      if (!r.has_value())
        return "p" + std::to_string(p) + " published no leader";
      if (*r != baseline->leader_enc)
        return "leadership unstable: p" + std::to_string(p) + " ended on leader " +
               std::to_string(*r - 1) + " instead of " +
               std::to_string(baseline->leader_enc - 1);
    }
    const auto& m = rt.metrics();
    if (m.msgs_sent != baseline->metrics.msgs_sent)
      return "steady-state silence violated: " + std::to_string(m.msgs_sent) +
             " total sends vs the stabilized baseline's " +
             std::to_string(baseline->metrics.msgs_sent);
    if (m.writes_by_proc != baseline->metrics.writes_by_proc)
      return "steady-state write pattern diverged: some schedule made a "
             "non-leader write (or changed the leader's heartbeat count)";
    return std::nullopt;
  };
  in.dfs.max_runs = 500'000;
  return in;
}

// -- fault-bearing instances (SimConfig::explore_faults) ---------------------

Instance make_hbo3_anycrash() {
  Instance in;
  in.name = "hbo3-anycrash";
  in.description = "HBO consensus, n=3 complete GSM, all alive, inputs "
                   "{0,1,1}; the explorer owns a crash event for p2 and "
                   "proves agreement + validity + termination for EVERY "
                   "crash placement, including 'never crashes' — the "
                   "configuration E18's chaos campaigns could only sample";
  in.make = []() {
    SimConfig cfg = explorable_config(graph::complete(3), 29);
    ExploreFaults ef;
    ef.crashes = {Pid{2}};
    cfg.explore_faults = ef;
    auto rt = std::make_unique<SimRuntime>(cfg);
    auto gsm = std::make_shared<graph::Graph>(graph::complete(3));
    for (std::uint32_t p = 0; p < 3; ++p)
      rt->add_process([gsm, p](Env& env) {
        run_hbo_and_publish(env, *gsm, p == 0 ? 0 : 1, 8, res_key(env.self()));
      });
    return rt;
  };
  in.check = hbo_check;
  in.dpor.idle_slice_collapse = true;
  in.dpor.max_steps_per_run = 20'000;
  in.dfs_feasible = false;  // three live HBO runs: far beyond the DFS budget
  in.dfs.max_runs = 20'000;
  return in;
}

Instance make_abd4_drop(std::string name, std::uint32_t drop_budget) {
  Instance in;
  in.name = std::move(name);
  in.description = "ABD atomic register, n=4, writer performs one quorum "
                   "write of 7 while three servers help; the explorer owns "
                   "a " + std::to_string(drop_budget) + "-message drop "
                   "budget and proves every completed schedule lands the "
                   "write (placements chosen adversarially, including "
                   "none; schedules where drops starve the quorum livelock "
                   "and are pruned as cycles, so safety is what's checked). "
                   "The writer's read-back is omitted on purpose: three "
                   "quorum phases push the trace space past any budget "
                   "(docs/EXPERIMENTS.md E19)";
  in.make = [drop_budget]() {
    SimConfig cfg = explorable_config(graph::complete(4), 43);
    ExploreFaults ef;
    ef.drop_budget = drop_budget;
    cfg.explore_faults = ef;
    auto rt = std::make_unique<SimRuntime>(cfg);
    rt->add_process([](Env& env) {
      core::AbdRegister abd({Pid{0}, 0});
      publish(env, abd.write(env, 7) ? 7 : 1);
    });
    for (std::uint32_t p = 1; p < 4; ++p) {
      (void)p;
      rt->add_process([](Env& env) {
        core::AbdRegister abd({Pid{0}, 0});
        // Serve until the writer publishes its verdict, then retire (keeps
        // every completed schedule finite for the termination check).
        const RegId done = env.reg(res_key(Pid{0}));
        while (env.read(done) == 0) {
          abd.serve(env);
          env.step();
        }
      });
    }
    return rt;
  };
  in.check = [](const SimRuntime& rt) -> std::optional<std::string> {
    // A run the drops stalled until its step budget is no violation: the
    // verdict reads budget-truncated, which tools/check fails on its own.
    if (!rt.all_done()) return std::nullopt;
    const auto r = published(rt, 0);
    if (!r.has_value() || *r != 7)
      return "quorum write failed: the writer published " +
             (r ? std::to_string(*r) : std::string{"nothing"}) +
             " instead of acking its write";
    return std::nullopt;
  };
  in.dpor.idle_slice_collapse = true;  // serve loops spin between messages
  in.dpor.max_steps_per_run = 20'000;
  in.dfs_feasible = false;  // serve spins never end without the cycle prune
  in.dfs.max_runs = 200;
  in.dfs.max_steps_per_run = 400;
  return in;
}

Instance make_crashwin3() {
  Instance in;
  in.name = "crashwin3";
  in.description = "PLANTED BUG: p2 publishes a provisional answer and "
                   "corrects it one step later; an explorer-placed crash "
                   "inside that two-step window freezes the provisional "
                   "value — a crash-timing bug only crash-at-step-k "
                   "exploration (not a fixed crash plan) can catch";
  in.make = []() {
    SimConfig cfg = explorable_config(graph::complete(3), 37);
    ExploreFaults ef;
    ef.crashes = {Pid{2}};
    cfg.explore_faults = ef;
    auto rt = std::make_unique<SimRuntime>(cfg);
    for (int p = 0; p < 2; ++p) {
      (void)p;
      rt->add_process([](Env& env) { publish(env, 2); });
    }
    rt->add_process([](Env& env) {
      publish(env, 1);  // BUG (deliberate): provisional answer made visible
      publish(env, 2);  // corrected one write later
    });
    return rt;
  };
  in.check = [](const SimRuntime& rt) -> std::optional<std::string> {
    // Crashed processes are NOT skipped: what a crash leaves visible is the
    // point. Only a process that never published is vacuously clean.
    for (std::size_t p = 0; p < 3; ++p) {
      const auto r = published(rt, p);
      if (r.has_value() && *r != 2)
        return "agreement violated: p" + std::to_string(p) + " left value " +
               std::to_string(*r) +
               " visible (crashed inside its correction window)";
    }
    return std::nullopt;
  };
  in.expect_violation = true;
  return in;
}

Instance make_dropval2() {
  Instance in;
  in.name = "dropval2";
  in.description = "PLANTED BUG: the sender streams VALUE then DONE over a "
                   "reliable FIFO link and the receiver trusts any "
                   "DONE-terminated stream; one explorer-placed drop erases "
                   "VALUE at the queue head and the receiver publishes its "
                   "default — a loss-masked validity bug";
  in.make = []() {
    SimConfig cfg = explorable_config(graph::complete(2), 31);
    ExploreFaults ef;
    ef.drop_budget = 1;
    cfg.explore_faults = ef;
    auto rt = std::make_unique<SimRuntime>(cfg);
    rt->add_process([](Env& env) {
      Message v;
      v.kind = kValKind;
      v.value = 7;
      env.send(Pid{1}, v);
      Message d;
      d.kind = kDoneKind;
      env.send(Pid{1}, d);
    });
    rt->add_process([](Env& env) {
      std::uint64_t seen = 99;  // BUG (deliberate): default survives to publish
      std::vector<Message> msgs;
      for (;;) {
        env.drain_inbox(msgs);
        bool done = false;
        for (const Message& m : msgs) {
          if (m.kind == kValKind) seen = m.value;
          if (m.kind == kDoneKind) done = true;
        }
        if (done) {
          publish(env, seen);
          return;
        }
        env.step();
      }
    });
    return rt;
  };
  in.check = [](const SimRuntime& rt) -> std::optional<std::string> {
    // Liveness is out of scope (a dropped DONE legitimately starves the
    // receiver); the planted bug is validity of what it does publish.
    const auto r = published(rt, 1);
    if (r.has_value() && *r != 7)
      return "validity violated: receiver accepted a DONE-terminated stream "
             "that lost its VALUE and published " + std::to_string(*r);
    return std::nullopt;
  };
  in.expect_violation = true;
  in.dpor.idle_slice_collapse = true;  // dropped-DONE schedules spin forever
  in.dpor.max_steps_per_run = 2'000;
  in.dfs.max_runs = 20'000;  // spin branches truncate at the step budget
  in.dfs.max_steps_per_run = 200;
  return in;
}

}  // namespace

void run_hbo_and_publish(Env& env, const graph::Graph& gsm, std::uint32_t input,
                         std::uint64_t max_rounds, RegKey result) {
  core::HboConsensus::Config hc;
  hc.gsm = &gsm;
  hc.impl = shm::ConsensusImpl::kCas;
  hc.max_rounds = max_rounds;
  core::HboConsensus hbo(hc, input);
  hbo.run(env);
  env.write(env.reg(result), hbo.decision() < 0
                                 ? kHboUndecided
                                 : 1 + static_cast<std::uint64_t>(hbo.decision()));
}

const std::vector<Instance>& instances() {
  static const std::vector<Instance>* kInstances = [] {
    auto* v = new std::vector<Instance>;
    v->push_back(make_steppers2());
    v->push_back(make_pingpong("pingpong2", 13, std::nullopt,
                               "one message and a busy-wait receiver: the schedules that "
                               "starve the sender spin forever, so exhausting this needs "
                               "the state cache's cycle prune (idle-slice collapse)"));
    v->push_back(make_ac("ac2", 2, /*broken=*/false));
    v->push_back(make_ac("ac3", 3, /*broken=*/false));
    v->push_back(make_ac("ac4", 4, /*broken=*/false));
    v->push_back(make_ac("ac5", 5, /*broken=*/false));
    v->push_back(make_cas2());
    v->push_back(make_hbo3_crash());
    v->push_back(make_hbo3_anycrash());
    v->push_back(make_abd4_drop("abd4-drop", 1));
    v->push_back(make_abd4_drop("abd4-drop2", 2));
    v->push_back(make_pingpong("pingpart2", 41, 0b01,  // {p0} | {p1}
                               "pingpong2 across an explorer-owned transient partition "
                               "window ({p0}|{p1}): toggles may land anywhere around the "
                               "ping; held messages re-inject with their original stamps, "
                               "so every completed schedule still delivers the payload"));
    v->push_back(make_omega2("omega2-steady", /*partitioned=*/false));
    v->push_back(make_omega2("omega2-part", /*partitioned=*/true));
    v->push_back(make_ac("ac2-broken", 2, /*broken=*/true));
    v->push_back(make_ac("ac3-broken", 3, /*broken=*/true));
    v->push_back(make_hbo3_stuck());
    v->push_back(make_crashwin3());
    v->push_back(make_dropval2());
    return v;
  }();
  return *kInstances;
}

const Instance* find_instance(std::string_view name) {
  for (const Instance& i : instances())
    if (i.name == name) return &i;
  return nullptr;
}

namespace {

/// Thrown out of the verify callback to stop exploration at the first
/// oracle violation (propagates cleanly through both explorers).
struct ViolationFound {
  std::string message;
  std::uint64_t run;
};

}  // namespace

InstanceVerdict check_instance_dpor(const Instance& inst) {
  return check_instance_dpor(inst, inst.dpor);
}

InstanceVerdict check_instance_dpor(const Instance& inst, const DporOptions& options) {
  InstanceVerdict out;
  std::uint64_t verified = 0;
  try {
    out.result = explore_dpor(
        inst.make,
        [&](SimRuntime& rt) {
          ++verified;
          if (auto m = inst.check(rt)) throw ViolationFound{std::move(*m), verified};
        },
        options);
  } catch (const ViolationFound& f) {
    out.violation = f.message;
    out.violation_run = f.run;
  }
  return out;
}

InstanceVerdict check_instance_dfs(const Instance& inst) {
  return check_instance_dfs(inst, inst.dfs);
}

InstanceVerdict check_instance_dfs(const Instance& inst, const ExploreOptions& options) {
  InstanceVerdict out;
  std::uint64_t verified = 0;
  try {
    out.result = explore_schedules(
        inst.make,
        [&](SimRuntime& rt) {
          ++verified;
          if (auto m = inst.check(rt)) throw ViolationFound{std::move(*m), verified};
        },
        options);
  } catch (const ViolationFound& f) {
    out.violation = f.message;
    out.violation_run = f.run;
  }
  return out;
}

}  // namespace mm::check
