// Exhaustive schedule exploration: for small instances, safety properties
// are verified over EVERY interleaving — the strongest guarantee this suite
// offers, and a direct consistency check of the simulator's determinism.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>

#include "check/explore.hpp"
#include "core/mutex.hpp"
#include "graph/generators.hpp"
#include "runtime/footprint.hpp"
#include "shm/adopt_commit.hpp"
#include "shm/consensus_object.hpp"

namespace mm::check {
namespace {

using runtime::Env;
using runtime::RegKey;
using runtime::SimConfig;
using runtime::SimRuntime;

constexpr std::uint8_t kTag = 0x60;

TEST(Explore, CountsInterleavingsOfIndependentSteppers) {
  // Two processes, each taking exactly 2 steps (plus the final activation
  // that lets the body return): the number of schedules is a small, exact
  // combinatorial quantity, and exploration must terminate exhaustively.
  std::uint64_t total_runs = 0;
  const auto result = explore_schedules(
      [&]() {
        SimConfig cfg;
        cfg.gsm = graph::complete(2);
        cfg.seed = 1;
        auto rt = std::make_unique<SimRuntime>(cfg);
        for (int p = 0; p < 2; ++p)
          rt->add_process([](Env& env) {
            env.step();
            env.step();
          });
        return rt;
      },
      [&](SimRuntime&) { ++total_runs; });
  EXPECT_EQ(result.exhaustiveness, Exhaustiveness::kFull);
  EXPECT_TRUE(result.all_runs_completed);
  EXPECT_EQ(result.runs, total_runs);
  // Each process makes 3 scheduler activations; interleavings = C(6,3) = 20.
  EXPECT_EQ(result.runs, 20u);
}

TEST(Explore, DeterministicReplayProducesIdenticalBranching) {
  // Re-exploring the same configuration twice covers the same tree.
  auto make = []() {
    SimConfig cfg;
    cfg.gsm = graph::complete(2);
    cfg.seed = 7;
    auto rt = std::make_unique<SimRuntime>(cfg);
    for (int p = 0; p < 2; ++p)
      rt->add_process([](Env& env) {
        const RegId r = env.reg(RegKey::make(kTag, Pid{0}));
        env.write(r, env.self().value() + 1);
        (void)env.read(r);
      });
    return rt;
  };
  const auto a = explore_schedules(make, [](SimRuntime&) {});
  const auto b = explore_schedules(make, [](SimRuntime&) {});
  EXPECT_EQ(a.exhaustiveness, Exhaustiveness::kFull);
  EXPECT_EQ(a.runs, b.runs);
}

TEST(Explore, AdoptCommitCoherenceOverAllSchedules) {
  // THE exhaustive result: for 2 processes with conflicting inputs, the
  // adopt-commit object satisfies Coherence and Validity on EVERY schedule.
  auto results = std::make_shared<std::vector<std::optional<shm::AcResult>>>();
  std::uint64_t commits_seen = 0;
  std::uint64_t conflicts_seen = 0;
  const auto result = explore_schedules(
      [&]() {
        results->assign(2, std::nullopt);
        SimConfig cfg;
        cfg.gsm = graph::complete(2);
        cfg.seed = 3;
        auto rt = std::make_unique<SimRuntime>(cfg);
        for (std::uint32_t p = 0; p < 2; ++p)
          rt->add_process([results, p](Env& env) {
            const shm::AdoptCommit ac{RegKey::make(kTag, Pid{0}, 1), 2};
            (*results)[p] = ac.propose(env, p);  // inputs 0 vs 1
          });
        return rt;
      },
      [&](SimRuntime&) {
        const auto& r0 = (*results)[0];
        const auto& r1 = (*results)[1];
        ASSERT_TRUE(r0.has_value() && r1.has_value());
        // Validity: inputs were 0 and 1, so any output is fine; Coherence:
        if (r0->committed || r1->committed) {
          EXPECT_EQ(r0->value, r1->value) << "coherence violated";
          ++commits_seen;
        }
        if (r0->value != r1->value) ++conflicts_seen;
      });
  EXPECT_EQ(result.exhaustiveness, Exhaustiveness::kFull);
  EXPECT_TRUE(result.all_runs_completed);
  EXPECT_GT(result.runs, 100u);       // a real tree, not a degenerate one
  EXPECT_GT(conflicts_seen, 0u);      // adopt-with-different-values happens
  std::printf("[ explored %llu schedules; %llu with a commit ]\n",
              static_cast<unsigned long long>(result.runs),
              static_cast<unsigned long long>(commits_seen));
}

TEST(Explore, AdoptCommitConvergenceOverAllSchedules) {
  // Unanimous inputs must commit on every schedule (Convergence).
  auto results = std::make_shared<std::vector<std::optional<shm::AcResult>>>();
  const auto result = explore_schedules(
      [&]() {
        results->assign(2, std::nullopt);
        SimConfig cfg;
        cfg.gsm = graph::complete(2);
        cfg.seed = 5;
        auto rt = std::make_unique<SimRuntime>(cfg);
        for (std::uint32_t p = 0; p < 2; ++p)
          rt->add_process([results, p](Env& env) {
            const shm::AdoptCommit ac{RegKey::make(kTag, Pid{0}, 2), 2};
            (*results)[p] = ac.propose(env, 1);
          });
        return rt;
      },
      [&](SimRuntime&) {
        for (const auto& r : *results) {
          ASSERT_TRUE(r.has_value());
          EXPECT_TRUE(r->committed);
          EXPECT_EQ(r->value, 1u);
        }
      });
  EXPECT_EQ(result.exhaustiveness, Exhaustiveness::kFull);
}

TEST(Explore, CasConsensusAgreementOverAllSchedules) {
  auto results = std::make_shared<std::vector<std::optional<std::uint32_t>>>();
  const auto result = explore_schedules(
      [&]() {
        results->assign(2, std::nullopt);
        SimConfig cfg;
        cfg.gsm = graph::complete(2);
        cfg.seed = 9;
        auto rt = std::make_unique<SimRuntime>(cfg);
        for (std::uint32_t p = 0; p < 2; ++p)
          rt->add_process([results, p](Env& env) {
            const shm::ConsensusObject obj{RegKey::make(kTag, Pid{0}, 3), 2,
                                           shm::ConsensusImpl::kCas};
            (*results)[p] = obj.propose(env, p);
          });
        return rt;
      },
      [&](SimRuntime&) {
        ASSERT_TRUE((*results)[0].has_value() && (*results)[1].has_value());
        EXPECT_EQ(*(*results)[0], *(*results)[1]);
      });
  EXPECT_EQ(result.exhaustiveness, Exhaustiveness::kFull);
}

TEST(Explore, RwConsensusAgreementBoundedExploration) {
  // The RW object's tree is too big to exhaust (coins lengthen runs), but a
  // large bounded prefix of it must still be uniformly safe.
  auto results = std::make_shared<std::vector<std::optional<std::uint32_t>>>();
  ExploreOptions options;
  options.max_runs = 5'000;
  const auto result = explore_schedules(
      [&]() {
        results->assign(2, std::nullopt);
        SimConfig cfg;
        cfg.gsm = graph::complete(2);
        cfg.seed = 11;
        auto rt = std::make_unique<SimRuntime>(cfg);
        for (std::uint32_t p = 0; p < 2; ++p)
          rt->add_process([results, p](Env& env) {
            const shm::ConsensusObject obj{RegKey::make(kTag, Pid{0}, 4), 2,
                                           shm::ConsensusImpl::kRw};
            (*results)[p] = obj.propose(env, p);
          });
        return rt;
      },
      [&](SimRuntime&) {
        ASSERT_TRUE((*results)[0].has_value() && (*results)[1].has_value());
        EXPECT_EQ(*(*results)[0], *(*results)[1]);
      },
      options);
  EXPECT_EQ(result.runs, 5'000u);
  EXPECT_TRUE(result.all_runs_completed);
}

TEST(Explore, PreemptionBoundShrinksTree) {
  // The same two-stepper configuration as CountsInterleavings: with a
  // preemption budget of 0, only the schedules that never switch away from
  // a runnable process survive — i.e. run p0 to completion then p1, or vice
  // versa: exactly 2 schedules instead of 20.
  auto make = []() {
    SimConfig cfg;
    cfg.gsm = graph::complete(2);
    cfg.seed = 15;
    auto rt = std::make_unique<SimRuntime>(cfg);
    for (int p = 0; p < 2; ++p)
      rt->add_process([](Env& env) {
        env.step();
        env.step();
      });
    return rt;
  };
  ExploreOptions bounded;
  bounded.max_preemptions = 0;
  const auto none = explore_schedules(make, [](SimRuntime&) {}, bounded);
  EXPECT_EQ(none.exhaustiveness, Exhaustiveness::kWithinPreemptionBound);
  EXPECT_EQ(none.runs, 2u);

  bounded.max_preemptions = 1;
  const auto one = explore_schedules(make, [](SimRuntime&) {}, bounded);
  EXPECT_EQ(one.exhaustiveness, Exhaustiveness::kWithinPreemptionBound);
  EXPECT_GT(one.runs, 2u);
  EXPECT_LT(one.runs, 20u);

  bounded.max_preemptions = 10;  // more than the run length: full tree
  const auto full = explore_schedules(make, [](SimRuntime&) {}, bounded);
  // A bound was set, so the claim stays bound-conditional.
  EXPECT_EQ(full.exhaustiveness, Exhaustiveness::kWithinPreemptionBound);
  EXPECT_EQ(full.runs, 20u);
}

TEST(Explore, RwConsensusExhaustiveWithinPreemptionBound) {
  // Wait-free code + preemption bounding = tractable exhaustiveness: every
  // schedule of the RW consensus object with at most 2 preemptions is
  // verified — the CHESS sweet spot.
  auto results = std::make_shared<std::vector<std::optional<std::uint32_t>>>();
  ExploreOptions options;
  options.max_preemptions = 2;
  options.max_runs = 400'000;
  const auto result = explore_schedules(
      [&]() {
        results->assign(2, std::nullopt);
        SimConfig cfg;
        cfg.gsm = graph::complete(2);
        cfg.seed = 17;
        auto rt = std::make_unique<SimRuntime>(cfg);
        for (std::uint32_t p = 0; p < 2; ++p)
          rt->add_process([results, p](Env& env) {
            const shm::ConsensusObject obj{RegKey::make(kTag, Pid{0}, 5), 2,
                                           shm::ConsensusImpl::kRw};
            (*results)[p] = obj.propose(env, p);
          });
        return rt;
      },
      [&](SimRuntime&) {
        ASSERT_TRUE((*results)[0].has_value() && (*results)[1].has_value());
        EXPECT_EQ(*(*results)[0], *(*results)[1]);
      },
      options);
  EXPECT_EQ(result.exhaustiveness, Exhaustiveness::kWithinPreemptionBound)
      << result.runs << " runs without exhausting";
  EXPECT_TRUE(result.all_runs_completed);
  std::printf("[ rw-consensus: %llu schedules with <=2 preemptions, all agree ]\n",
              static_cast<unsigned long long>(result.runs));
}

TEST(Explore, ExhaustivenessContract) {
  // Pins the ExploreResult reporting contract (referenced from explore.hpp):
  // `exhaustiveness` carries the precise claim. The DFS has no state cache,
  // so its prune counters must stay zero, and final states are collected
  // only on request.
  auto make = []() {
    SimConfig cfg;
    cfg.gsm = graph::complete(2);
    cfg.seed = 19;
    auto rt = std::make_unique<SimRuntime>(cfg);
    for (int p = 0; p < 2; ++p)
      rt->add_process([](Env& env) {
        env.step();
        env.step();
      });
    return rt;
  };
  const auto none = [](SimRuntime&) {};

  // Unbounded + exhausted: the unconditional claim.
  ExploreOptions opts;
  opts.collect_final_states = true;
  const auto full = explore_schedules(make, none, opts);
  EXPECT_EQ(full.exhaustiveness, Exhaustiveness::kFull);
  EXPECT_EQ(full.runs_pruned_by_state_cache, 0u);
  EXPECT_EQ(full.runs_pruned_by_sleep_set, 0u);
  // Independent steppers touch no shared state: one reachable final state.
  EXPECT_EQ(full.final_states.size(), 1u);

  // Bound set + exhausted: the claim is the weaker, bound-conditional one.
  ExploreOptions bounded = opts;
  bounded.max_preemptions = 0;
  const auto within = explore_schedules(make, none, bounded);
  EXPECT_EQ(within.exhaustiveness, Exhaustiveness::kWithinPreemptionBound);

  // Run budget expires first: nothing exhaustive may be claimed, with or
  // without a preemption bound.
  ExploreOptions truncated = opts;
  truncated.max_runs = 3;
  const auto cut = explore_schedules(make, none, truncated);
  EXPECT_EQ(cut.runs, 3u);
  EXPECT_EQ(cut.exhaustiveness, Exhaustiveness::kBudgetTruncated);

  // Final states are opt-in.
  ExploreOptions quiet;
  quiet.collect_final_states = false;
  EXPECT_TRUE(explore_schedules(make, none, quiet).final_states.empty());
}

TEST(Explore, MutualExclusionBoundedExploration) {
  // Two contenders, one critical section each. The waiter's spin loop makes
  // the schedule tree infinite (arbitrarily many spin iterations can be
  // scheduled before the holder is), so exploration is budget-bounded; the
  // explored prefix must be uniformly exclusive.
  auto in_cs = std::make_shared<int>(0);
  auto violated = std::make_shared<bool>(false);
  ExploreOptions options;
  options.max_runs = 400;
  options.max_steps_per_run = 4'000;  // spin livelocks exist; bound them
  const auto result = explore_schedules(
      [&]() {
        *in_cs = 0;
        *violated = false;
        SimConfig cfg;
        cfg.gsm = graph::complete(2);
        cfg.seed = 13;
        auto rt = std::make_unique<SimRuntime>(cfg);
        for (std::uint32_t p = 0; p < 2; ++p)
          rt->add_process([in_cs, violated](Env& env) {
            core::SpinMutex mtx;
            core::MutexStats stats;
            mtx.lock(env, stats);
            if (++*in_cs != 1) *violated = true;
            env.step();
            --*in_cs;
            mtx.unlock(env);
          });
        return rt;
      },
      [&](SimRuntime&) { EXPECT_FALSE(*violated); },
      options);
  // Some explored branches livelock a spinner past the step budget; mutual
  // exclusion must hold on every branch regardless.
  EXPECT_GT(result.runs, 10u);
}

// ---------------------------------------------------------------------------
// footprints_dependent: the dependency matrix, class by class
// ---------------------------------------------------------------------------

// The independence relation is the DPOR soundness core: two steps may be
// declared independent ONLY if swapping them reaches the same state from
// every state where both are enabled. Each "dependent" row below carries its
// commutation counterexample in the name; each "independent" row is a pair
// the explorer is allowed to collapse. Pseudo-pids (>= 100 here) stand in
// for fault events, which are steps of their own scheduled pseudo-process.

using runtime::footprints_dependent;
using runtime::StepFootprint;

StepFootprint step_of(std::uint32_t pid) {
  StepFootprint f;
  f.clear(Pid{pid});
  return f;
}

StepFootprint crash_of(std::uint32_t victim, std::uint32_t pseudo) {
  StepFootprint f = step_of(pseudo);
  f.crash_mask = std::uint64_t{1} << victim;
  return f;
}

StepFootprint drop_to(std::uint32_t dest, std::uint32_t pseudo) {
  StepFootprint f = step_of(pseudo);
  f.drop_mask = std::uint64_t{1} << dest;
  return f;
}

StepFootprint toggle_cut(std::uint64_t side_a, std::uint32_t pseudo) {
  StepFootprint f = step_of(pseudo);
  f.part_toggle = true;
  f.part_mask = side_a;
  return f;
}

TEST(FootprintClasses, DependencyMatrixCoversEveryClassPair) {
  const RegKey ra = RegKey::make(kTag, Pid{0}, 1);
  const RegKey rb = RegKey::make(kTag, Pid{0}, 2);

  struct Row {
    const char* why;
    StepFootprint a;
    StepFootprint b;
    bool dependent;
  };
  std::vector<Row> rows;
  const auto row = [&rows](const char* why, StepFootprint a, StepFootprint b,
                           bool dependent) {
    rows.push_back(Row{why, std::move(a), std::move(b), dependent});
  };

  // -- register and channel classes (the pre-fault baseline) --
  {
    StepFootprint w0 = step_of(0), r1 = step_of(1);
    w0.add_write(ra);
    r1.add_read(ra);
    row("write/read same register: read sees the write iff it runs second", w0,
        r1, true);
  }
  {
    StepFootprint w0 = step_of(0), w1 = step_of(1);
    w0.add_write(ra);
    w1.add_write(ra);
    row("write/write same register: last writer wins", w0, w1, true);
  }
  {
    StepFootprint a = step_of(0), b = step_of(1);
    a.add_read(ra);
    b.add_read(ra);
    row("read/read same register commutes", a, b, false);
  }
  {
    StepFootprint a = step_of(0), b = step_of(1);
    a.add_write(ra);
    b.add_write(rb);
    row("writes to disjoint registers commute", a, b, false);
  }
  {
    StepFootprint s = step_of(0), t = step_of(1);
    s.add_send(Pid{2});
    t.add_send(Pid{2});
    row("two sends to one destination: inbox order is observable", s, t, true);
  }
  {
    StepFootprint s = step_of(0), d = step_of(2);
    s.add_send(Pid{2});
    d.drained = true;
    row("send racing the destination's drain: delivery lands before or after",
        s, d, true);
  }
  {
    StepFootprint s = step_of(0), d = step_of(2);
    s.add_send(Pid{1});
    d.drained = true;
    row("send to p1 vs p2's drain commutes", s, d, false);
  }
  {
    StepFootprint c = step_of(0), b = step_of(1);
    c.observed_clock = true;
    row("clock observation: time advances with every step", c, b, true);
  }
  {
    row("same process: program order", step_of(0), step_of(0), true);
  }

  // -- crash class --
  row("crash-of-p1 vs p1's step: the crash disables it (and its last step "
      "disables the crash)",
      crash_of(1, 100), step_of(1), true);
  {
    StepFootprint s = step_of(0);
    s.add_send(Pid{1});
    row("crash-of-p1 vs send-to-p1: landing before or after the crash "
        "decides if p1 can ever drain it",
        crash_of(1, 100), s, true);
  }
  row("crash-of-p1 vs p2's silent step commutes", crash_of(1, 100), step_of(2),
      false);

  // -- drop class --
  {
    StepFootprint s = step_of(0);
    s.add_send(Pid{1});
    row("drop-to-p1 vs send-to-p1: which message is at the queue head", //
        drop_to(1, 101), s, true);
  }
  {
    StepFootprint d = step_of(1);
    d.drained = true;
    row("drop-to-p1 vs p1's drain: drop-then-drain delivers one fewer",
        drop_to(1, 101), d, true);
  }
  row("drop-to-p1 vs p2's silent step commutes", drop_to(1, 101), step_of(2),
      false);

  // -- partition-toggle class --
  {
    StepFootprint s = step_of(0);
    s.add_send(Pid{1});
    row("toggle of {p0}|{p1,..} vs a crossing send: held back or delivered",
        toggle_cut(0b001, 102), s, true);
  }
  {
    StepFootprint s = step_of(1);
    s.add_send(Pid{2});
    row("toggle of {p0}|{p1,p2} vs a same-side send commutes",
        toggle_cut(0b001, 102), s, false);
  }

  // -- fault x fault: all pairs interfere (shared drop budget, window
  //    ordering, and any crash can close the >=1-real-runnable gate) --
  row("crash vs crash: the first can retire the last runnable process and "
      "disable the second",
      crash_of(1, 100), crash_of(2, 103), true);
  row("drop vs drop: both draw from the one budget", drop_to(1, 101),
      drop_to(2, 104), true);
  row("toggle vs toggle: on/off order IS the window", toggle_cut(0b001, 102),
      toggle_cut(0b001, 105), true);
  row("crash vs drop: the crash can close the scheduling gate",
      crash_of(2, 100), drop_to(1, 101), true);
  row("crash vs toggle: the crash can close the scheduling gate",
      crash_of(2, 100), toggle_cut(0b001, 102), true);
  row("drop vs toggle: the toggle decides whether the droppable message is "
      "in flight or held",
      drop_to(1, 101), toggle_cut(0b001, 102), true);

  // -- finishes class: fault events are schedulable only while >= 1 real
  //    process is runnable, so the step retiring the LAST real process
  //    closes that gate without touching anything the fault touches --
  {
    StepFootprint fin = step_of(2);
    fin.finishes = true;
    row("crash vs a finishing step: finish-then-crash may not exist",
        crash_of(1, 100), fin, true);
  }
  {
    StepFootprint fin = step_of(2);
    fin.finishes = true;
    row("drop vs a finishing step: finish-then-drop may not exist",
        drop_to(1, 101), fin, true);
  }
  {
    StepFootprint fin = step_of(2);
    fin.finishes = true;
    row("toggle vs a finishing step: finish-then-toggle may not exist",
        toggle_cut(0b001, 102), fin, true);
  }
  {
    StepFootprint f1 = step_of(0), f2 = step_of(1);
    f1.finishes = true;
    f2.finishes = true;
    row("two ordinary finishing steps commute (finishes only gates faults)",
        f1, f2, false);
  }

  for (const Row& r : rows) {
    EXPECT_EQ(footprints_dependent(r.a, r.b), r.dependent) << r.why;
    EXPECT_EQ(footprints_dependent(r.b, r.a), r.dependent)
        << r.why << " (relation must be symmetric)";
  }
}

TEST(FootprintClasses, MergePreservesFaultMarkers) {
  // The DPOR state cache merges whole subtrees into one aggregate footprint;
  // losing a fault marker would leave sleeping siblings asleep that the
  // subtree's events should wake.
  StepFootprint agg = step_of(0);
  agg.merge(crash_of(1, 100));
  agg.merge(drop_to(2, 101));
  agg.merge(toggle_cut(0b011, 102));
  StepFootprint fin = step_of(3);
  fin.finishes = true;
  agg.merge(fin);
  EXPECT_EQ(agg.crash_mask, std::uint64_t{1} << 1);
  EXPECT_EQ(agg.drop_mask, std::uint64_t{1} << 2);
  EXPECT_TRUE(agg.part_toggle);
  EXPECT_EQ(agg.part_mask, 0b011u);
  EXPECT_TRUE(agg.finishes);
  // The aggregate must now conflict with everything each class conflicts
  // with — e.g. a send to the dropped destination.
  StepFootprint s = step_of(4);
  s.add_send(Pid{2});
  EXPECT_TRUE(footprints_dependent(agg, s));
}

}  // namespace
}  // namespace mm::check
