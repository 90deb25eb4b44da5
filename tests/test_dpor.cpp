// DPOR model checker: reduction soundness is established DIFFERENTIALLY —
// the naive DFS enumerates every interleaving, DPOR must reach the same
// verdict and the same reachable final-state set with (far) fewer replays —
// and sensitivity is established by planted bugs the explorer must find
// within pinned budgets (trip-wires against reduction bugs that silently
// skip schedules).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/dpor.hpp"
#include "check/instances.hpp"
#include "graph/generators.hpp"
#include "runtime/env.hpp"
#include "runtime/fiber.hpp"

namespace mm::check {
namespace {

using runtime::Env;
using runtime::RegKey;
using runtime::SimConfig;
using runtime::SimRuntime;

constexpr std::uint8_t kTag = 0x63;

// -- differential: DPOR ⊆ DFS with identical verdict + final states ----------

TEST(Dpor, DifferentialOnInstanceCorpus) {
  // Every DFS-feasible clean instance: same (empty) violation verdict, same
  // reachable final-state set, strictly fewer DPOR replays.
  for (const Instance* inst :
       {find_instance("steppers2"), find_instance("ac2"), find_instance("cas2"),
        find_instance("omega2-steady")}) {
    ASSERT_NE(inst, nullptr);
    ASSERT_TRUE(inst->dfs_feasible);
    const InstanceVerdict dfs = check_instance_dfs(*inst);
    const InstanceVerdict dpor = check_instance_dpor(*inst, inst->dpor);
    EXPECT_FALSE(dfs.violation.has_value()) << inst->name << ": " << *dfs.violation;
    EXPECT_FALSE(dpor.violation.has_value()) << inst->name << ": " << *dpor.violation;
    EXPECT_EQ(dfs.result.exhaustiveness, Exhaustiveness::kFull) << inst->name;
    EXPECT_EQ(dpor.result.exhaustiveness, Exhaustiveness::kFull) << inst->name;
    EXPECT_EQ(dfs.result.final_states, dpor.result.final_states) << inst->name;
    EXPECT_LT(dpor.result.runs, dfs.result.runs) << inst->name;
  }
}

TEST(Dpor, ExplorersShareOneBudgetRule) {
  // Both explorers test the run budget before each run, and a tree that
  // runs out first is covered in full: a budget of exactly the tree's size
  // reads full, one run fewer reads budget-truncated, and 0 runs nothing.
  // steppers2's naive tree has C(6,3) = 20 runs; its DPOR walk is 1 replay.
  const Instance* inst = find_instance("steppers2");
  ASSERT_NE(inst, nullptr);
  const auto dfs = [inst](std::uint64_t budget) {
    ExploreOptions o = inst->dfs;
    o.max_runs = budget;
    return check_instance_dfs(*inst, o).result;
  };
  const auto dpor = [inst](std::uint64_t budget) {
    DporOptions o = inst->dpor;
    o.max_runs = budget;
    return check_instance_dpor(*inst, o).result;
  };
  const ExploreResult whole = dfs(20);
  EXPECT_EQ(whole.runs, 20u);
  EXPECT_EQ(whole.exhaustiveness, Exhaustiveness::kFull);
  const ExploreResult short_one = dfs(19);
  EXPECT_EQ(short_one.runs, 19u);
  EXPECT_EQ(short_one.exhaustiveness, Exhaustiveness::kBudgetTruncated);
  const ExploreResult none = dfs(0);
  EXPECT_EQ(none.runs, 0u);
  EXPECT_EQ(none.exhaustiveness, Exhaustiveness::kBudgetTruncated);

  const ExploreResult walk = dpor(1);
  EXPECT_EQ(walk.runs, 1u);
  EXPECT_EQ(walk.exhaustiveness, Exhaustiveness::kFull);
  const ExploreResult no_walk = dpor(0);
  EXPECT_EQ(no_walk.runs, 0u);
  EXPECT_EQ(no_walk.exhaustiveness, Exhaustiveness::kBudgetTruncated);
}

TEST(Dpor, TenfoldReductionOnPinnedInstance) {
  // The acceptance pin: on ac2 the naive tree has thousands of
  // interleavings and DPOR needs at least 10x fewer replays. (Measured
  // 2716 -> 8; the pin leaves headroom for harness drift, and the
  // differential test above keeps the reduction honest.)
  const Instance* ac2 = find_instance("ac2");
  ASSERT_NE(ac2, nullptr);
  const InstanceVerdict dfs = check_instance_dfs(*ac2);
  const InstanceVerdict dpor = check_instance_dpor(*ac2);
  ASSERT_FALSE(dfs.violation.has_value());
  ASSERT_FALSE(dpor.violation.has_value());
  EXPECT_GT(dfs.result.runs, 1000u);
  EXPECT_GE(dfs.result.runs, 10 * dpor.result.runs)
      << "DPOR reduction regressed below 10x: " << dfs.result.runs << " vs "
      << dpor.result.runs;
}

// -- planted bugs: the explorer must FIND these ------------------------------

TEST(Dpor, FindsPlantedAdoptCommitCoherenceBug) {
  // p0 skips the announce write; an interleaving where p1 commits 1 against
  // p0's adopt of 0 exists and DPOR must reach it fast. The pinned budget is
  // a trip-wire: a reduction bug that drops schedules shows up here first
  // (measured: violation on verified run 3 for both n=2 and n=3).
  for (const char* name : {"ac2-broken", "ac3-broken"}) {
    const Instance* inst = find_instance(name);
    ASSERT_NE(inst, nullptr);
    ASSERT_TRUE(inst->expect_violation);
    const InstanceVerdict v = check_instance_dpor(*inst);
    ASSERT_TRUE(v.violation.has_value()) << name << ": planted bug not found";
    EXPECT_NE(v.violation->find("coherence"), std::string::npos) << *v.violation;
    EXPECT_LE(v.violation_run, 10u) << name << ": trip-wire budget blown";
  }
}

TEST(Dpor, FindsPlantedFalseTerminationBug) {
  // The chaos suite's false-termination invariant, re-planted for the
  // checker: an edgeless GSM with one live process can never represent a
  // majority, so the very first schedule truncates and the oracle flags it.
  const Instance* inst = find_instance("hbo3-stuck");
  ASSERT_NE(inst, nullptr);
  const InstanceVerdict v = check_instance_dpor(*inst);
  ASSERT_TRUE(v.violation.has_value());
  EXPECT_NE(v.violation->find("did not terminate"), std::string::npos) << *v.violation;
  EXPECT_EQ(v.violation_run, 1u);
  // The DFS baseline sees the same bug on the same first run.
  const InstanceVerdict d = check_instance_dfs(*inst);
  ASSERT_TRUE(d.violation.has_value());
  EXPECT_EQ(d.violation_run, 1u);
}

// -- fault pseudo-processes: DFS-vs-DPOR differential per class --------------

// Micro-instances with BOUNDED bodies (no awaits), so the naive DFS can
// enumerate every interleaving *including* every fault-event placement.
// Each fault class gets one: the differential proves the class's dependency
// rules (runtime/footprint.hpp) lose no reachable final state.

std::unique_ptr<SimRuntime> make_fault_micro(runtime::ExploreFaults ef, int recv_iters) {
  SimConfig cfg;
  cfg.gsm = graph::complete(2);
  cfg.seed = 31;
  cfg.min_delay = 1;
  cfg.max_delay = 1;
  cfg.explore_faults = std::move(ef);
  auto rt = std::make_unique<SimRuntime>(cfg);
  // p0 streams two values to p1 and records its progress in shared memory.
  rt->add_process([](Env& env) {
    runtime::write_key(env, RegKey::make_global(kTag, Pid{0}), 1);
    runtime::Message m;
    m.kind = 7;
    m.value = 1;
    env.send(Pid{1}, m);
    env.step();
    m.value = 2;
    env.send(Pid{1}, m);
    runtime::write_key(env, RegKey::make_global(kTag, Pid{0}), 2);
  });
  // p1 polls a FIXED number of times (schedule decides how many arrive) and
  // publishes the sum of what it saw — every drop, crash, or held-back
  // window placement lands in this register.
  rt->add_process([recv_iters](Env& env) {
    std::uint64_t sum = 0;
    std::vector<runtime::Message> got;
    for (int i = 0; i < recv_iters; ++i) {
      env.drain_inbox(got);
      for (const runtime::Message& m : got) sum += m.value;
      env.step();
    }
    runtime::write_key(env, RegKey::make_global(kTag, Pid{1}), 10 + sum);
  });
  return rt;
}

void expect_fault_class_differential(const runtime::ExploreFaults& ef,
                                     int recv_iters = 4) {
  // DFS and DPOR must agree on the reachable final-state set.
  const auto make = [&ef, recv_iters]() { return make_fault_micro(ef, recv_iters); };
  const auto verify = [](SimRuntime&) {};
  ExploreOptions dfs_opts;
  dfs_opts.max_runs = 500'000;
  const ExploreResult dfs = explore_schedules(make, verify, dfs_opts);
  const ExploreResult dpor = explore_dpor(make, verify, DporOptions{});
  EXPECT_EQ(dfs.exhaustiveness, Exhaustiveness::kFull);
  EXPECT_EQ(dpor.exhaustiveness, Exhaustiveness::kFull);
  EXPECT_EQ(dfs.final_states, dpor.final_states) << "DPOR lost or invented a fault placement";
  EXPECT_LT(dpor.runs, dfs.runs) << "no reduction over the naive tree";
}

TEST(DporFaults, CrashClassDifferential) {
  runtime::ExploreFaults ef;
  ef.crashes = {Pid{0}, Pid{1}};  // either process may die at any step
  expect_fault_class_differential(ef);
}

TEST(DporFaults, DropClassDifferential) {
  runtime::ExploreFaults ef;
  ef.drop_budget = 1;  // any single in-flight message may vanish
  expect_fault_class_differential(ef);
}

TEST(DporFaults, PartitionClassDifferential) {
  runtime::ExploreFaults ef;
  ef.partition_mask = 0b01;  // {p0} | {p1}, toggles placed by the explorer
  expect_fault_class_differential(ef);
}

TEST(DporFaults, CombinedClassesDifferential) {
  // All three classes at once: the fault×fault dependency rule must keep
  // the cross-class orderings (a crash can close the scheduling gate on a
  // drop, a drop can spend the budget a toggle-held message would need).
  runtime::ExploreFaults ef;
  ef.crashes = {Pid{1}};
  ef.drop_budget = 1;
  ef.partition_mask = 0b01;
  // Three classes multiply the naive tree; a shorter receiver keeps the DFS
  // side affordable (this test also runs under the sanitizer pass).
  expect_fault_class_differential(ef, /*recv_iters=*/3);
}

// -- planted fault-timing bugs: pinned trip-wires ----------------------------

TEST(DporFaults, FindsPlantedCrashWindowBug) {
  // crashwin3: only crash-at-step-k exploration can freeze the provisional
  // value inside its two-step correction window. The pinned budget is the
  // trip-wire: a reduction bug that drops crash placements blows it
  // (measured: violation on verified run 2).
  const Instance* inst = find_instance("crashwin3");
  ASSERT_NE(inst, nullptr);
  ASSERT_TRUE(inst->expect_violation);
  const InstanceVerdict v = check_instance_dpor(*inst);
  ASSERT_TRUE(v.violation.has_value()) << "planted crash-timing bug not found";
  EXPECT_NE(v.violation->find("correction window"), std::string::npos) << *v.violation;
  EXPECT_LE(v.violation_run, 10u) << "trip-wire budget blown";
  // The DFS baseline reaches the same verdict (this is the differential's
  // violation side; final-state sets are compared only on clean runs).
  const InstanceVerdict d = check_instance_dfs(*inst);
  ASSERT_TRUE(d.violation.has_value());
  EXPECT_NE(d.violation->find("correction window"), std::string::npos) << *d.violation;
}

TEST(DporFaults, FindsPlantedDropMaskedValidityBug) {
  // dropval2: one explorer-placed drop erases VALUE at the queue head and
  // the receiver trusts the DONE-terminated stream (measured: violation on
  // verified run 2).
  const Instance* inst = find_instance("dropval2");
  ASSERT_NE(inst, nullptr);
  ASSERT_TRUE(inst->expect_violation);
  const InstanceVerdict v = check_instance_dpor(*inst);
  ASSERT_TRUE(v.violation.has_value()) << "planted drop-masking bug not found";
  EXPECT_NE(v.violation->find("lost its VALUE"), std::string::npos) << *v.violation;
  EXPECT_LE(v.violation_run, 10u) << "trip-wire budget blown";
  const InstanceVerdict d = check_instance_dfs(*inst);
  ASSERT_TRUE(d.violation.has_value());
  EXPECT_NE(d.violation->find("lost its VALUE"), std::string::npos) << *d.violation;
}

// -- state cache observability (the ExploreResult contract fix) --------------

TEST(Dpor, StateCachePruningIsSurfacedAndSound) {
  // ac3 revisits converged states heavily; the cache must report its prunes
  // through ExploreResult and must not change the reachable final states.
  const Instance* ac3 = find_instance("ac3");
  ASSERT_NE(ac3, nullptr);
  const InstanceVerdict cached = check_instance_dpor(*ac3);
  EXPECT_FALSE(cached.violation.has_value());
  EXPECT_EQ(cached.result.exhaustiveness, Exhaustiveness::kFull);
  EXPECT_GT(cached.result.runs_pruned_by_state_cache, 0u);

  DporOptions no_cache = ac3->dpor;
  no_cache.state_cache = false;
  const InstanceVerdict plain = check_instance_dpor(*ac3, no_cache);
  EXPECT_FALSE(plain.violation.has_value());
  EXPECT_EQ(plain.result.runs_pruned_by_state_cache, 0u);
  EXPECT_EQ(plain.result.final_states, cached.result.final_states);
}

// -- the pseudo-process layout -----------------------------------------------

/// Fault pseudo-event `idx`'s footprint as the plan lays the pseudo-pids out:
/// crash events in plan order, one drop event per destination, then the
/// partition's on and off toggles.
runtime::StepFootprint planned_footprint(const runtime::ExploreFaults& ef, std::size_t n,
                                         std::size_t idx) {
  runtime::StepFootprint f;
  f.clear(Pid{static_cast<std::uint32_t>(n + idx)});
  const std::size_t drops = ef.drop_budget > 0 ? n : 0;
  if (idx < ef.crashes.size()) {
    f.crash_mask = 1ULL << ef.crashes[idx].index();
  } else if (idx < ef.crashes.size() + drops) {
    f.drop_mask = 1ULL << (idx - ef.crashes.size());
  } else {
    f.part_toggle = true;
    f.part_mask = *ef.partition_mask;
  }
  return f;
}

void expect_same_footprint(const runtime::StepFootprint& got,
                           const runtime::StepFootprint& want, const std::string& what) {
  EXPECT_EQ(got.pid, want.pid) << what;
  EXPECT_EQ(got.reads, want.reads) << what;
  EXPECT_EQ(got.writes, want.writes) << what;
  EXPECT_EQ(got.send_to, want.send_to) << what;
  EXPECT_EQ(got.drained, want.drained) << what;
  EXPECT_EQ(got.drew_rand, want.drew_rand) << what;
  EXPECT_EQ(got.observed_clock, want.observed_clock) << what;
  EXPECT_EQ(got.finishes, want.finishes) << what;
  EXPECT_EQ(got.crash_mask, want.crash_mask) << what;
  EXPECT_EQ(got.drop_mask, want.drop_mask) << what;
  EXPECT_EQ(got.part_mask, want.part_mask) << what;
  EXPECT_EQ(got.part_toggle, want.part_toggle) << what;
}

TEST(DporFaults, FiredPseudoEventsRecordTheirStaticFootprint) {
  // explore_dpor's race scan takes SimRuntime::fault_footprint as what a
  // fault that has not fired would touch. Firing must record exactly that,
  // and the off toggle adds one send per destination of a held message. The
  // schedules alternate the first (or last) enabled pseudo-event with a
  // round-robin real step, so pingpart2's window holds the ping. The corpus
  // plans each hold one fault class; the combined micro-instance puts all
  // three in one layout.
  runtime::ExploreFaults combined;
  combined.crashes = {Pid{1}};
  combined.drop_budget = 1;
  combined.partition_mask = 0b01;
  std::vector<std::pair<std::string, std::function<std::unique_ptr<SimRuntime>()>>> plans;
  for (const char* name : {"hbo3-anycrash", "abd4-drop", "pingpart2"}) {
    const Instance* inst = find_instance(name);
    ASSERT_NE(inst, nullptr);
    plans.emplace_back(name, inst->make);
  }
  plans.emplace_back("combined micro", [&] { return make_fault_micro(combined, 3); });
  for (const auto& [name, make] : plans) {
    for (const bool take_last : {false, true}) {
      const std::unique_ptr<SimRuntime> rt = make();
      rt->set_footprint_recording(true);
      const std::size_t n = rt->config().n();
      const runtime::ExploreFaults& ef = *rt->config().explore_faults;
      ASSERT_GT(rt->sched_width(), n) << name;
      runtime::StepFootprint want;
      for (std::size_t idx = 0; idx < rt->sched_width() - n; ++idx) {
        rt->fault_footprint(idx, want);
        expect_same_footprint(want, planned_footprint(ef, n, idx),
                              name + " pseudo-event " + std::to_string(idx));
      }

      Pid last_pick = Pid::none();
      bool window_open = false;
      std::vector<Pid> held;  // destinations of held messages, in send order
      std::size_t fired = 0;
      bool pseudo_turn = true;
      std::size_t next_real = 0;
      const auto check_last_step = [&] {
        if (last_pick.is_none()) return;
        const runtime::StepFootprint& got = rt->last_footprint();
        if (last_pick.index() < n) {  // a real step: note what the window holds
          for (const Pid to : got.send_to)
            if (window_open && ((*ef.partition_mask >> got.pid.index() & 1) !=
                                (*ef.partition_mask >> to.index() & 1)) &&
                std::find(held.begin(), held.end(), to) == held.end())
              held.push_back(to);
          return;
        }
        const std::size_t idx = last_pick.index() - n;
        rt->fault_footprint(idx, want);
        if (want.part_toggle) {
          if (window_open) want.send_to = std::exchange(held, {});  // the off toggle
          window_open = !window_open;
        }
        expect_same_footprint(got, want, name + " fired pseudo-event " + std::to_string(idx));
        ++fired;
      };
      rt->set_schedule_policy([&](const std::vector<Pid>& runnable) {
        check_last_step();
        std::size_t reals = 0;
        while (reals < runnable.size() && runnable[reals].index() < n) ++reals;
        const bool pseudo = pseudo_turn && reals < runnable.size();
        pseudo_turn = !pseudo_turn;
        const std::size_t pick =
            pseudo ? (take_last ? runnable.size() - 1 : reals) : next_real++ % reals;
        last_pick = runnable[pick];
        return pick;
      });
      (void)rt->run_until_all_done(20'000);
      check_last_step();
      rt->shutdown();
      EXPECT_GT(fired, 0u) << name;
    }
  }
}

// -- completeness ------------------------------------------------------------

TEST(DporCompleteness, Ac3) {
  // Exhaustive DFS over ac3 (158M runs, too many for a test) reaches 48
  // final states, and so does the sleep_sets = false walk. The default walk
  // misses some of them (ROADMAP item 3), so for now it is held only to a
  // subset of that walk's set; once the walk is sound, make it equality.
  const Instance* ac3 = find_instance("ac3");
  ASSERT_NE(ac3, nullptr);
  DporOptions no_skip = ac3->dpor;
  no_skip.sleep_sets = false;
  const InstanceVerdict reference = check_instance_dpor(*ac3, no_skip);
  ASSERT_FALSE(reference.violation.has_value()) << *reference.violation;
  EXPECT_EQ(reference.result.exhaustiveness, Exhaustiveness::kFull);
  EXPECT_EQ(reference.result.final_states.size(), 48u);

  const InstanceVerdict walk = check_instance_dpor(*ac3);
  ASSERT_FALSE(walk.violation.has_value()) << *walk.violation;
  EXPECT_EQ(walk.result.exhaustiveness, Exhaustiveness::kFull);
  const std::vector<runtime::StateHash>& all = reference.result.final_states;
  const std::vector<runtime::StateHash>& got = walk.result.final_states;
  EXPECT_TRUE(std::includes(all.begin(), all.end(), got.begin(), got.end()))
      << "the default walk reached a final state the sleep_sets = false walk did not";
}

TEST(Dpor, CyclePruneExhaustsSpinningReceiver) {
  // pingpong2's starving schedules spin forever; only the state cache's
  // open-entry (cycle) prune makes the exploration finite. This is the
  // instance the DFS fundamentally cannot exhaust.
  const Instance* inst = find_instance("pingpong2");
  ASSERT_NE(inst, nullptr);
  ASSERT_FALSE(inst->dfs_feasible);
  const InstanceVerdict v = check_instance_dpor(*inst);
  EXPECT_FALSE(v.violation.has_value());
  EXPECT_EQ(v.result.exhaustiveness, Exhaustiveness::kFull);
  EXPECT_GT(v.result.runs_pruned_by_state_cache, 0u);
}

TEST(Dpor, UnfinishedRunIsTruncationNotViolation) {
  // Without the state cache nothing prunes a starved spin, so these walks
  // reach a run that ends at its step budget: on replays 1,999, 5,995 and 1.
  // Such a run proves nothing either way. It is no violation; it leaves the
  // verdict budget-truncated, which tools/check fails for a clean instance.
  const std::pair<const char*, std::uint64_t> walks[] = {
      {"pingpong2", 2'000}, {"pingpart2", 6'000}, {"abd4-drop", 2}};
  for (const auto& [name, max_runs] : walks) {
    const Instance* inst = find_instance(name);
    ASSERT_NE(inst, nullptr);
    DporOptions o = inst->dpor;
    o.state_cache = false;
    o.max_runs = max_runs;
    const InstanceVerdict v = check_instance_dpor(*inst, o);
    EXPECT_FALSE(v.violation.has_value()) << name << ": " << *v.violation;
    EXPECT_FALSE(v.result.all_runs_completed) << name;
    EXPECT_EQ(v.result.exhaustiveness, Exhaustiveness::kBudgetTruncated) << name;
  }
}

// -- fiber stack recycling ---------------------------------------------------

TEST(Dpor, WarmStackCacheLeavesTheWalkUnchanged) {
  // The walker recycles fiber stacks across replays. A walk that starts with
  // every stack already cached must map none and report exactly what a cold
  // walk reports.
  const Instance* ac4 = find_instance("ac4");
  ASSERT_NE(ac4, nullptr);
  const DporOptions o = ac4->dpor;
  const InstanceVerdict cold = check_instance_dpor(*ac4, o);
  ASSERT_FALSE(cold.violation.has_value());
  ASSERT_EQ(cold.result.exhaustiveness, Exhaustiveness::kFull);

  const runtime::FiberStackRecycler scope;  // the walks below join it
  (void)check_instance_dpor(*ac4, o);       // fills the cache
  const runtime::FiberStackCounts before = runtime::fiber_stack_counts();
  const InstanceVerdict warm = check_instance_dpor(*ac4, o);
  EXPECT_EQ(runtime::fiber_stack_counts().mapped, before.mapped);
  EXPECT_FALSE(warm.violation.has_value());
  EXPECT_EQ(warm.result.exhaustiveness, cold.result.exhaustiveness);
  EXPECT_EQ(warm.result.runs, cold.result.runs);
  EXPECT_EQ(warm.result.runs_pruned_by_state_cache, cold.result.runs_pruned_by_state_cache);
  EXPECT_EQ(warm.result.runs_pruned_by_sleep_set, cold.result.runs_pruned_by_sleep_set);
  EXPECT_EQ(warm.result.all_runs_completed, cold.result.all_runs_completed);
  EXPECT_EQ(warm.result.final_states, cold.result.final_states);
}

// -- walk pins ---------------------------------------------------------------

// The walker's data structures may change shape, but the walk they drive may
// not. Each pin holds one corpus walk to what the walker reported when it was
// recorded: replay and prune counts, the verdict's strength, and the
// reachable final-state set. A state-cache probe that meets entries in a
// different order, a cached aggregate that loses a footprint bit or a
// changed sleep-set filter moves at least one of them. A deliberate change
// to the walk re-records the pins (each failure prints the new value) and
// says so in CHANGES.md.

struct WalkPin {
  std::uint64_t runs;
  std::uint64_t cache_pruned;
  std::uint64_t sleep_pruned;
  Exhaustiveness exhaustiveness;
  std::size_t final_states;
  std::uint64_t final_fold;  ///< fold of the sorted final-state hashes
};

std::uint64_t fold_final_states(const std::vector<runtime::StateHash>& states) {
  std::uint64_t h = 0x6a09e667f3bcc909ULL;
  const auto add = [&h](std::uint64_t v) {
    std::uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    h = x;
  };
  for (const runtime::StateHash& s : states) {
    add(s.lo);
    add(s.hi);
  }
  return h;
}

void expect_walk(const char* name, const WalkPin& pin,
                 std::optional<std::uint64_t> max_runs = std::nullopt) {
  const Instance* inst = find_instance(name);
  ASSERT_NE(inst, nullptr);
  DporOptions o = inst->dpor;
  if (max_runs.has_value()) o.max_runs = *max_runs;
  const InstanceVerdict v = check_instance_dpor(*inst, o);
  ASSERT_FALSE(v.violation.has_value()) << name << ": " << *v.violation;
  EXPECT_EQ(v.result.runs, pin.runs) << name;
  EXPECT_EQ(v.result.runs_pruned_by_state_cache, pin.cache_pruned) << name;
  EXPECT_EQ(v.result.runs_pruned_by_sleep_set, pin.sleep_pruned) << name;
  EXPECT_EQ(v.result.exhaustiveness, pin.exhaustiveness) << name;
  EXPECT_EQ(v.result.final_states.size(), pin.final_states) << name;
  const std::uint64_t fold = fold_final_states(v.result.final_states);
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(fold));
  EXPECT_EQ(fold, pin.final_fold) << name << ": final-state fold is now " << hex;
}

TEST(DporWalkPins, Ac4) {
  expect_walk("ac4",
              {2376, 1965, 1847, Exhaustiveness::kFull, 276, 0x9fce431976d85babULL});
}

TEST(DporWalkPins, Hbo3Crash) {
  expect_walk("hbo3-crash",
              {304, 0, 114, Exhaustiveness::kFull, 304, 0xf3dd45790e9c0599ULL});
}

TEST(DporWalkPins, Abd4Drop) {
  expect_walk("abd4-drop",
              {30910, 16636, 31272, Exhaustiveness::kFull, 2107, 0x26364d750d6efb88ULL});
}

TEST(DporWalkPins, Abd4Drop2) {
  expect_walk("abd4-drop2",
              {67359, 41473, 65410, Exhaustiveness::kFull, 4338, 0x18f6b6785870cc49ULL});
}

TEST(DporWalkPins, Pingpart2) {
  expect_walk("pingpart2",
              {13, 7, 4, Exhaustiveness::kFull, 6, 0x97e50c848bfcc6ebULL});
}

TEST(DporWalkPins, Omega2Part) {
  expect_walk("omega2-part",
              {10, 3, 4, Exhaustiveness::kFull, 3, 0xf638a45a70802e40ULL});
}

// The whole hbo3-anycrash walk takes about 15 s; its first 20,000 replays are
// the part a pin can afford. It is the only corpus walk whose outcome
// depends on the destinations in cached aggregates, and the prefix already
// shows it.
TEST(DporWalkPins, Hbo3AnycrashFirst20kReplays) {
  expect_walk(
      "hbo3-anycrash",
      {20000, 10009, 5513, Exhaustiveness::kBudgetTruncated, 3577, 0xbe3643e530e45dfaULL},
      20'000);
}

// -- envelope validation -----------------------------------------------------

TEST(Dpor, ValidateExplorableRejectsUnsoundConfigs) {
  const auto reject = [](void (*tweak)(SimConfig&)) {
    SimConfig cfg;
    cfg.gsm = graph::complete(2);
    cfg.min_delay = 1;
    cfg.max_delay = 1;
    tweak(cfg);
    EXPECT_THROW(validate_explorable(cfg), runtime::ConfigError);
  };
  reject(+[](SimConfig& c) { c.max_delay = 2; });                       // long delay
  reject(+[](SimConfig& c) { c.min_delay = 0; });                       // variable delay
  reject(+[](SimConfig& c) {
    c.link_type = runtime::LinkType::kFairLossy;
    c.drop_prob = 0.1;
  });
  reject(+[](SimConfig& c) { c.partition = runtime::Partition{1, 0, 8}; });
  reject(+[](SimConfig& c) { c.crash_at = {std::nullopt, Step{5}}; });  // mid-run crash

  SimConfig ok;
  ok.gsm = graph::complete(2);
  ok.min_delay = 1;
  ok.max_delay = 1;
  ok.crash_at = {std::nullopt, Step{0}};  // initially dead: inside the envelope
  EXPECT_NO_THROW(validate_explorable(ok));
}

TEST(Dpor, ValidateExplorableRejectsByzantineWithPinnedMessage) {
  // The wording is load-bearing: it documents WHY the class is missing (no
  // dependency class for adversary interposition) and points at the
  // supported alternative. Tools print it verbatim; keep it stable.
  SimConfig cfg;
  cfg.gsm = graph::complete(2);
  cfg.min_delay = 1;
  cfg.max_delay = 1;
  cfg.byzantine = {0, 1};
  try {
    validate_explorable(cfg);
    FAIL() << "Byzantine config passed validate_explorable";
  } catch (const runtime::ConfigError& e) {
    EXPECT_STREQ(e.what(),
                 "explorer does not support Byzantine processes: adversary "
                 "interposition has no dependency class in "
                 "footprints_dependent yet (sample it with chaos campaigns "
                 "instead)");
  }
}

}  // namespace
}  // namespace mm::check
