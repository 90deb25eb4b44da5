// Tests for the deterministic simulator: scheduling, determinism, message
// delivery semantics, link models, partitions, crashes, timeliness, register
// access control, and metrics.
#include <gtest/gtest.h>

#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/tags.hpp"
#include "graph/generators.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::runtime {
namespace {

SimConfig base_config(std::size_t n, std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.gsm = graph::complete(n);
  cfg.seed = seed;
  return cfg;
}

RegKey key_of(Pid owner, std::uint64_t round = 0, std::uint8_t slot = 0) {
  return RegKey::make(core::kTagState, owner, round, slot);
}

TEST(SimRuntime, ProcessesRunAndFinish) {
  SimRuntime rt{base_config(3)};
  std::vector<int> ran(3, 0);
  for (std::uint32_t p = 0; p < 3; ++p)
    rt.add_process([&ran, p](Env& env) {
      ran[p] = 1;
      env.step();
    });
  EXPECT_TRUE(rt.run_until_all_done(10'000));
  for (std::uint32_t p = 0; p < 3; ++p) {
    EXPECT_TRUE(rt.finished(Pid{p}));
    EXPECT_EQ(ran[p], 1);
  }
}

TEST(SimRuntime, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    SimRuntime rt{base_config(4, seed)};
    std::vector<std::uint64_t> sums(4, 0);
    for (std::uint32_t p = 0; p < 4; ++p)
      rt.add_process([&sums, p](Env& env) {
        std::vector<Message> drained;
        for (int i = 0; i < 50; ++i) {
          sums[p] = sums[p] * 3 + (env.coin() ? 1 : 0) + env.now();
          Message m;
          m.kind = 1;
          m.value = sums[p];
          env.send(Pid{(p + 1) % 4}, m);
          env.drain_inbox(drained);
          for (const auto& r : drained) sums[p] ^= r.value;
          env.step();
        }
      });
    rt.run_until_all_done(100'000);
    return std::pair{sums, rt.metrics().msgs_delivered};
  };
  const auto a = run_once(99);
  const auto b = run_once(99);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  const auto c = run_once(100);
  EXPECT_NE(a.first, c.first);  // different seed ⇒ different schedule
}

TEST(SimRuntime, ReliableLinksDeliverEverything) {
  SimConfig cfg = base_config(2);
  SimRuntime rt{cfg};
  constexpr int kMsgs = 100;
  int received = 0;
  rt.add_process([](Env& env) {
    for (int i = 0; i < kMsgs; ++i) {
      Message m;
      m.kind = 1;
      m.round = static_cast<std::uint64_t>(i);
      env.send(Pid{1}, m);
      env.step();
    }
  });
  rt.add_process([&received](Env& env) {
    std::vector<Message> drained;
    while (received < kMsgs) {
      env.drain_inbox(drained);
      received += static_cast<int>(drained.size());
      if (env.stop_requested()) return;
      env.step();
    }
  });
  EXPECT_TRUE(rt.run_until_all_done(100'000));
  EXPECT_EQ(received, kMsgs);
  EXPECT_EQ(rt.metrics().msgs_dropped, 0u);
  EXPECT_EQ(rt.metrics().msgs_sent, static_cast<std::uint64_t>(kMsgs));
}

TEST(SimRuntime, FairLossyDropsAtConfiguredRate) {
  SimConfig cfg = base_config(2, 5);
  cfg.link_type = LinkType::kFairLossy;
  cfg.drop_prob = 0.5;
  SimRuntime rt{cfg};
  constexpr int kMsgs = 2000;
  rt.add_process([](Env& env) {
    for (int i = 0; i < kMsgs; ++i) {
      Message m;
      m.kind = 1;
      env.send(Pid{1}, m);
      env.step();
    }
  });
  rt.add_process([](Env& env) {
    std::vector<Message> drained;
    while (!env.stop_requested()) {
      env.drain_inbox(drained);
      env.step();
    }
  });
  rt.run_steps(20'000);
  rt.request_stop();
  rt.run_until_all_done(200'000);
  const double drop_rate =
      static_cast<double>(rt.metrics().msgs_dropped) / static_cast<double>(kMsgs);
  EXPECT_NEAR(drop_rate, 0.5, 0.06);
}

TEST(SimRuntime, MessageDelayWithinBounds) {
  SimConfig cfg = base_config(2, 6);
  cfg.min_delay = 3;
  cfg.max_delay = 7;
  SimRuntime rt{cfg};
  Step sent_at = 0;
  Step received_at = 0;
  rt.add_process([&sent_at](Env& env) {
    env.step();  // let the clock move a little
    sent_at = env.now();
    Message m;
    m.kind = 1;
    env.send(Pid{1}, m);
  });
  rt.add_process([&received_at](Env& env) {
    std::vector<Message> drained;
    for (;;) {
      env.drain_inbox(drained);
      if (!drained.empty()) {
        received_at = env.now();
        return;
      }
      env.step();
    }
  });
  EXPECT_TRUE(rt.run_until_all_done(10'000));
  EXPECT_GE(received_at, sent_at + 3);
}

TEST(SimRuntime, CrashedProcessTakesNoSteps) {
  SimConfig cfg = base_config(2, 7);
  cfg.crash_at = {std::optional<Step>{50}, std::nullopt};
  SimRuntime rt{cfg};
  std::uint64_t p0_steps = 0;
  rt.add_process([&p0_steps](Env& env) {
    for (;;) {
      ++p0_steps;
      env.step();
    }
  });
  rt.add_process([](Env& env) {
    for (int i = 0; i < 500; ++i) env.step();
  });
  rt.run_until_all_done(5'000);
  EXPECT_TRUE(rt.crashed(Pid{0}));
  EXPECT_TRUE(rt.finished(Pid{1}));
  EXPECT_LE(p0_steps, 51u);
  // Metrics agree with the observed count.
  EXPECT_EQ(rt.metrics().steps_by_proc[0], p0_steps);
}

TEST(SimRuntime, CrashNowStopsScheduling) {
  SimRuntime rt{base_config(2, 8)};
  std::uint64_t steps = 0;
  rt.add_process([&steps](Env& env) {
    for (;;) {
      ++steps;
      env.step();
    }
  });
  rt.add_process([](Env& env) {
    for (int i = 0; i < 100; ++i) env.step();
  });
  rt.run_steps(20);
  rt.crash_now(Pid{0});
  const auto before = steps;
  rt.run_steps(500);
  EXPECT_EQ(steps, before);
  EXPECT_TRUE(rt.crashed(Pid{0}));
}

TEST(SimRuntime, RegistersSurviveCrash) {
  // RDMA semantics (§3): a crashed process's registers stay readable.
  SimConfig cfg = base_config(2, 9);
  SimRuntime rt{cfg};
  std::uint64_t observed = 0;
  rt.add_process([](Env& env) {
    env.write(env.reg(key_of(Pid{0})), 777);
    env.step();
  });
  rt.add_process([&observed](Env& env) {
    while (observed == 0) {
      observed = env.read(env.reg(key_of(Pid{0})));
      env.step();
    }
  });
  rt.run_steps(10);
  rt.crash_now(Pid{0});
  rt.run_until_all_done(10'000);
  EXPECT_EQ(observed, 777u);
}

TEST(SimRuntime, AccessControlRejectsNonNeighbor) {
  SimConfig cfg;
  cfg.gsm = graph::path(3);  // 0-1-2: processes 0 and 2 are not adjacent
  cfg.seed = 10;
  SimRuntime rt{cfg};
  rt.add_process([](Env& env) { env.step(); });
  rt.add_process([](Env& env) { env.step(); });
  rt.add_process([](Env& env) {
    // p2 touches a register owned by p0: outside S_{p0} = {0, 1}.
    (void)env.read(env.reg(key_of(Pid{0})));
  });
  rt.run_until_all_done(10'000);
  EXPECT_THROW(rt.rethrow_process_error(), ModelViolation);
}

TEST(SimRuntime, AccessControlAllowsNeighborhood) {
  SimConfig cfg;
  cfg.gsm = graph::path(3);
  cfg.seed = 11;
  SimRuntime rt{cfg};
  for (std::uint32_t p = 0; p < 3; ++p)
    rt.add_process([](Env& env) {
      // Everyone may access p1's registers: S_{p1} = {0, 1, 2}.
      env.write(env.reg(key_of(Pid{1}, env.self().value())), 1);
    });
  rt.run_until_all_done(10'000);
  rt.rethrow_process_error();  // must not throw
  EXPECT_TRUE(rt.all_done());
}

TEST(SimRuntime, GlobalKeysBypassDomain) {
  SimConfig cfg;
  cfg.gsm = graph::edgeless(2);
  cfg.seed = 12;
  SimRuntime rt{cfg};
  rt.add_process([](Env& env) {
    env.write(env.reg(RegKey::make_global(70, Pid{1})), 5);
  });
  rt.add_process([](Env& env) { env.step(); });
  rt.run_until_all_done(1'000);
  rt.rethrow_process_error();
}

TEST(SimRuntime, TimelyProcessIsScheduledWithinBound) {
  SimConfig cfg = base_config(4, 13);
  cfg.timely = Pid{2};
  cfg.timely_bound = 10;
  // Starve p2 as hard as weights allow.
  cfg.sched_weight = {1.0, 1.0, 0.0, 1.0};
  SimRuntime rt{cfg};
  std::vector<Step> p2_steps;
  for (std::uint32_t p = 0; p < 4; ++p)
    rt.add_process([&p2_steps, p](Env& env) {
      for (int i = 0; i < 2000; ++i) {
        if (p == 2) p2_steps.push_back(env.now());
        env.step();
      }
    });
  rt.run_steps(5'000);
  rt.shutdown();
  ASSERT_GT(p2_steps.size(), 2u);
  for (std::size_t i = 1; i < p2_steps.size(); ++i)
    EXPECT_LE(p2_steps[i] - p2_steps[i - 1], 10u);
}

TEST(SimRuntime, ZeroWeightStarvedWithoutTimely) {
  SimConfig cfg = base_config(2, 14);
  cfg.sched_weight = {1.0, 0.0};
  SimRuntime rt{cfg};
  std::uint64_t p1_steps = 0;
  rt.add_process([](Env& env) {
    for (;;) env.step();
  });
  rt.add_process([&p1_steps](Env& env) {
    for (;;) {
      ++p1_steps;
      env.step();
    }
  });
  rt.run_steps(3'000);
  rt.shutdown();
  EXPECT_EQ(p1_steps, 0u);
}

TEST(SimRuntime, PartitionDelaysCrossTraffic) {
  SimConfig cfg = base_config(2, 15);
  cfg.partition = Partition{/*side_a=*/0b01, /*from=*/0, /*until=*/5'000};
  SimRuntime rt{cfg};
  Step received_at = 0;
  rt.add_process([](Env& env) {
    Message m;
    m.kind = 1;
    env.send(Pid{1}, m);  // crosses the partition immediately
  });
  rt.add_process([&received_at](Env& env) {
    std::vector<Message> drained;
    for (;;) {
      env.drain_inbox(drained);
      if (!drained.empty()) {
        received_at = env.now();
        return;
      }
      env.step();
    }
  });
  EXPECT_TRUE(rt.run_until_all_done(50'000));
  EXPECT_GE(received_at, 5'000u);  // held until the window closed
}

TEST(SimRuntime, PartitionDoesNotAffectSameSide) {
  SimConfig cfg = base_config(3, 16);
  cfg.partition = Partition{/*side_a=*/0b011, /*from=*/0, /*until=*/100'000};
  SimRuntime rt{cfg};
  Step received_at = 0;
  rt.add_process([](Env& env) {
    Message m;
    m.kind = 1;
    env.send(Pid{1}, m);  // same side: unaffected
  });
  rt.add_process([&received_at](Env& env) {
    std::vector<Message> drained;
    for (;;) {
      env.drain_inbox(drained);
      if (!drained.empty()) {
        received_at = env.now();
        return;
      }
      env.step();
    }
  });
  rt.add_process([](Env&) {});
  EXPECT_TRUE(rt.run_until_all_done(50'000));
  EXPECT_LT(received_at, 1'000u);
}

TEST(SimRuntime, MetricsCountRegisterOps) {
  SimRuntime rt{base_config(2, 17)};
  rt.set_auto_step_on_shm(false);
  rt.add_process([](Env& env) {
    const RegId r = env.reg(key_of(Pid{0}));
    env.write(r, 1);
    (void)env.read(r);
    (void)env.cas(r, 1, 2);
  });
  rt.add_process([](Env& env) {
    const RegId r = env.reg(key_of(Pid{0}));
    (void)env.read(r);  // remote read
  });
  rt.run_until_all_done(1'000);
  const auto& m = rt.metrics();
  EXPECT_EQ(m.reg_writes, 1u);
  EXPECT_EQ(m.reg_reads, 2u);
  EXPECT_EQ(m.reg_cas_ops, 1u);
  EXPECT_EQ(m.reg_reads_local, 1u);
  EXPECT_EQ(m.reg_writes_local, 1u);
  EXPECT_EQ(m.remote_reads_by_proc[1], 1u);
  EXPECT_EQ(m.remote_reads_by_proc[0], 0u);
}

TEST(SimRuntime, CasSemantics) {
  SimRuntime rt{base_config(1, 18)};
  rt.add_process([](Env& env) {
    const RegId r = env.reg(key_of(Pid{0}));
    EXPECT_EQ(env.cas(r, 0, 10), 0u);   // success, returns old
    EXPECT_EQ(env.read(r), 10u);
    EXPECT_EQ(env.cas(r, 0, 20), 10u);  // failure, returns current
    EXPECT_EQ(env.read(r), 10u);
  });
  rt.run_until_all_done(1'000);
  rt.rethrow_process_error();
}

TEST(SimRuntime, SendToSelfWorks) {
  SimRuntime rt{base_config(1, 19)};
  bool got = false;
  rt.add_process([&got](Env& env) {
    Message m;
    m.kind = 9;
    env.send(env.self(), m);
    std::vector<Message> drained;
    while (!got) {
      env.drain_inbox(drained);
      for (const auto& r : drained)
        if (r.kind == 9 && r.from == env.self()) got = true;
      env.step();
    }
  });
  EXPECT_TRUE(rt.run_until_all_done(10'000));
  EXPECT_TRUE(got);
}

TEST(SimRuntime, RunStepsReturnsExecutedCount) {
  SimRuntime rt{base_config(1, 20)};
  rt.add_process([](Env& env) {
    for (int i = 0; i < 10; ++i) env.step();
  });
  // Process finishes after ~11 scheduler activations.
  const Step done = rt.run_steps(1'000);
  EXPECT_LT(done, 50u);
  EXPECT_TRUE(rt.all_done());
  EXPECT_EQ(rt.run_steps(10), 0u);  // nothing left to schedule
}

TEST(SimRuntime, ChunkedRunsMatchOneShotRuns) {
  // Chunk boundaries are invisible: uneven run_steps calls reproduce one
  // run_steps call of the same total, on the general step path (footprint
  // recording armed) and on the fast path alike. The budget ends mid-run,
  // so a chunk that runs one step too many or too few shows, and the crash
  // plan fires exactly at a chunk boundary (step 31 = 7 + 1 + 23).
  struct Result {
    std::vector<std::uint64_t> sums;
    std::vector<std::uint64_t> steps_by_proc;
    std::uint64_t delivered = 0;
    Step final_step = 0;
    StateHash hash{};
    bool operator==(const Result&) const = default;
  };
  auto run = [](bool chunked, bool recording) {
    constexpr std::uint32_t kN = 6;
    SimConfig cfg = base_config(kN, 9);
    cfg.crash_at.assign(kN, std::nullopt);
    cfg.crash_at[4] = 31;
    SimRuntime rt{cfg};
    rt.set_footprint_recording(recording);
    std::vector<std::uint64_t> sums(kN, 0);
    for (std::uint32_t p = 0; p < kN; ++p) {
      rt.add_process([&sums, p](Env& env) {
        std::vector<Message> drained;
        for (int i = 0; i < 200; ++i) {
          Message m;
          m.kind = 3;
          m.value = p * 1000u + static_cast<std::uint64_t>(i);
          env.send(Pid{(p + 1) % kN}, m);
          env.drain_inbox(drained);
          for (const Message& r : drained) sums[p] = sums[p] * 31 + r.value + env.now();
          env.step();
        }
      });
    }
    if (chunked) {
      for (const Step c : {7u, 1u, 23u, 120u, 400u}) rt.run_steps(c);
    } else {
      rt.run_steps(551);
    }
    Result out;
    out.sums = sums;
    out.steps_by_proc = rt.metrics().steps_by_proc;
    out.delivered = rt.metrics().msgs_delivered;
    out.final_step = rt.now();
    if (recording) out.hash = rt.state_hash();
    return out;
  };
  for (const bool recording : {true, false}) {
    const Result one_shot = run(false, recording);
    EXPECT_EQ(one_shot.final_step, 551u);  // still running when the budget ends
    EXPECT_GT(one_shot.delivered, 0u);
    EXPECT_EQ(run(true, recording), one_shot) << "recording=" << recording;
  }
}

TEST(SimRuntime, StopRequestedVisible) {
  SimRuntime rt{base_config(1, 21)};
  bool observed = false;
  rt.add_process([&observed](Env& env) {
    while (!env.stop_requested()) env.step();
    observed = true;
  });
  rt.run_steps(100);
  rt.request_stop();
  rt.run_until_all_done(10'000);
  EXPECT_TRUE(observed);
}

TEST(SimRuntime, ShutdownKillsParkedProcesses) {
  SimRuntime rt{base_config(2, 22)};
  for (int p = 0; p < 2; ++p)
    rt.add_process([](Env& env) {
      for (;;) env.step();  // never finishes voluntarily
    });
  rt.run_steps(500);
  rt.shutdown();  // must not hang
  SUCCEED();
}

void run_after_shutdown(bool until_done) {
  SimRuntime rt{base_config(2, 25)};
  for (int p = 0; p < 2; ++p)
    rt.add_process([](Env& env) {
      for (;;) env.step();
    });
  rt.run_steps(10);
  rt.shutdown();
  if (until_done) {
    (void)rt.run_until_all_done(1'000);
  } else {
    (void)rt.run_steps(10);
  }
}

TEST(SimRuntimeDeathTest, RunAfterShutdownAborts) {
  // shutdown() leaves the killed processes parked, and resuming one would
  // jump into a fiber whose body has returned. Both run calls refuse by name.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(run_after_shutdown(true), "runtime already shut down");
  EXPECT_DEATH(run_after_shutdown(false), "runtime already shut down");
}

TEST(SimRuntime, StopRunPolicyValueEndsTheRunWithoutAStep) {
  // The explorers abandon a replay by returning kStopRun from the schedule
  // policy: the run call returns at once, the stop takes no step, and the
  // parked processes still shut down cleanly (their stacks unwind).
  SimRuntime rt{base_config(2, 24)};
  int unwound = 0;
  struct Unwind {
    int* count;
    ~Unwind() { ++*count; }
  };
  for (int p = 0; p < 2; ++p)
    rt.add_process([&unwound](Env& env) {
      const Unwind guard{&unwound};
      for (int i = 0; i < 3; ++i) env.step();
    });
  int calls = 0;
  rt.set_schedule_policy([&calls](const std::vector<Pid>&) -> std::size_t {
    return ++calls == 1 ? 0 : SimRuntime::kStopRun;
  });
  EXPECT_FALSE(rt.run_until_all_done(1'000));
  EXPECT_FALSE(rt.all_done());
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(rt.now(), 1u);  // p0's one slice; the stop took none
  EXPECT_EQ(rt.run_steps(5), 0u);  // the policy is asked again and stops again
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(rt.now(), 1u);
  rt.shutdown();
  rt.rethrow_process_error();
  EXPECT_EQ(unwound, 1);  // p0 was parked mid-body; p1 never started
}

TEST(SimRuntime, ProcessExceptionIsCaptured) {
  SimRuntime rt{base_config(1, 23)};
  rt.add_process([](Env&) { throw std::runtime_error{"boom"}; });
  rt.run_until_all_done(1'000);
  EXPECT_THROW(rt.rethrow_process_error(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// The kill path: shutdown() ends a parked body with a forced unwind
// ---------------------------------------------------------------------------

/// Appends its id to a log when destroyed, with the number of C++ exceptions
/// in flight at that moment (a throw counts; a forced unwind does not).
struct Frame {
  int id;
  std::vector<int>* order;
  std::vector<int>* in_flight;
  ~Frame() {
    order->push_back(id);
    in_flight->push_back(std::uncaught_exceptions());
  }
};

[[gnu::noinline]] void park_in_frame_3(Env& env, std::vector<int>& order,
                                       std::vector<int>& in_flight) {
  const Frame f{3, &order, &in_flight};
  for (;;) env.step();
}
[[gnu::noinline]] void park_in_frame_2(Env& env, std::vector<int>& order,
                                       std::vector<int>& in_flight) {
  const Frame f{2, &order, &in_flight};
  park_in_frame_3(env, order, in_flight);
}

TEST(SimRuntime, KillRunsNestedDestructorsInnermostFirstWithoutAThrow) {
  SimRuntime rt{base_config(1, 30)};
  std::vector<int> order;
  std::vector<int> in_flight;
  rt.add_process([&](Env& env) {
    const Frame f{1, &order, &in_flight};
    park_in_frame_2(env, order, in_flight);
  });
  rt.run_steps(5);
  EXPECT_TRUE(order.empty());
  rt.shutdown();
  rt.rethrow_process_error();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
  // No C++ exception was in flight while the frames unwound: the kill is a
  // forced unwind, not a throw.
  EXPECT_EQ(in_flight, (std::vector<int>{0, 0, 0}));
}

TEST(SimRuntime, KillPassesTypedHandlersToACatchAllThatRethrows) {
  SimRuntime rt{base_config(1, 31)};
  bool typed_caught = false;
  bool resumed_after = false;
  bool caught_all = false;
  bool cxx_exception = true;
  rt.add_process([&](Env& env) {
    try {
      try {
        for (;;) env.step();
      } catch (const MemoryFailure&) {
        typed_caught = true;
      }
      resumed_after = true;
    } catch (...) {
      // The kill (abi::__forced_unwind) is no C++ exception object.
      caught_all = true;
      cxx_exception = std::current_exception() != nullptr;
      throw;  // a handler for the kill must rethrow it
    }
  });
  rt.run_steps(5);
  rt.shutdown();
  rt.rethrow_process_error();
  EXPECT_FALSE(typed_caught);
  EXPECT_FALSE(resumed_after);
  EXPECT_TRUE(caught_all);
  EXPECT_FALSE(cxx_exception);
  // The rethrow counted an uncaught exception no handler took back;
  // shutdown() restored the thread's count.
  EXPECT_EQ(std::uncaught_exceptions(), 0);
}

struct Unwind {
  int* count;
  ~Unwind() { ++*count; }
};

TEST(SimRuntime, SwallowedKillIsRepeatedAtTheNextYield) {
  SimRuntime rt{base_config(2, 32)};
  int swallowed = 0;
  int unwound = 0;
  bool ran_past_second_yield = false;
  rt.add_process([&](Env& env) {
    const Unwind guard{&unwound};
    try {
      for (;;) env.step();
    } catch (...) {
      ++swallowed;  // swallows the kill
    }
    env.step();  // killed again here
    ran_past_second_yield = true;
  });
  rt.add_process([](Env& env) {
    for (;;) env.step();
  });
  rt.run_steps(20);
  rt.shutdown();  // returns: the second kill is not swallowed
  rt.rethrow_process_error();
  EXPECT_EQ(swallowed, 1);
  EXPECT_EQ(unwound, 1);
  EXPECT_FALSE(ran_past_second_yield);
}

TEST(SimRuntime, ShutdownInsideACatchHandlerFinishes) {
  // The scheduler thread is inside a handler, so it has a caught exception
  // while the kills run, and __cxa_begin_catch terminates when a foreign
  // exception is caught on top of another. The bodies' catch (...) handlers
  // see the kill anyway (one rethrows it, one swallows it and is killed
  // again), and afterwards the handler's exception is still the one a
  // rethrow throws.
  SimRuntime rt{base_config(3, 33)};
  int unwound = 0;
  rt.add_process([&unwound](Env& env) {
    const Unwind guard{&unwound};
    for (;;) env.step();
  });
  rt.add_process([&unwound](Env& env) {
    const Unwind guard{&unwound};
    try {
      for (;;) env.step();
    } catch (...) {
      throw;
    }
  });
  rt.add_process([&unwound](Env& env) {
    const Unwind guard{&unwound};
    try {
      for (;;) env.step();
    } catch (...) {
    }
    for (;;) env.step();
  });
  rt.run_steps(30);
  std::string rethrown;
  try {
    try {
      throw std::runtime_error{"owner failed"};
    } catch (const std::runtime_error&) {
      rt.shutdown();
      throw;
    }
  } catch (const std::runtime_error& e) {
    rethrown = e.what();
  }
  EXPECT_EQ(unwound, 3);
  EXPECT_EQ(rethrown, "owner failed");
  EXPECT_EQ(std::uncaught_exceptions(), 0);
}

TEST(SimRuntime, DestroyedWhileAnExceptionPropagatesThroughItsOwner) {
  std::vector<int> order;
  std::vector<int> in_flight;
  EXPECT_THROW(
      {
        SimRuntime rt{base_config(2, 34)};
        for (int p = 0; p < 2; ++p)
          rt.add_process([&order, &in_flight, p](Env& env) {
            const Frame f{p, &order, &in_flight};
            for (;;) env.step();
          });
        rt.run_steps(10);
        throw std::runtime_error{"owner failed"};
      },
      std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  // The owner's exception is the only one in flight while the bodies unwind.
  EXPECT_EQ(in_flight, (std::vector<int>{1, 1}));
}

TEST(SimRuntime, AutoStepInterleavesRegisterOps) {
  // With auto-step on, two processes each doing read-modify-write on the
  // same register interleave at register-op granularity and lose updates —
  // the knob that gives the adversary per-operation power. A third process
  // reads the final count once both writers are done.
  SimConfig cfg;
  cfg.gsm = graph::complete(3);
  cfg.seed = 24;
  SimRuntime rt{cfg};
  rt.set_auto_step_on_shm(true);
  std::uint64_t final_value = 0;
  std::atomic<int> done_count{0};
  for (int p = 0; p < 2; ++p)
    rt.add_process([&done_count](Env& env) {
      const RegId r = env.reg(key_of(Pid{0}));
      for (int i = 0; i < 200; ++i) {
        const auto v = env.read(r);
        env.write(r, v + 1);
      }
      done_count.fetch_add(1);
    });
  rt.add_process([&](Env& env) {
    while (done_count.load() < 2) env.step();
    final_value = env.read(env.reg(key_of(Pid{0})));
  });
  rt.run_until_all_done(1'000'000);
  rt.rethrow_process_error();
  // 400 increments issued; lost updates happen with overwhelming probability
  // under per-op interleaving.
  EXPECT_LT(final_value, 400u);
  EXPECT_GT(final_value, 0u);
}

// ---------------------------------------------------------------------------
// SimEnv — a hook applies to the access it observes
// ---------------------------------------------------------------------------

// Each test runs two processes on complete(2) under a policy that always
// schedules p0. The first slice parks p0 inside the auto-step of its one
// register access, so a hook toggled before the next slice must apply to
// that access.

TEST(SimEnv, ArmingRecordingMidAccessRecordsTheAccess) {
  SimRuntime rt{base_config(2, 25)};
  rt.add_process([](Env& env) { (void)env.read(env.reg(key_of(Pid{0}))); });
  rt.add_process([](Env& env) { env.step(); });
  rt.set_schedule_policy([](const std::vector<Pid>&) -> std::size_t { return 0; });
  ASSERT_EQ(rt.run_steps(1), 1u);  // p0 parks inside the read's auto-step
  rt.set_footprint_recording(true);
  ASSERT_EQ(rt.run_steps(1), 1u);  // the read itself
  EXPECT_TRUE(rt.finished(Pid{0}));
  EXPECT_EQ(rt.last_footprint().reads, std::vector<RegKey>{key_of(Pid{0})});
}

TEST(SimEnv, DisarmingTracingMidAccessSkipsTheAccess) {
  SimRuntime rt{base_config(2, 26)};
  rt.enable_trace();
  rt.add_process([](Env& env) { env.write(env.reg(key_of(Pid{0})), 1); });
  rt.add_process([](Env& env) { env.step(); });
  rt.set_schedule_policy([](const std::vector<Pid>&) -> std::size_t { return 0; });
  ASSERT_EQ(rt.run_steps(1), 1u);  // p0 parks inside the write's auto-step
  rt.enable_trace(0);
  ASSERT_EQ(rt.run_steps(1), 1u);  // the write itself
  EXPECT_EQ(rt.register_value(key_of(Pid{0})).value_or(0), 1u);
  EXPECT_EQ(rt.obs_report().reg_contention.total(), 0u);
  for (const SimRuntime::TraceEvent& e : rt.trace())
    EXPECT_NE(e.kind, SimRuntime::TraceEvent::Kind::kRegWrite);
}

// ---------------------------------------------------------------------------
// SimConfig::validate — malformed configs fail loudly at construction
// ---------------------------------------------------------------------------

TEST(SimConfigValidate, AcceptsTheDefaults) {
  EXPECT_NO_THROW(base_config(4).validate());
}

TEST(SimConfigValidate, RejectsBadLinkModels) {
  SimConfig cfg = base_config(4);
  cfg.drop_prob = 0.5;  // nonzero drop on reliable links
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg.link_type = LinkType::kFairLossy;
  EXPECT_NO_THROW(cfg.validate());
  cfg.drop_prob = 1.0;  // nothing would ever arrive
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg.drop_prob = -0.1;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(SimConfigValidate, RejectsInvertedDelayBounds) {
  SimConfig cfg = base_config(4);
  cfg.min_delay = 9;
  cfg.max_delay = 3;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(SimConfigValidate, RejectsPartitionBeyondMaskWidth) {
  // Partition::side_a is a 64-bit mask; n > 64 would shift out of range
  // (UB before this guard existed).
  SimConfig cfg;
  cfg.gsm = graph::edgeless(65);
  cfg.partition = Partition{0b1, 0, 1'000};
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg.partition.reset();
  EXPECT_NO_THROW(cfg.validate());  // 65 processes without a partition: fine
}

TEST(SimConfigValidate, RejectsWrongArityPlans) {
  SimConfig cfg = base_config(4);
  cfg.crash_at.assign(3, std::nullopt);  // 3 entries for n = 4
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(SimConfigValidate, RejectsBadTimelinessAndWeights) {
  SimConfig cfg = base_config(4);
  cfg.timely = Pid{4};  // out of range
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg.timely = Pid{0};
  cfg.timely_bound = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg.timely_bound = 8;
  cfg.sched_weight.assign(4, 1.0);
  cfg.sched_weight[2] = -1.0;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(SimConfigValidate, RuntimeConstructorValidates) {
  SimConfig cfg = base_config(3);
  cfg.min_delay = 5;
  cfg.max_delay = 2;
  EXPECT_THROW(SimRuntime{cfg}, ConfigError);
}

}  // namespace
}  // namespace mm::runtime
