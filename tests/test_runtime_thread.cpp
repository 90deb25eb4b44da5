// Tests for the free-running thread runtime: the same Env contract under
// real concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/tags.hpp"
#include "graph/generators.hpp"
#include "runtime/thread_runtime.hpp"

namespace mm::runtime {
namespace {

ThreadRuntime::Config base_config(std::size_t n, std::uint64_t seed = 1) {
  ThreadRuntime::Config cfg;
  cfg.gsm = graph::complete(n);
  cfg.seed = seed;
  return cfg;
}

RegKey key_of(Pid owner, std::uint64_t round = 0) {
  return RegKey::make(core::kTagState, owner, round);
}

TEST(ThreadRuntime, ProcessesRunAndFinish) {
  ThreadRuntime rt{base_config(4)};
  std::atomic<int> ran{0};
  for (int p = 0; p < 4; ++p)
    rt.add_process([&ran](Env& env) {
      ran.fetch_add(1);
      env.step();
    });
  rt.start();
  rt.join_all();
  EXPECT_EQ(ran.load(), 4);
  for (std::uint32_t p = 0; p < 4; ++p) EXPECT_TRUE(rt.finished(Pid{p}));
}

TEST(ThreadRuntime, MessagesDelivered) {
  ThreadRuntime rt{base_config(2)};
  constexpr int kMsgs = 500;
  std::atomic<int> received{0};
  rt.add_process([](Env& env) {
    for (int i = 0; i < kMsgs; ++i) {
      Message m;
      m.kind = 1;
      m.round = static_cast<std::uint64_t>(i);
      env.send(Pid{1}, m);
    }
  });
  rt.add_process([&received](Env& env) {
    std::vector<Message> drained;
    while (received.load() < kMsgs) {
      env.drain_inbox(drained);
      received.fetch_add(static_cast<int>(drained.size()));
      env.step();
    }
  });
  rt.start();
  rt.join_all();
  EXPECT_EQ(received.load(), kMsgs);
}

TEST(ThreadRuntime, CasIsAtomicUnderContention) {
  // 4 threads × 1000 CAS-increments: every successful CAS must start from a
  // distinct value in [0, 4000), which fails if CAS is not linearizable.
  ThreadRuntime rt{base_config(4)};
  constexpr std::uint64_t kIncrs = 1000;
  std::vector<std::atomic<bool>> claimed(4 * kIncrs);
  std::atomic<int> clashes{0};
  for (int p = 0; p < 4; ++p)
    rt.add_process([&claimed, &clashes](Env& env) {
      const RegId r = env.reg(key_of(Pid{0}));
      for (std::uint64_t i = 0; i < kIncrs; ++i) {
        for (;;) {
          const auto v = env.read(r);
          if (env.cas(r, v, v + 1) == v) {
            if (v >= claimed.size() || claimed[v].exchange(true)) clashes.fetch_add(1);
            break;
          }
          env.step();
        }
      }
    });
  rt.start();
  rt.join_all();
  rt.rethrow_process_error();
  EXPECT_EQ(clashes.load(), 0);
}

TEST(ThreadRuntime, CasCounterExactViaReader) {
  ThreadRuntime rt{base_config(3)};
  constexpr std::uint64_t kIncrs = 800;
  std::atomic<int> writers_done{0};
  std::atomic<std::uint64_t> final_value{0};
  for (int p = 0; p < 2; ++p)
    rt.add_process([&writers_done](Env& env) {
      const RegId r = env.reg(key_of(Pid{0}));
      for (std::uint64_t i = 0; i < kIncrs; ++i) {
        for (;;) {
          const auto v = env.read(r);
          if (env.cas(r, v, v + 1) == v) break;
        }
      }
      writers_done.fetch_add(1);
    });
  rt.add_process([&](Env& env) {
    while (writers_done.load() < 2) env.step();
    final_value.store(env.read(env.reg(key_of(Pid{0}))));
  });
  rt.start();
  rt.join_all();
  rt.rethrow_process_error();
  EXPECT_EQ(final_value.load(), 2 * kIncrs);
}

TEST(ThreadRuntime, AccessControlEnforced) {
  ThreadRuntime::Config cfg;
  cfg.gsm = graph::path(3);
  ThreadRuntime rt{cfg};
  rt.add_process([](Env& env) { env.step(); });
  rt.add_process([](Env& env) { env.step(); });
  rt.add_process([](Env& env) {
    (void)env.read(env.reg(key_of(Pid{0})));  // p2 outside S_{p0}
  });
  rt.start();
  rt.join_all();
  EXPECT_THROW(rt.rethrow_process_error(), ModelViolation);
}

TEST(ThreadRuntime, CrashUnwindsProcess) {
  ThreadRuntime rt{base_config(2)};
  std::atomic<bool> p0_entered{false};
  rt.add_process([&p0_entered](Env& env) {
    p0_entered.store(true);
    for (;;) env.step();  // spins until crashed
  });
  rt.add_process([](Env&) {});
  rt.start();
  while (!p0_entered.load()) std::this_thread::yield();
  rt.crash(Pid{0});
  rt.join_all();
  EXPECT_TRUE(rt.finished(Pid{0}));  // unwound via ProcessKilled
}

TEST(ThreadRuntime, RegistersSurviveCrash) {
  ThreadRuntime rt{base_config(2)};
  std::atomic<bool> written{false};
  std::atomic<std::uint64_t> observed{0};
  rt.add_process([&written](Env& env) {
    env.write(env.reg(key_of(Pid{0})), 424242u);
    written.store(true);
    for (;;) env.step();
  });
  rt.add_process([&](Env& env) {
    while (!written.load()) env.step();
    observed.store(env.read(env.reg(key_of(Pid{0}))));
  });
  rt.start();
  while (!written.load()) std::this_thread::yield();
  rt.crash(Pid{0});
  rt.join_all();
  EXPECT_EQ(observed.load(), 424242u);
}

TEST(ThreadRuntime, StopRequestedStopsLoops) {
  ThreadRuntime rt{base_config(3)};
  for (int p = 0; p < 3; ++p)
    rt.add_process([](Env& env) {
      while (!env.stop_requested()) env.step();
    });
  rt.start();
  rt.request_stop();
  rt.join_all();
  SUCCEED();
}

TEST(ThreadRuntime, ConstructorValidatesLinkModel) {
  // Links are reliable, so an empty GSM is the one malformed config.
  ThreadRuntime::Config empty;
  EXPECT_THROW(ThreadRuntime{empty}, ConfigError);
}

}  // namespace
}  // namespace mm::runtime
