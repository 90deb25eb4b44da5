// The paper's opening motivation (§1): mutual exclusion without spinning.
//
// Contrasts a classic shared-memory test-and-set spin lock against the m&m
// lock, in which waiters announce themselves in a register, go to sleep, and
// are woken by a message when the holder leaves the critical section. Both
// run the same contended workload under the deterministic simulator; the
// table shows where the waiting cost goes.
//
//   $ ./mm_mutex_demo [contenders] [rounds] [seed]
#include <cstdio>
#include <vector>

#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/mutex.hpp"
#include "graph/generators.hpp"
#include "runtime/sim_runtime.hpp"

namespace {

struct Totals {
  std::uint64_t acquisitions = 0;
  std::uint64_t spin_reads = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t wait_steps = 0;
};

template <typename LockFn, typename UnlockFn>
Totals run_workload(std::size_t contenders, int rounds, std::uint64_t seed, LockFn&& lock,
                    UnlockFn&& unlock) {
  mm::runtime::SimConfig cfg;
  cfg.gsm = mm::graph::complete(contenders);
  cfg.seed = seed;
  mm::runtime::SimRuntime rt{cfg};
  std::vector<mm::core::MutexStats> stats(contenders);
  for (std::uint32_t p = 0; p < contenders; ++p) {
    rt.add_process([&, p](mm::runtime::Env& env) {
      for (int r = 0; r < rounds; ++r) {
        lock(env, stats[p]);
        if (env.stop_requested()) return;
        for (int hold = 0; hold < 5; ++hold) env.step();  // critical section
        unlock(env, stats[p]);
        env.step();
      }
    });
  }
  rt.run_until_all_done(20'000'000);
  rt.shutdown();
  rt.rethrow_process_error();
  Totals t;
  for (const auto& s : stats) {
    t.acquisitions += s.acquisitions;
    t.spin_reads += s.spin_reads;
    t.wakeups += s.wakeup_messages;
    t.wait_steps += s.wait_steps;
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const auto contenders =
      mm::positional_decimal(argc, argv, 1, "contenders", std::size_t{8}, std::size_t{1});
  const int rounds = mm::positional_decimal(argc, argv, 2, "rounds", 40, 1);
  const std::uint64_t seed = mm::positional_decimal(argc, argv, 3, "seed", std::uint64_t{5});

  mm::core::SpinMutex spin;
  mm::core::MnmMutex mnm;

  const Totals spin_t = run_workload(
      contenders, rounds, seed,
      [&](mm::runtime::Env& env, mm::core::MutexStats& s) { spin.lock(env, s); },
      [&](mm::runtime::Env& env, mm::core::MutexStats&) { spin.unlock(env); });
  const Totals mnm_t = run_workload(
      contenders, rounds, seed,
      [&](mm::runtime::Env& env, mm::core::MutexStats& s) { mnm.lock(env, s); },
      [&](mm::runtime::Env& env, mm::core::MutexStats& s) { mnm.unlock(env, s); });

  std::printf("%zu contenders x %d critical sections each\n\n", contenders, rounds);
  mm::Table table{{"lock", "acquisitions", "spin reads (shared mem)", "wakeup msgs",
                   "wait steps"}};
  table.row()
      .cell("sm-spin")
      .cell(spin_t.acquisitions)
      .cell(spin_t.spin_reads)
      .cell(spin_t.wakeups)
      .cell(spin_t.wait_steps);
  table.row()
      .cell("m&m-wakeup")
      .cell(mnm_t.acquisitions)
      .cell(mnm_t.spin_reads)
      .cell(mnm_t.wakeups)
      .cell(mnm_t.wait_steps);
  table.print();
  std::printf("\nwaiters under the m&m lock issue ZERO shared-memory reads while parked;\n"
              "the spin lock turns every waiting step into interconnect traffic (§1).\n");
  return 0;
}
