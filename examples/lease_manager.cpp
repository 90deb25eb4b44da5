// Lease manager on top of m&m eventual leader election (§5).
//
// A group of servers uses OmegaMM to agree on a lease holder. The demo
// prints a timeline: initial election, steady state (where, per
// Theorem 5.1, NO messages flow — the leader just bumps a heartbeat
// register and everyone else reads it), a leader crash, and failover to a
// new holder. All links stay fully asynchronous throughout — only one
// process needs to be timely, and here that is the failover target.
//
//   $ ./lease_manager [n] [seed]
#include <cstdio>
#include <memory>
#include <vector>

#include "common/parse.hpp"
#include "core/omega.hpp"
#include "graph/generators.hpp"
#include "runtime/sim_runtime.hpp"

namespace {

mm::Pid agreed_leader(const std::vector<std::unique_ptr<mm::core::OmegaMM>>& nodes,
                      const mm::runtime::SimRuntime& rt) {
  mm::Pid agreed = mm::Pid::none();
  for (std::uint32_t p = 0; p < nodes.size(); ++p) {
    if (rt.crashed(mm::Pid{p})) continue;
    const mm::Pid l = nodes[p]->leader();
    if (l.is_none()) return mm::Pid::none();
    if (agreed.is_none()) agreed = l;
    if (l != agreed) return mm::Pid::none();
  }
  return agreed;
}

}  // namespace

int main(int argc, char** argv) {
  // p1 is the timely process, so the group needs two servers at least.
  const auto n = mm::positional_decimal(argc, argv, 1, "n", std::size_t{6}, std::size_t{2});
  const std::uint64_t seed = mm::positional_decimal(argc, argv, 2, "seed", std::uint64_t{3});

  mm::runtime::SimConfig sim;
  sim.gsm = mm::graph::complete(n);  // §5 assumes full shared-memory connectivity
  sim.seed = seed;
  sim.timely = mm::Pid{1};  // the only process that must be timely
  sim.timely_bound = 8;
  sim.min_delay = 1;
  sim.max_delay = 200;  // links are allowed to be wildly asynchronous
  mm::runtime::SimRuntime rt{std::move(sim)};

  std::vector<std::unique_ptr<mm::core::OmegaMM>> nodes;
  for (std::size_t p = 0; p < n; ++p) {
    nodes.push_back(std::make_unique<mm::core::OmegaMM>(mm::core::OmegaMM::Config{}));
    rt.add_process([node = nodes.back().get()](mm::runtime::Env& env) { node->run(env); });
  }

  std::printf("lease group of %zu servers; only p1 is guaranteed timely\n", n);

  // Wait for the initial lease holder.
  mm::Pid holder = mm::Pid::none();
  while (holder.is_none() && rt.now() < 400'000) {
    rt.run_steps(1'000);
    holder = agreed_leader(nodes, rt);
  }
  if (holder.is_none()) {
    std::printf("no stable lease holder within budget\n");
    return 1;
  }
  std::printf("[step %8llu] lease granted to %s\n",
              static_cast<unsigned long long>(rt.now()), mm::to_string(holder).c_str());

  // Steady state: show that no messages flow while the lease is stable.
  const auto before = rt.metrics();
  rt.run_steps(20'000);
  const auto delta = rt.metrics().delta_since(before);
  std::printf("[step %8llu] steady state over 20k steps: %llu messages, "
              "lease holder wrote its heartbeat register %llu times\n",
              static_cast<unsigned long long>(rt.now()),
              static_cast<unsigned long long>(delta.msgs_sent),
              static_cast<unsigned long long>(delta.writes_by_proc[holder.index()]));

  // Crash the holder; measure failover.
  rt.crash_now(holder);
  const auto crash_step = rt.now();
  std::printf("[step %8llu] %s crashed — lease must move\n",
              static_cast<unsigned long long>(crash_step), mm::to_string(holder).c_str());

  mm::Pid next = mm::Pid::none();
  while (rt.now() < crash_step + 3'000'000) {
    rt.run_steps(2'000);
    next = agreed_leader(nodes, rt);
    if (!next.is_none() && next != holder) break;
    next = mm::Pid::none();
  }
  if (next.is_none()) {
    std::printf("failover did not complete within budget\n");
    return 1;
  }
  std::printf("[step %8llu] lease re-granted to %s after %llu steps of failover\n",
              static_cast<unsigned long long>(rt.now()), mm::to_string(next).c_str(),
              static_cast<unsigned long long>(rt.now() - crash_step));

  rt.shutdown();
  rt.rethrow_process_error();
  return 0;
}
