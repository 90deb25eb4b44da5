// Non-blocking atomic commitment (NBAC) over m&m consensus — a realistic
// consensus workload.
//
// n resource managers vote commit(1)/abort(0) on each transaction. Every
// manager broadcasts its vote, waits until it has all n votes or times out,
// and then proposes to consensus: 1 iff it saw ALL n votes and all were yes,
// else 0. A manager can only propose commit after seeing a complete all-yes
// vote set, so a COMMIT decision (consensus Validity) implies nobody voted
// abort — the atomic-commitment safety property. Consensus Agreement rules
// out split outcomes.
//
// The consensus is Hybrid Ben-Or on a degree-4 shared-memory graph. The
// adversary crashes MORE than half the managers mid-stream: a pure
// message-passing commit service would wedge (no majority); the m&m one
// keeps terminating — post-crash transactions correctly ABORT (dead
// participants cannot vote), but every live manager still learns the same
// outcome.
//
//   $ ./replicated_commit [transactions] [seed]
#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/parse.hpp"
#include "common/rng.hpp"
#include "core/hbo.hpp"
#include "core/tags.hpp"
#include "graph/expansion.hpp"
#include "graph/generators.hpp"
#include "net/broadcast.hpp"
#include "runtime/sim_runtime.hpp"

namespace {

constexpr std::uint32_t kMsgVote = 40;  // private message kind for this app

struct TxnResult {
  bool all_live_decided = false;
  int outcome = -1;  // -1 undecided, 0 abort, 1 commit
  bool split = false;
};

TxnResult run_transaction(const mm::graph::Graph& gsm, const std::vector<std::uint32_t>& votes,
                          const std::vector<bool>& crashed, std::uint64_t seed) {
  const std::size_t n = gsm.size();
  mm::runtime::SimConfig sim;
  sim.gsm = gsm;
  sim.seed = seed;
  sim.crash_at.assign(n, std::nullopt);
  for (std::size_t p = 0; p < n; ++p)
    if (crashed[p]) sim.crash_at[p] = 0;
  mm::runtime::SimRuntime rt{std::move(sim)};

  std::vector<std::atomic<int>> decisions(n);
  for (auto& d : decisions) d.store(-1);

  for (std::uint32_t p = 0; p < n; ++p) {
    rt.add_process([&, p](mm::runtime::Env& env) {
      // Phase 1: exchange votes; wait for all n or a local timeout.
      mm::runtime::Message vote;
      vote.kind = kMsgVote;
      vote.value = votes[p];
      mm::net::send_to_all(env, vote);

      std::vector<int> seen(n, -1);
      std::vector<mm::runtime::Message> foreign;  // early consensus traffic
      std::vector<mm::runtime::Message> drained;
      std::size_t have = 0;
      constexpr int kTimeoutSteps = 4'000;
      for (int t = 0; t < kTimeoutSteps && have < n; ++t) {
        env.drain_inbox(drained);
        for (auto& m : drained) {
          if (m.kind == kMsgVote) {
            if (seen[m.from.index()] < 0) {
              seen[m.from.index()] = static_cast<int>(m.value);
              ++have;
            }
          } else {
            // Messages from managers that already moved on to consensus:
            // keep them for the consensus object or they are lost.
            foreign.push_back(std::move(m));
          }
        }
        env.step();
      }
      bool all_yes = have == n;
      for (int v : seen) all_yes = all_yes && v == 1;

      // Phase 2: consensus on the outcome.
      mm::core::HboConsensus::Config hc;
      hc.gsm = &gsm;
      mm::core::HboConsensus consensus{hc, all_yes ? 1u : 0u};
      consensus.seed_buffer(std::move(foreign));
      consensus.run(env);
      decisions[p].store(consensus.decision());
    });
  }
  const bool done = rt.run_until_all_done(3'000'000);
  rt.shutdown();
  rt.rethrow_process_error();

  TxnResult res;
  res.all_live_decided = done;
  for (std::size_t p = 0; p < n; ++p) {
    if (crashed[p]) continue;
    const int d = decisions[p].load();
    if (d < 0) {
      res.all_live_decided = false;
      continue;
    }
    if (res.outcome >= 0 && res.outcome != d) res.split = true;
    res.outcome = d;
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const int txns = mm::positional_decimal(argc, argv, 1, "txns", 6, 1);
  const std::uint64_t seed = mm::positional_decimal(argc, argv, 2, "seed", std::uint64_t{7});

  const std::size_t n = 10;
  mm::Rng rng{seed};
  const mm::graph::Graph gsm = mm::graph::random_regular_must(n, 4, rng);
  std::printf("resource managers: %zu, GSM %s, f* = %zu (a MP commit service caps at %zu)\n\n",
              n, gsm.summary().c_str(), mm::graph::hbo_f_exact(gsm), (n - 1) / 2);

  std::vector<bool> crashed(n, false);
  for (int t = 0; t < txns; ++t) {
    if (t == 3) {
      for (std::uint32_t victim : {1u, 3u, 4u, 6u, 8u, 9u}) crashed[victim] = true;
      std::printf("-- crash wave: 6 of %zu managers down (beyond any MP majority) --\n", n);
    }
    std::vector<std::uint32_t> votes(n, 1);
    if (t == 1) votes[5] = 0;  // one abort vote on transaction 1

    const TxnResult res =
        run_transaction(gsm, votes, crashed, seed * 1000 + static_cast<std::uint64_t>(t));
    if (res.split) {
      std::printf("txn %d: SPLIT OUTCOME — agreement violated (bug!)\n", t);
      return 1;
    }
    if (!res.all_live_decided) {
      std::printf("txn %d: undecided within budget\n", t);
      continue;
    }
    std::printf("txn %d: %-6s at every live manager\n", t, res.outcome == 1 ? "COMMIT" : "ABORT");
  }
  return 0;
}
