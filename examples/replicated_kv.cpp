// Replicated key-value store over the m&m replicated log.
//
// Each replica submits PUT commands; every command goes through one slot of
// the replicated log (multivalued consensus over HBO), so all replicas apply
// the same PUTs in the same order and end with identical stores — even after
// a crash wave takes down more replicas than any message-passing replication
// protocol tolerates.
//
// Command word (16 bits): [key : 4][value : 8][writer : 4].
//
//   $ ./replicated_kv [seed]
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "common/parse.hpp"
#include "core/rsm.hpp"
#include "graph/generators.hpp"
#include "runtime/sim_runtime.hpp"

namespace {

std::uint64_t make_put(std::uint64_t key, std::uint64_t value, std::uint64_t writer) {
  return ((key & 0xf) << 12) | ((value & 0xff) << 4) | (writer & 0xf);
}

struct Put {
  std::uint64_t key, value, writer;
};
Put parse_put(std::uint64_t cmd) {
  return Put{(cmd >> 12) & 0xf, (cmd >> 4) & 0xff, cmd & 0xf};
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = mm::positional_decimal(argc, argv, 1, "seed", std::uint64_t{21});
  const std::size_t n = 6;
  constexpr std::size_t kSlots = 6;

  const mm::graph::Graph gsm = mm::graph::complete(n);
  mm::runtime::SimConfig sim;
  sim.gsm = gsm;
  sim.seed = seed;
  // Crash 4 of 6 replicas at step 3000 — mid-log.
  sim.crash_at.assign(n, std::nullopt);
  for (std::uint32_t victim : {1u, 2u, 4u, 5u}) sim.crash_at[victim] = 3'000;
  mm::runtime::SimRuntime rt{std::move(sim)};

  std::vector<std::map<std::uint64_t, std::uint64_t>> stores(n);
  std::vector<std::unique_ptr<mm::core::LogReplica>> replicas;
  for (std::size_t p = 0; p < n; ++p) {
    mm::core::LogReplica::Config rc;
    rc.gsm = &gsm;
    rc.command_bits = 16;
    rc.max_slots = kSlots;
    rc.apply = [&stores, p](std::uint64_t, std::uint64_t cmd) {
      const Put put = parse_put(cmd);
      stores[p][put.key] = put.value;
    };
    replicas.push_back(std::make_unique<mm::core::LogReplica>(rc));
    rt.add_process([replica = replicas.back().get(), p](mm::runtime::Env& env) {
      for (std::uint64_t s = 0; s < kSlots; ++s) {
        // Each replica proposes a PUT to key s%4 with its own signature.
        const std::uint64_t cmd = make_put(s % 4, 10 * (p + 1) + s, p);
        if (!replica->run_slot(env, cmd).has_value()) return;
      }
    });
  }

  std::printf("6-replica KV store, %zu log slots; 4 replicas crash at step 3000 (mid-log)\n\n",
              kSlots);
  rt.run_until_all_done(40'000'000);
  rt.shutdown();
  rt.rethrow_process_error();

  // Report the decided log from a surviving full replica.
  const auto& log = replicas[0]->log();
  std::printf("decided log (%zu slots):\n", log.size());
  for (std::size_t s = 0; s < log.size(); ++s) {
    const Put put = parse_put(log[s]);
    std::printf("  slot %zu: PUT k%llu = %llu (proposed by replica %llu)\n", s,
                static_cast<unsigned long long>(put.key),
                static_cast<unsigned long long>(put.value),
                static_cast<unsigned long long>(put.writer));
  }

  std::printf("\nfinal stores:\n");
  bool all_equal = true;
  for (std::size_t p = 0; p < n; ++p) {
    std::printf("  replica %zu (%s, %zu cmds applied): {", p,
                rt.crashed(mm::Pid{static_cast<std::uint32_t>(p)}) ? "crashed" : "alive",
                replicas[p]->log().size());
    for (const auto& [k, v] : stores[p])
      std::printf(" k%llu=%llu", static_cast<unsigned long long>(k),
                  static_cast<unsigned long long>(v));
    std::printf(" }\n");
    // Prefix consistency: crashed replicas hold a prefix of the full log.
    for (std::size_t s = 0; s < replicas[p]->log().size(); ++s)
      all_equal = all_equal && replicas[p]->log()[s] == log[s];
  }
  std::printf("\nprefix agreement across all replicas: %s\n", all_equal ? "yes" : "VIOLATED");
  return all_equal ? 0 : 1;
}
