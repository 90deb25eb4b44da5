#include "fault/explore_bridge.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "check/instances.hpp"
#include "runtime/env.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::fault {

using runtime::Env;
using runtime::ExploreFaults;
using runtime::RegKey;
using runtime::SimConfig;
using runtime::SimRuntime;

namespace {

// Result channel, mirroring check/instances.cpp: each process publishes its
// outcome to a harness-global register keyed by its pid, and the oracle
// reads the registers back on any schedule. A distinct tag keeps bridged
// instances disjoint from the canonical corpus even if both ever share a
// runtime.
constexpr std::uint8_t kBridgeTag = 0x67;

RegKey res_key(Pid p) { return RegKey::make_global(kBridgeTag, p); }

std::optional<std::uint64_t> published(const SimRuntime& rt, std::size_t p) {
  return rt.register_value(res_key(Pid{static_cast<std::uint32_t>(p)}));
}

[[noreturn]] void reject(const std::string& what) {
  throw BridgeError{"chaos case is outside the explorable fragment: " + what};
}

/// Map the case's reactive rules onto the explorer's fault plan. Trigger
/// placements are deliberately discarded — the explorer owns placement, so
/// every bridged fault may fire at any step or never, a superset of the
/// sampled schedule.
ExploreFaults lift_rules(const ChaosCase& c) {
  ExploreFaults ef;
  for (const FaultRule& r : c.rules) {
    switch (r.action) {
      case Action::kCrash: {
        if (r.target.is_none())
          reject("a crash rule names no explicit target (the triggering "
                 "process is schedule-dependent); shrink it to a concrete pid");
        if (r.target.index() >= c.n) break;  // inert, mirroring the engine
        if (std::find(ef.crashes.begin(), ef.crashes.end(), r.target) ==
            ef.crashes.end())
          ef.crashes.push_back(r.target);
        break;
      }
      case Action::kPartition: {
        const std::uint64_t full =
            c.n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << c.n) - 1;
        const std::uint64_t cut = r.mask & full;
        if (cut == 0 || cut == full) break;  // one-sided cut holds nothing
        if (ef.partition_mask.has_value() && *ef.partition_mask != cut)
          reject("two partition rules with distinct cuts (the explorer owns "
                 "one transient window per run)");
        ef.partition_mask = cut;
        break;
      }
      case Action::kHealPartition:
        break;  // the explorer owns the off-toggle placement
      case Action::kLinkBurst: {
        if (r.dup_prob != 0.0 || r.extra_delay != 0)
          reject("a link burst duplicates or delays messages, which breaks "
                 "the explorer's reliable unit-delay envelope");
        if (r.drop_prob > 0.0) ef.drop_budget += 1;
        break;
      }
      case Action::kMemoryWindow:
        reject("memory-failure windows have no dependency class in "
               "footprints_dependent yet (sample them with chaos campaigns "
               "instead)");
      case Action::kGoByzantine:
        reject("explorer does not support Byzantine processes: adversary "
               "interposition has no dependency class in footprints_dependent "
               "yet (sample it with chaos campaigns instead)");
    }
  }
  return ef;
}

}  // namespace

check::Instance instance_from_chaos(const ChaosCase& c, const Violation* recorded) {
  if (c.kind != CaseKind::kConsensus)
    reject(std::string{"case kind '"} + to_string(c.kind) +
           "' is not bridged (consensus only)");
  if (c.algo != core::Algo::kHbo)
    reject(std::string{"algo '"} + core::to_string(c.algo) +
           "' is not bridged (hbo only)");
  if (c.f != 0)
    reject("baseline random crashes (f > 0) pick victims from the rng; "
           "shrink them into explicit crash rules first");
  if (c.n < 2 || c.n > 64) reject("n must be in [2, 64] for the explorer");
  for (const Oracle o : c.oracles)
    if (o != Oracle::kAgreement && o != Oracle::kValidity &&
        o != Oracle::kTermination)
      reject(std::string{"oracle '"} + to_string(o) +
             "' has no schedule-independent bridged check");

  const ExploreFaults ef = lift_rules(c);
  const std::size_t n = c.n;
  const std::uint64_t seed = c.seed;
  const Topology topo = c.topology;
  // Bounded rounds keep every decided schedule finite; the chaos default
  // (4000) exists to outlast randomized delays the explorer does not have.
  const std::uint64_t max_rounds = std::min<std::uint64_t>(c.max_rounds, 8);

  check::Instance in;
  in.name = "chaos:" + std::string{to_string(c.kind)};
  in.description =
      "bridged chaos repro: hbo consensus, n=" + std::to_string(n) + ", " +
      to_string(topo) + " GSM, inputs p%2; explorer owns " +
      std::to_string(ef.crashes.size()) + " crash event(s), drop budget " +
      std::to_string(ef.drop_budget) +
      (ef.partition_mask ? ", one transient partition window" : "") +
      " — every trigger placement the repro sampled, and all the others";

  in.make = [n, seed, topo, max_rounds, ef]() {
    SimConfig cfg;
    cfg.gsm = make_topology(topo, n);
    cfg.seed = seed;
    cfg.min_delay = 1;  // unit fixed delay: the explorer's soundness envelope
    cfg.max_delay = 1;
    cfg.explore_faults = ef;
    auto rt = std::make_unique<SimRuntime>(cfg);
    auto gsm = std::make_shared<graph::Graph>(make_topology(topo, n));
    for (std::uint32_t p = 0; p < n; ++p)  // inputs 0,1,0,1,...
      rt->add_process([gsm, p, max_rounds](Env& env) {
        check::run_hbo_and_publish(env, *gsm, p % 2, max_rounds, res_key(env.self()));
      });
    return rt;
  };

  bool want_agreement = false, want_validity = false, want_termination = false;
  for (const Oracle o : c.oracles) {
    want_agreement |= o == Oracle::kAgreement;
    want_validity |= o == Oracle::kValidity;
    want_termination |= o == Oracle::kTermination;
  }
  in.check = [n, want_agreement, want_validity,
              want_termination](const SimRuntime& rt) -> std::optional<std::string> {
    std::optional<std::uint64_t> agreed;
    for (std::size_t p = 0; p < n; ++p) {
      const Pid pid{static_cast<std::uint32_t>(p)};
      if (rt.crashed(pid)) continue;
      const auto r = published(rt, p);
      if (!rt.finished(pid) || !r.has_value() || *r == check::kHboUndecided) {
        if (want_termination)
          return std::string{to_string(Oracle::kTermination)} + ": live p" +
                 std::to_string(p) + " never decided within the step budget";
        continue;  // without the termination oracle armed, stalls are legal
      }
      // Inputs are p % 2, so any decided value beyond {0, 1} (or 1 with
      // n == 1, which the bridge rejects) is a non-input.
      if (want_validity && *r != 1 && *r != 2)
        return std::string{to_string(Oracle::kValidity)} + ": p" +
               std::to_string(p) + " decided a non-input";
      if (want_agreement) {
        if (agreed.has_value() && *agreed != *r)
          return std::string{to_string(Oracle::kAgreement)} + ": decisions " +
                 std::to_string(*agreed - 1) + " and " + std::to_string(*r - 1);
        agreed = *r;
      }
    }
    return std::nullopt;
  };

  in.expect_violation = recorded != nullptr;
  in.dfs_feasible = false;  // live HBO runs: far beyond any DFS budget
  if (recorded != nullptr && recorded->oracle == Oracle::kTermination) {
    // The claimed livelock must surface as a truncated run the oracle can
    // flag — collapse would prune it as a cycle and verify nothing.
    in.dpor.idle_slice_collapse = false;
    in.dpor.max_steps_per_run = 2'000;
    in.dpor.max_runs = 20'000;
    in.dfs.max_steps_per_run = 2'000;
    in.dfs.max_runs = 20'000;
  } else {
    // HBO's awaits are stateless busy-wait pumps: collapse is sound and
    // required for exhaustion (check/instances.cpp, hbo3-crash).
    in.dpor.idle_slice_collapse = true;
    in.dpor.max_steps_per_run = 20'000;
  }
  return in;
}

BridgedRepro bridge_repro(std::string_view repro_json) {
  std::optional<Violation> recorded;
  const ChaosCase c = repro_from_string(repro_json, &recorded);
  BridgedRepro out;
  out.recorded = recorded;
  out.instance = instance_from_chaos(c, recorded ? &*recorded : nullptr);
  return out;
}

std::optional<Oracle> violation_oracle(std::string_view message) {
  const std::size_t colon = message.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  return oracle_from_string(message.substr(0, colon));
}

}  // namespace mm::fault
