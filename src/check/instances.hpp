// Canonical protocol instances for the model checker — the E19 corpus.
//
// Each instance packages a full protocol configuration (processes, graph,
// inputs, planted faults) behind the explorer harness contract: a `make`
// that builds a fresh runtime, and a schedule-independent `check` oracle
// that inspects ONLY the finished runtime. Process bodies publish their
// results to well-known global result registers (RegKey::make_global), so
// oracles read them back through SimRuntime::register_value — no shared
// mutable state between the harness and the bodies, so no replay can see
// what an earlier one left behind.
//
// The registry spans three roles:
//   * clean algebra instances (steppers2, pingpong2, ac2/ac3, cas2) — the
//     differential corpus where DFS and DPOR must agree on verdict and
//     reachable final-state set;
//   * full protocol instances (hbo3-crash, omega2-steady) — the tentpole
//     proofs: HBO consensus with an initially-dead process and Ω's
//     steady-state silence, exhausted by DPOR;
//   * planted-bug instances (ac2-broken, ac3-broken, hbo3-stuck) — known
//     violations the explorer must FIND, with pinned run budgets acting as
//     trip-wires against reduction bugs that skip schedules.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/dpor.hpp"
#include "check/explore.hpp"
#include "graph/graph.hpp"
#include "runtime/env.hpp"
#include "runtime/register_key.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::check {

/// What an HBO process body publishes when it ran out of rounds undecided.
inline constexpr std::uint64_t kHboUndecided = 9;

/// The HBO process body of the corpus's HBO instances and of bridged chaos
/// repros: run HboConsensus on `gsm` from `input` with CAS consensus objects
/// and at most `max_rounds` rounds, then write 1 + the decision, or
/// kHboUndecided, to the register named `result`.
void run_hbo_and_publish(runtime::Env& env, const graph::Graph& gsm, std::uint32_t input,
                         std::uint64_t max_rounds, runtime::RegKey result);

struct Instance {
  std::string name;
  std::string description;
  /// Fresh runtime with bodies attached (config passes validate_explorable).
  std::function<std::unique_ptr<runtime::SimRuntime>()> make;
  /// Safety oracle over one finished (or step-budget-truncated) run: the
  /// violation message, or nullopt if the run is clean. Reads only `rt`.
  std::function<std::optional<std::string>(const runtime::SimRuntime&)> check;
  DporOptions dpor;  ///< tuned budgets/flags for the DPOR explorer
  ExploreOptions dfs;  ///< tuned budgets for the naive DFS baseline
  /// Whether the naive DFS terminates within CI budget (spin-heavy
  /// instances need the DPOR state cache to prune busy-wait cycles; under
  /// DFS every spin branch runs to the step budget).
  bool dfs_feasible = true;
  bool expect_violation = false;  ///< planted-bug instance
};

/// The instance corpus, in presentation order. Built once, on first use.
[[nodiscard]] const std::vector<Instance>& instances();
/// Lookup by name; nullptr when unknown.
[[nodiscard]] const Instance* find_instance(std::string_view name);

/// Outcome of exploring one instance: the explorer's result plus the first
/// oracle violation, if any (exploration stops at the first violation;
/// `violation_run` is the 1-based replay on which it surfaced).
struct InstanceVerdict {
  ExploreResult result;
  std::optional<std::string> violation;
  std::uint64_t violation_run = 0;
};

[[nodiscard]] InstanceVerdict check_instance_dpor(const Instance& inst);
[[nodiscard]] InstanceVerdict check_instance_dpor(const Instance& inst,
                                                  const DporOptions& options);
[[nodiscard]] InstanceVerdict check_instance_dfs(const Instance& inst);
[[nodiscard]] InstanceVerdict check_instance_dfs(const Instance& inst,
                                                 const ExploreOptions& options);

}  // namespace mm::check
