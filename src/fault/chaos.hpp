// ChaosCase: one fully-described randomized-fault trial.
//
// A case bundles everything needed to reproduce a run bit-for-bit: the
// scenario (algorithm, topology, seed, delays, budget), the reactive fault
// schedule (rules), and which invariant oracles are armed. Cases serialize
// to a small JSON document — the repro format the shrinker emits and
// `tools/chaos --replay` consumes — and running one is a pure function of
// the case, so a shrunk repro replays to the identical violation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "fault/json.hpp"
#include "fault/oracle.hpp"
#include "fault/rule.hpp"
#include "graph/graph.hpp"

namespace mm::fault {

enum class CaseKind : std::uint8_t { kConsensus, kOmega, kByzRegister };
[[nodiscard]] const char* to_string(CaseKind k) noexcept;

/// Deterministic topology families only (a random-regular GSM would smuggle
/// hidden state past the JSON round-trip).
enum class Topology : std::uint8_t {
  kComplete,
  kRing,
  kChordalRing,  ///< falls back to ring for odd n (chordal rings need even n)
  kStar,
  kEdgeless,     ///< HBO degenerates to pure Ben-Or
};
[[nodiscard]] const char* to_string(Topology t) noexcept;
[[nodiscard]] std::optional<Topology> topology_from_string(std::string_view s) noexcept;
/// The GSM a case with this topology runs on. The explore bridge builds its
/// runtimes from the same function, so a bridged repro explores the graph
/// the case ran on.
[[nodiscard]] graph::Graph make_topology(Topology t, std::size_t n);

struct ChaosCase {
  CaseKind kind = CaseKind::kConsensus;
  std::uint64_t seed = 1;
  std::size_t n = 5;
  Topology topology = Topology::kComplete;

  // Consensus scenario knobs.
  core::Algo algo = core::Algo::kHbo;
  std::size_t f = 0;          ///< baseline random crashes (beyond the rules)
  Step crash_window = 2'000;

  // Ω scenario knobs.
  core::OmegaAlgo omega_algo = core::OmegaAlgo::kMnmReliable;
  double drop_prob = 0.0;     ///< fair-lossy links (Ω fair-lossy variant)

  // Byzantine-register scenario knobs (kind == kByzRegister). `f` above is
  // reused as the register's *configured* tolerance; the actual Byzantine
  // set is whatever the kGoByzantine rules target, so over-tolerant planted
  // cases simply carry more rules than f admits.
  bool byz_hybrid = false;    ///< hybrid m&m mode (shared-memory fast path)
  std::size_t byz_writes = 3; ///< writer issues values 1..byz_writes

  Step max_delay = 8;
  Step budget = 200'000;
  std::uint64_t max_rounds = 4'000;

  std::vector<FaultRule> rules;
  std::vector<Oracle> oracles;

  friend bool operator==(const ChaosCase&, const ChaosCase&) = default;
};

struct ChaosOutcome {
  std::optional<Violation> violation;  ///< nullopt = all armed oracles passed
  bool decided = false;                ///< consensus: all correct decided
  Step steps_used = 0;
  std::size_t rules_fired = 0;
  std::string trace_tail;              ///< decoded event-ring tail (empty unless armed)
};

/// Run one case under the deterministic simulator. Builds a fresh
/// FaultEngine internally, so it is safe to fan out over parallel_map.
/// `trace_capacity` != 0 arms event tracing for the run and returns the
/// decoded ring tail in the outcome (tools/chaos show uses this to render
/// the schedule that led to a replayed violation).
[[nodiscard]] ChaosOutcome run_chaos_case(const ChaosCase& c,
                                          std::size_t trace_capacity = 0);

/// Draw a random case from a seeded stream. Generated consensus cases arm
/// the safety oracles (agreement, validity); `assert_termination` also arms
/// kTermination — deliberately a *false* invariant under arbitrary fault
/// schedules, which is how campaigns plant findable bugs. Ω cases arm
/// kOmegaStabilizes and keep their schedules away from the timely process so
/// stabilization is genuinely expected. `include_byzantine` mixes in
/// ByzRegister cases whose Byzantine sets respect the resilience bound
/// (b ≤ f, never the writer), so their safety oracles are true invariants;
/// with `assert_termination` the Byzantine cases instead plant one silent
/// process too many (b = f + 1), which provably stalls the write quorum.
[[nodiscard]] ChaosCase random_case(Rng& rng, bool include_omega,
                                    bool assert_termination,
                                    bool include_byzantine = false);

// JSON (de)serialization. case_from_json throws JsonError naming the field on
// malformed input, an oracle the kind never evaluates, an n the kind or
// topology cannot build, or a consensus f >= n.
[[nodiscard]] Json case_to_json(const ChaosCase& c);
[[nodiscard]] ChaosCase case_from_json(const Json& j);

/// Versioned repro envelope: { format, version, case, violation? }.
[[nodiscard]] std::string repro_to_string(const ChaosCase& c, const Violation* v);
/// Parses a repro document; when `recorded` is non-null it receives the
/// violation the document claims (if any; its oracle is checked like `oracles`).
[[nodiscard]] ChaosCase repro_from_string(std::string_view text,
                                          std::optional<Violation>* recorded = nullptr);

}  // namespace mm::fault
