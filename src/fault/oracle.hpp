// Invariant oracles: the shared "did the run violate a guarantee?" layer
// used by the chaos campaign, the shrinker, and the e2e tests.
//
// Each oracle names one property the paper proves (or that the runtime
// promises) and maps a trial result to pass/fail. Arming an oracle the run's
// fault schedule can legitimately break — e.g. termination with more crashes
// than the Theorem 4.3 bound — is how the planted-bug tests manufacture
// violations on demand.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/trial.hpp"

namespace mm::fault {

enum class Oracle : std::uint8_t {
  kAgreement,       ///< no two decided processes decide differently (§4)
  kValidity,        ///< every decision is some process' input (§4)
  kTermination,     ///< all correct processes decide within the step budget
  kOmegaStabilizes, ///< Ω converges to one correct leader everywhere (§5)
  // Byzantine-aware oracles: judged only at *correct* processes (neither
  // crashed nor Byzantine) — a Byzantine process's outputs have no spec.
  kByzAgreement,    ///< no two correct servers adopt different values for one ts
  kByzValidity,     ///< correct readers return only written (or initial) values
  kByzLinearizable, ///< the correct processes' register history is atomic
};

[[nodiscard]] const char* to_string(Oracle o) noexcept;
[[nodiscard]] std::optional<Oracle> oracle_from_string(std::string_view s) noexcept;

struct Violation {
  Oracle oracle = Oracle::kAgreement;
  std::string detail;
};

/// Evaluate the armed consensus oracles against one trial result; returns
/// the first violation found (agreement before validity before termination).
[[nodiscard]] std::optional<Violation> check_consensus(
    const core::ConsensusTrialResult& res, const std::vector<Oracle>& armed);

/// Evaluate the armed Ω oracles (only kOmegaStabilizes applies).
[[nodiscard]] std::optional<Violation> check_omega(
    const core::OmegaTrialResult& res, const std::vector<Oracle>& armed);

/// Evaluate the armed Byzantine-register oracles against one trial result.
/// `byz_mask` marks the Byzantine pids (bit p, from the run's adversary) —
/// their adoptions, reads, and liveness are exempt; crashed processes are
/// exempt from liveness via res.crashed. Order: agreement among correct,
/// validity at correct readers, linearizability of the correct history,
/// then termination.
[[nodiscard]] std::optional<Violation> check_byz_register(
    const core::ByzRegisterTrialResult& res, std::uint64_t byz_mask,
    const std::vector<Oracle>& armed);

}  // namespace mm::fault
