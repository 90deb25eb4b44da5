// The chaos campaign driver: generate → fan out → check → shrink.
//
// A campaign draws `trials` random cases from one seeded stream, runs them
// across the parallel trial engine (MM_JOBS workers; results reduced in
// case order, so the outcome is bit-identical at any job count), and shrinks
// the first violations it finds into minimal JSON-able repro cases.
//
// Default campaigns arm only safety oracles and are expected to find
// nothing — a finding is a real bug. `assert_termination` plants a false
// invariant (termination under arbitrary fault schedules, which Theorem 4.3
// explicitly does not promise) so tests and demos can exercise the whole
// find → shrink → replay loop on demand.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/chaos.hpp"
#include "fault/shrink.hpp"

namespace mm::fault {

struct CampaignConfig {
  std::uint64_t seed = 1;
  std::uint64_t trials = 100;
  bool include_omega = true;
  bool include_byzantine = false;   ///< mix in Byzantine-register cases
  bool assert_termination = false;  ///< plant the false invariant
  bool shrink_findings = true;
  std::size_t max_findings = 4;     ///< stop shrinking after this many
};

struct Finding {
  ChaosCase original;
  Violation violation;
  /// Present when the campaign shrank this finding (shrink_findings, within
  /// max_findings).
  std::optional<ShrinkResult> shrunk;
};

struct CampaignResult {
  std::uint64_t runs = 0;
  std::uint64_t violations = 0;  ///< total violating cases (found > shrunk)
  std::uint64_t decided = 0;     ///< consensus decided / Ω stabilized
  std::vector<Finding> findings;
};

[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& cfg);

}  // namespace mm::fault
