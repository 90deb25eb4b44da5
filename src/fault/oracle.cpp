#include "fault/oracle.hpp"

#include "check/linearizability.hpp"

namespace mm::fault {

const char* to_string(Oracle o) noexcept {
  switch (o) {
    case Oracle::kAgreement: return "agreement";
    case Oracle::kValidity: return "validity";
    case Oracle::kTermination: return "termination";
    case Oracle::kOmegaStabilizes: return "omega_stabilizes";
    case Oracle::kByzAgreement: return "byz_agreement";
    case Oracle::kByzValidity: return "byz_validity";
    case Oracle::kByzLinearizable: return "byz_linearizable";
  }
  return "?";
}

std::optional<Oracle> oracle_from_string(std::string_view s) noexcept {
  for (auto o : {Oracle::kAgreement, Oracle::kValidity, Oracle::kTermination,
                 Oracle::kOmegaStabilizes, Oracle::kByzAgreement,
                 Oracle::kByzValidity, Oracle::kByzLinearizable})
    if (s == to_string(o)) return o;
  return std::nullopt;
}

namespace {
bool armed(const std::vector<Oracle>& oracles, Oracle o) {
  for (const Oracle a : oracles)
    if (a == o) return true;
  return false;
}
}  // namespace

std::optional<Violation> check_consensus(const core::ConsensusTrialResult& res,
                                         const std::vector<Oracle>& armed_oracles) {
  if (armed(armed_oracles, Oracle::kAgreement) && !res.agreement)
    return Violation{Oracle::kAgreement, "two decided processes decided differently"};
  if (armed(armed_oracles, Oracle::kValidity) && !res.validity)
    return Violation{Oracle::kValidity, "a decision is not any process' input"};
  if (armed(armed_oracles, Oracle::kTermination) && !res.all_correct_decided) {
    return Violation{Oracle::kTermination,
                     "not all correct processes decided within " +
                         std::to_string(res.steps_used) + " steps"};
  }
  return std::nullopt;
}

std::optional<Violation> check_omega(const core::OmegaTrialResult& res,
                                     const std::vector<Oracle>& armed_oracles) {
  if (armed(armed_oracles, Oracle::kOmegaStabilizes) && !res.stabilized)
    return Violation{Oracle::kOmegaStabilizes,
                     "no stable correct leader emerged within the budget"};
  return std::nullopt;
}

std::optional<Violation> check_byz_register(const core::ByzRegisterTrialResult& res,
                                            std::uint64_t byz_mask,
                                            const std::vector<Oracle>& armed_oracles) {
  const std::size_t n = res.histories.size();
  const auto correct = [&](std::size_t p) {
    return (byz_mask & (1ULL << p)) == 0 &&
           (p >= res.crashed.size() || !res.crashed[p]);
  };

  // Agreement among correct servers: two correct processes may never adopt
  // different values for the same timestamp. (A Byzantine process can adopt
  // garbage freely — its log carries no obligation.)
  if (armed(armed_oracles, Oracle::kByzAgreement)) {
    for (std::size_t p = 0; p < res.adopted.size(); ++p) {
      if (!correct(p)) continue;
      for (std::size_t q = p + 1; q < res.adopted.size(); ++q) {
        if (!correct(q)) continue;
        for (const auto& [ts, v] : res.adopted[p]) {
          const auto it = res.adopted[q].find(ts);
          if (it != res.adopted[q].end() && it->second != v) {
            // Built via += rather than chained `"p" + std::to_string(...)`:
            // see ids.hpp on the GCC 12 -Werror=restrict false positive.
            std::string what = "p";
            what += std::to_string(p);
            what += " adopted ";
            what += std::to_string(v);
            what += " but p";
            what += std::to_string(q);
            what += " adopted ";
            what += std::to_string(it->second);
            what += " for ts ";
            what += std::to_string(ts);
            return Violation{Oracle::kByzAgreement, std::move(what)};
          }
        }
      }
    }
  }

  // Validity at correct readers: every completed read at a correct process
  // returns a value the writer's code actually issued (or the initial 0).
  if (armed(armed_oracles, Oracle::kByzValidity)) {
    for (std::size_t p = 0; p < n; ++p) {
      if (!correct(p)) continue;
      for (const check::RegOp& op : res.histories[p].ops()) {
        if (op.is_write) continue;
        if (op.value == 0) continue;
        bool known = false;
        for (const std::uint64_t w : res.written)
          if (w == op.value) { known = true; break; }
        if (!known) {
          return Violation{Oracle::kByzValidity,
                           "read(" + std::to_string(op.value) + ") at p" +
                               std::to_string(p) + " returned a never-written value"};
        }
      }
    }
  }

  // Linearizability of the correct processes' merged history. When the
  // writer itself is Byzantine its writes are excluded, so forged values it
  // planted at correct readers surface as "read of a never-written value".
  if (armed(armed_oracles, Oracle::kByzLinearizable)) {
    check::HistoryRecorder merged;
    for (std::size_t p = 0; p < n; ++p)
      if (correct(p)) merged.merge(res.histories[p]);
    const check::LinCheck lc = check::check_swmr_atomic(merged.ops(), 0);
    if (!lc.ok) return Violation{Oracle::kByzLinearizable, lc.violation};
  }

  if (armed(armed_oracles, Oracle::kTermination) && !res.completed) {
    return Violation{Oracle::kTermination,
                     "a correct process did not finish its register ops within " +
                         std::to_string(res.steps_used) + " steps"};
  }
  return std::nullopt;
}

}  // namespace mm::fault
