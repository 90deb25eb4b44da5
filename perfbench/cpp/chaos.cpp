// chaos: the safety chaos campaign's case mix, one fault::run_chaos_case
// per item on nproc workers. Cases come from fault::random_case on campaign
// seed 20180723 with Ω and Byzantine-register cases, no planted termination
// oracle and no shrinking. A case runs thousands of steps through the
// general step_once path with fault hooks, oracles and Byzantine
// interposition armed, so trial lifecycle is a few percent of it: a
// lifecycle optimisation should leave this workload unchanged while a
// step-loop or fault-hook change moves it. Its register-heavy Ω cases next
// to message-heavy consensus cases use the Env layer differently from sweep.
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "fault/chaos.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using mm::fault::CaseKind;
using mm::fault::ChaosCase;
using mm::fault::ChaosOutcome;

constexpr std::uint64_t kCampaignSeed = 20180723;
constexpr std::uint64_t kCases = 1'200;  ///< items per batch
constexpr std::uint64_t kWindows = 8;
/// Window w starts kStride * w cases later. The windows share most of their
/// cases, so the seed moves a batch's case mix, and its wall time, little.
constexpr std::uint64_t kStride = 25;
/// Every window contains this case, the campaign's known omega_stabilizes
/// finding (perfbench/README.md, "Known findings"), so every seed's error
/// rate counts it.
constexpr std::uint64_t kFindingCase = 2'088;
constexpr std::uint64_t kWarmUpCases = 48;
static_assert(kFindingCase + 1 >= kCases && (kWindows - 1) * kStride < kCases,
              "every window must contain kFindingCase");

class Chaos final : public Workload {
 public:
  explicit Chaos(std::uint64_t window)
      : window_(window), first_(kFindingCase + 1 - kCases + window * kStride) {
    // The campaign draws its cases one after another from a single stream,
    // so reaching the window means drawing every case before it.
    mm::Rng gen{kCampaignSeed};
    cases_.reserve(kCases);
    for (std::uint64_t i = 0; i < first_ + kCases; ++i) {
      ChaosCase c = mm::fault::random_case(gen, /*include_omega=*/true,
                                           /*assert_termination=*/false,
                                           /*include_byzantine=*/true);
      if (i >= first_) cases_.push_back(std::move(c));
    }
  }

  [[nodiscard]] std::uint64_t window() const override { return window_; }

  [[nodiscard]] Json params() const override {
    Json j = Json::object();
    j.set("campaign_seed", Json::uint(kCampaignSeed));
    j.set("cases", Json::uint(kCases));
    j.set("windows", Json::uint(kWindows));
    j.set("stride", Json::uint(kStride));
    return j;
  }

  [[nodiscard]] bool uses_pool() const override { return true; }

  void warm_up(std::size_t workers) override { (void)run_cases(kWarmUpCases, workers); }

  Batch run_batch(std::size_t workers) override {
    Batch b;
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan root{"bench.batch"};
      reduce(run_cases(kCases, workers), b);
    }
    b.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    return b;
  }

  void layer_metrics(const Pass& traced, const Pass*, Metrics& out) const override {
    const auto batches = static_cast<double>(traced.batches.size());
    for (const CaseKind kind : {CaseKind::kConsensus, CaseKind::kOmega, CaseKind::kByzRegister}) {
      const std::string name = mm::fault::to_string(kind);
      std::vector<double> us;
      for (const Span& s : traced.spans)
        if (std::string_view{s.name} == "fault.run_chaos_case" && s.tag == name)
          us.push_back(static_cast<double>(s.duration_ns()) * 1e-3);
      out["fault.cases." + name] = ratio(traced.sum("cases." + name), batches);
      out["fault.case_us." + name] = percentile(us, 0.5);
    }
    const double items = traced.items();
    out["fault.steps_per_case"] = ratio(traced.sum("steps"), items);
    out["fault.rules_fired_per_case"] = ratio(traced.sum("rules_fired"), items);
    out["fault.violations"] = ratio(traced.sum("violations"), batches);
  }

  [[nodiscard]] Json checks(const Pass&) override {
    Json j = Json::object();
    j.set("first_case", Json::uint(first_));
    return j;
  }

 private:
  [[nodiscard]] std::vector<Timed<ChaosOutcome>> run_cases(std::uint64_t count,
                                                           std::size_t workers) const {
    return map_items(
        count, workers, "fault.run_chaos_case",
        [this](std::uint64_t i) { return mm::fault::run_chaos_case(cases_[i]); },
        [this](std::uint64_t i) { return mm::fault::to_string(cases_[i].kind); });
  }

  void reduce(const std::vector<Timed<ChaosOutcome>>& outcomes, Batch& b) const {
    Digest digest;
    Metrics sums;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const ChaosCase& c = cases_[i];
      const std::uint64_t id = first_ + i;
      b.item_us.push_back(outcomes[i].us);
      sums[std::string{"cases."} + mm::fault::to_string(c.kind)] += 1;
      digest.add(id);
      digest.add(static_cast<std::uint64_t>(c.kind));
      if (outcomes[i].threw) {
        ++b.exceptions;
        digest.add(~0ULL);
        continue;
      }
      const ChaosOutcome& o = outcomes[i].value;
      digest.add(o.decided ? 1 : 0);
      digest.add(o.steps_used);
      digest.add(o.rules_fired);
      digest.add(o.violation ? static_cast<std::uint64_t>(o.violation->oracle) : ~0ULL);
      if (o.violation) {
        b.violations.emplace_back(id, mm::fault::to_string(o.violation->oracle));
        sums["violations"] += 1;
      }
      sums["steps"] += static_cast<double>(o.steps_used);
      sums["rules_fired"] += static_cast<double>(o.rules_fired);
    }
    b.digest = digest.value();
    b.sums = std::move(sums);
  }

  std::uint64_t window_;
  std::uint64_t first_;  ///< campaign index of the window's first case
  std::vector<ChaosCase> cases_;
};

}  // namespace

std::unique_ptr<Workload> make_chaos(std::uint64_t seed) {
  return std::make_unique<Chaos>(seed % kWindows);
}

}  // namespace perfbench
