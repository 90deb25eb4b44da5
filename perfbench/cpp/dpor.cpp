// dpor: sequential DPOR (no frontier) to a full verdict on the abd4-drop
// and ac5 corpus instances, each explored with its own DporOptions on the
// calling thread. Every replay rebuilds a SimRuntime (the instance's make
// callback) and runs the footprint-recording Env instantiation, the race
// scan, sleep sets and state hashing. No worker pool is involved, so an exec
// change must leave this workload unchanged, and a change in replay count
// shows in wall_s. The corpus has no seeded input: every seed explores the
// same two instances.
#include <array>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "check/dpor.hpp"
#include "check/instances.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using mm::check::ExploreResult;
using mm::check::Instance;

constexpr std::array<const char*, 2> kInstances{"abd4-drop", "ac5"};

struct Verdict {
  ExploreResult result;
  std::uint64_t verified = 0;
  std::optional<std::string> violation;
};

/// Thrown out of verify to stop at the first oracle violation, as
/// check::check_instance_dpor does.
struct ViolationFound {
  std::string message;
};

Verdict explore(const Instance& inst, const mm::check::DporOptions& options) {
  Verdict v;
  const auto make = [&inst] {
    const ScopedSpan span{"runtime.make"};
    return inst.make();
  };
  const auto verify = [&](mm::runtime::SimRuntime& rt) {
    const ScopedSpan span{"check.verify"};
    ++v.verified;
    if (auto message = inst.check(rt)) throw ViolationFound{std::move(*message)};
  };
  try {
    v.result = mm::check::explore_dpor(make, verify, options);
  } catch (ViolationFound& found) {
    v.violation = std::move(found.message);
  }
  return v;
}

class Dpor final : public Workload {
 public:
  Dpor() {
    for (const char* name : kInstances) {
      const Instance* inst = mm::check::find_instance(name);
      if (inst == nullptr) throw std::runtime_error{std::string{"no corpus instance "} + name};
      if (inst->dpor.frontier_depth != 0)
        throw std::runtime_error{std::string{name} + " no longer explores sequentially"};
      instances_.push_back(inst);
    }
  }

  [[nodiscard]] std::uint64_t window() const override { return 0; }

  [[nodiscard]] Json params() const override {
    Json names = Json::array();
    for (const char* name : kInstances) names.push(Json::str(name));
    Json j = Json::object();
    j.set("instances", std::move(names));
    j.set("windows", Json::uint(1));
    return j;
  }

  [[nodiscard]] bool uses_pool() const override { return false; }

  void warm_up(std::size_t workers) override {
    // One full untimed batch: a process's first exploration of an instance
    // is its slowest.
    (void)run_batch(workers);
  }

  Batch run_batch(std::size_t) override {
    Batch b;
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan root{"bench.batch"};
      Digest digest;
      for (std::size_t k = 0; k < instances_.size(); ++k) {
        const Instance& inst = *instances_[k];
        Timed<Verdict> t;
        const std::int64_t i0 = now_ns();
        {
          const ScopedSpan span{"check.explore_dpor", static_cast<std::int64_t>(k),
                                inst.name.c_str()};
          try {
            t.value = explore(inst, inst.dpor);
          } catch (...) {
            t.threw = true;
          }
        }
        t.us = static_cast<double>(now_ns() - i0) * 1e-3;
        reduce(k, t, digest, b);
      }
      b.digest = digest.value();
    }
    b.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    return b;
  }

  void layer_metrics(const Pass& traced, const Pass*, Metrics& out) const override {
    struct Acc {
      double explore_ns = 0.0, make_ns = 0.0, verify_ns = 0.0, makes = 0.0, verifies = 0.0;
      std::vector<double> replay_us;  ///< make to next make, the last to the verdict
    };
    std::vector<Acc> acc(instances_.size());
    std::unordered_map<std::uint64_t, std::size_t> explore_of;  // span id -> instance
    for (const Span& s : traced.spans) {
      if (std::string_view{s.name} != "check.explore_dpor") continue;
      for (std::size_t k = 0; k < instances_.size(); ++k)
        if (instances_[k]->name == s.tag) explore_of[s.id] = k;
    }
    std::unordered_map<std::uint64_t, std::vector<std::int64_t>> make_starts;
    for (const Span& s : traced.spans) {
      const auto it = explore_of.find(s.parent);
      if (it == explore_of.end()) continue;
      Acc& a = acc[it->second];
      const std::string_view name{s.name};
      if (name == "runtime.make") {
        a.make_ns += static_cast<double>(s.duration_ns());
        a.makes += 1.0;
        make_starts[s.parent].push_back(s.start_ns);
      } else if (name == "check.verify") {
        a.verify_ns += static_cast<double>(s.duration_ns());
        a.verifies += 1.0;
      }
    }
    for (const Span& s : traced.spans) {
      const auto it = explore_of.find(s.id);
      if (it == explore_of.end()) continue;
      Acc& a = acc[it->second];
      a.explore_ns += static_cast<double>(s.duration_ns());
      const std::vector<std::int64_t>& starts = make_starts[s.id];
      for (std::size_t j = 0; j < starts.size(); ++j) {
        const std::int64_t next = j + 1 < starts.size() ? starts[j + 1] : s.end_ns;
        a.replay_us.push_back(static_cast<double>(next - starts[j]) * 1e-3);
      }
    }

    const auto batches = static_cast<double>(traced.batches.size());
    double make_ns = 0.0, makes = 0.0;
    for (std::size_t k = 0; k < instances_.size(); ++k) {
      const std::string& name = instances_[k]->name;
      const Acc& a = acc[k];
      const std::string p = "check." + name + ".";
      const double replays = traced.sum("replays." + name);
      out[p + "replays"] = ratio(replays, batches);
      out[p + "cache_pruned"] = ratio(traced.sum("cache_pruned." + name), batches);
      out[p + "sleep_pruned"] = ratio(traced.sum("sleep_pruned." + name), batches);
      out[p + "verified_runs"] = ratio(traced.sum("verified." + name), batches);
      out[p + "final_states"] = ratio(traced.sum("final_states." + name), batches);
      out[p + "useful_frac"] = ratio(traced.sum("verified." + name), replays);
      out[p + "replays_per_s"] = ratio(replays, a.explore_ns * 1e-9);
      out[p + "replay_us"] = percentile(a.replay_us, 0.5);
      out[p + "make_us"] = ratio(a.make_ns, a.makes) * 1e-3;
      out[p + "verify_us"] = ratio(a.verify_ns, a.verifies) * 1e-3;
      out[p + "self_us"] = ratio(a.explore_ns - a.make_ns - a.verify_ns, replays) * 1e-3;
      make_ns += a.make_ns;
      makes += a.makes;
    }
    out["runtime.construct_us"] = ratio(make_ns, makes) * 1e-3;
  }

  [[nodiscard]] Json checks(const Pass& measured) override {
    const Metrics& s = measured.batches.front().sums;
    const auto get = [&s](const std::string& key) {
      const auto it = s.find(key);
      return it == s.end() ? 0.0 : it->second;
    };
    Json pins = Json::object();
    for (const Instance* inst : instances_) {
      const std::string& name = inst->name;
      Json p = Json::object();
      p.set("replays", Json::uint(static_cast<std::uint64_t>(get("replays." + name))));
      p.set("final_states", Json::uint(static_cast<std::uint64_t>(get("final_states." + name))));
      p.set("verdict", Json::str(mm::check::to_string(static_cast<mm::check::Exhaustiveness>(
                           static_cast<int>(get("verdict." + name))))));
      pins.set(name, std::move(p));
    }
    Json j = Json::object();
    j.set("pins", std::move(pins));
    return j;
  }

 private:
  void reduce(std::size_t k, const Timed<Verdict>& t, Digest& digest, Batch& b) const {
    const std::string& name = instances_[k]->name;
    b.item_us.push_back(t.us);
    digest.add(k);
    if (t.threw) {
      ++b.exceptions;
      digest.add(~0ULL);
      return;
    }
    const ExploreResult& r = t.value.result;
    digest.add(static_cast<std::uint64_t>(r.exhaustiveness));
    digest.add(r.runs);
    digest.add(r.all_runs_completed ? 1 : 0);
    digest.add(r.runs_pruned_by_state_cache);
    digest.add(r.runs_pruned_by_sleep_set);
    digest.add(t.value.verified);
    digest.add(r.final_states.size());
    for (const auto& h : r.final_states) {
      digest.add(h.lo);
      digest.add(h.hi);
    }
    digest.add(t.value.violation ? 1 : 0);
    if (t.value.violation) b.violations.emplace_back(k, "instance_check");
    b.sums["replays." + name] += static_cast<double>(r.runs);
    b.sums["cache_pruned." + name] += static_cast<double>(r.runs_pruned_by_state_cache);
    b.sums["sleep_pruned." + name] += static_cast<double>(r.runs_pruned_by_sleep_set);
    b.sums["verified." + name] += static_cast<double>(t.value.verified);
    b.sums["final_states." + name] += static_cast<double>(r.final_states.size());
    b.sums["verdict." + name] = static_cast<double>(r.exhaustiveness);
  }

  std::vector<const Instance*> instances_;
};

}  // namespace

std::unique_ptr<Workload> make_dpor() { return std::make_unique<Dpor>(); }

}  // namespace perfbench
