// Helpers shared by the workloads, and the per-layer metrics every traced
// pass gets: the exec layer's, read off the parallel_map spans, and the
// accounting of the pass's wall time by layer.
#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "workload.hpp"

namespace perfbench {

double Pass::items() const {
  double n = 0.0;
  for (const Batch& b : batches) n += static_cast<double>(b.item_us.size());
  return n;
}

double Pass::wall_s() const {
  double s = 0.0;
  for (const Batch& b : batches) s += b.wall_s;
  return s;
}

double Pass::sum(const std::string& counter) const {
  double s = 0.0;
  for (const Batch& b : batches)
    if (const auto it = b.sums.find(counter); it != b.sums.end()) s += it->second;
  return s;
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

double ratio(double a, double b) noexcept { return b == 0.0 ? 0.0 : a / b; }

void exec_metrics(const Pass& traced, const Pass* one_worker, Metrics& out) {
  for (const char* name : {"exec.items", "exec.busy_frac", "exec.start_us", "exec.drain_us",
                           "exec.imbalance", "exec.scaling", "exec.item_p99_us",
                           "exec.item_tail_us", "exec.item_tail_pct", "exec.item_samples"})
    out[name] = 0.0;

  struct Call {
    const Span* span = nullptr;
    std::vector<double> busy_ns;  ///< per worker slot
    std::int64_t first_start = std::numeric_limits<std::int64_t>::max();
    std::int64_t last_end = std::numeric_limits<std::int64_t>::min();
    double items = 0.0;
  };
  std::unordered_map<std::uint64_t, Call> calls;
  for (const Span& s : traced.spans)
    if (std::string_view{s.name} == "exec.parallel_map")
      calls[s.id] = Call{&s, std::vector<double>(std::max<std::uint32_t>(s.width, 1), 0.0)};
  std::vector<double> item_us;
  for (const Span& s : traced.spans) {
    const auto it = calls.find(s.parent);
    if (it == calls.end()) continue;
    Call& c = it->second;
    c.busy_ns[s.worker % c.busy_ns.size()] += static_cast<double>(s.duration_ns());
    c.first_start = std::min(c.first_start, s.start_ns);
    c.last_end = std::max(c.last_end, s.end_ns);
    c.items += 1.0;
    item_us.push_back(static_cast<double>(s.duration_ns()) * 1e-3);
  }
  if (item_us.empty()) return;

  double busy = 0.0;
  double capacity = 0.0;
  std::vector<double> items, start_us, drain_us, imbalance;
  for (const auto& [id, c] : calls) {
    if (c.items == 0.0) continue;
    double call_busy = 0.0;
    double most = 0.0;
    for (const double b : c.busy_ns) {
      call_busy += b;
      most = std::max(most, b);
    }
    const auto workers = static_cast<double>(c.busy_ns.size());
    busy += call_busy;
    capacity += workers * static_cast<double>(c.span->duration_ns());
    items.push_back(c.items);
    start_us.push_back(static_cast<double>(c.first_start - c.span->start_ns) * 1e-3);
    drain_us.push_back(static_cast<double>(c.span->end_ns - c.last_end) * 1e-3);
    imbalance.push_back(ratio(most, call_busy / workers));
  }
  out["exec.items"] = percentile(items, 0.5);
  out["exec.busy_frac"] = ratio(busy, capacity);
  out["exec.start_us"] = percentile(start_us, 0.5);
  out["exec.drain_us"] = percentile(drain_us, 0.5);
  out["exec.imbalance"] = percentile(imbalance, 0.5);
  out["exec.item_p99_us"] = percentile(item_us, 0.99);

  // The highest percentile with at least ten samples beyond it.
  std::sort(item_us.begin(), item_us.end());
  const std::size_t n = item_us.size();
  out["exec.item_samples"] = static_cast<double>(n);
  if (n > 10) {
    const auto beyond = [&](std::size_t k) {
      return static_cast<std::size_t>(
          item_us.end() - std::upper_bound(item_us.begin(), item_us.end(), item_us[k]));
    };
    std::size_t k = n - 11;
    while (k > 0 && beyond(k) < 10) --k;
    out["exec.item_tail_us"] = item_us[k];
    out["exec.item_tail_pct"] =
        100.0 * static_cast<double>(n - beyond(k)) / static_cast<double>(n);
  }
  // On one CPU the traced pass already ran on one worker.
  out["exec.scaling"] =
      one_worker == nullptr ? 1.0
                            : ratio(ratio(traced.items(), traced.wall_s()),
                                    ratio(one_worker->items(), one_worker->wall_s()));
}

void accounting(const Pass& untraced, const Pass& traced, Metrics& out) {
  const std::map<std::string, double> by_layer = wall_seconds_by_layer(traced.spans);
  double accounted = 0.0;
  for (const auto& [layer, seconds] : by_layer) accounted += seconds;
  for (const char* layer : {"bench", "exec", "core", "runtime", "fault", "check"}) {
    const auto it = by_layer.find(layer);
    out[std::string{"self."} + layer + "_frac"] =
        it == by_layer.end() ? 0.0 : ratio(it->second, accounted);
  }
  for (const auto& [layer, seconds] : by_layer)
    if (out.count("self." + layer + "_frac") == 0)
      throw std::logic_error{"spans of layer " + layer + " have no self-time metric"};

  std::vector<double> untraced_walls, traced_walls;
  for (const Batch& b : untraced.batches) untraced_walls.push_back(b.wall_s);
  for (const Batch& b : traced.batches) traced_walls.push_back(b.wall_s);
  const double traced_wall = percentile(traced_walls, 0.5);
  out["trace.wall_s"] = traced_wall;
  out["trace.accounted_frac"] = ratio(accounted, traced.wall_s());
  out["trace.overhead_frac"] = ratio(traced_wall, percentile(untraced_walls, 0.5)) - 1.0;
}

}  // namespace perfbench
