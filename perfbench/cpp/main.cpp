// perfbench: times one workload of the m&m experiment engine and prints a
// JSON record as the last line of its output. perfbench/run.py builds it,
// runs it and checks the record against the committed digests.
//
//   perfbench run   --workload W [--seed S] [--seconds T] [--trace 0|1]
//                   [--trace-out FILE]
//   perfbench probe --workload W [--seed S]
//
// `run` warms up, then repeats the workload's batch until T seconds have
// passed (at least once). With --trace 1 it runs an untraced pass, a traced
// pass at the same worker count and, for pool workloads, a traced 1-worker
// batch, a third of T each, and adds per-layer metrics to the record.
// `probe` builds the workload's inputs and prints the steady-clock time at
// which it would dispatch its first item, for run.py's set-up time.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_count.hpp"
#include "workload.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace perfbench {
namespace {

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0)
    throw UsageError{"bad value for " + flag + ": " + text};
  return v;
}

Args parse(int argc, char** argv) {
  if (argc < 2)
    throw UsageError{"usage: perfbench run|probe --workload W [--seed S] [--seconds T] "
                     "[--trace 0|1] [--trace-out FILE]"};
  Args a;
  a.mode = argv[1];
  if (a.mode != "run" && a.mode != "probe") throw UsageError{"unknown mode " + a.mode};
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw UsageError{flag + " needs a value"};
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds >= 0.0 && a.seconds <= 3600.0))
        throw UsageError{"bad value for --seconds: " + value};
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(flag, value);
      if (t > 1) throw UsageError{"--trace takes 0 or 1"};
      a.trace = t == 1;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw UsageError{"unknown flag " + flag};
    }
  }
  if (a.workload.empty()) throw UsageError{"--workload is required"};
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "sweep") return make_sweep(a.seed);
  if (a.workload == "chaos") return make_chaos(a.seed);
  if (a.workload == "dpor") return make_dpor();
  throw UsageError{"unknown workload " + a.workload + " (sweep, chaos, dpor)"};
}

/// Records come from optimised, uninstrumented builds only: a sanitizer or
/// -O0 build would time its instrumentation instead of the program.
void refuse_unfit_build() {
#if !defined(__OPTIMIZE__)
  throw UsageError{"refusing to record from an unoptimised build (" PERFBENCH_BUILD_TYPE ")"};
#endif
#if defined(PERFBENCH_SANITIZED)
  throw UsageError{"refusing to record from a sanitizer build"};
#endif
  if (!mm::common::alloc_counting_active())
    throw UsageError{"refusing to record: allocation counting is compiled out, as in "
                     "sanitizer builds"};
}

std::string compiler_name() {
#if defined(__clang__)
  return std::string{"clang "} + __clang_version__;
#elif defined(__GNUC__)
  return std::string{"gcc "} + __VERSION__;
#else
  return "unknown compiler";
#endif
}

/// CPUs this process may run on: what `nproc` prints.
unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return std::max(1U, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

volatile std::uint64_t g_burn_sink = 0;

/// A fixed CPU-bound burn: a xorshift chain the compiler cannot fold away.
std::uint64_t burn(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Wall seconds for `threads` threads to run the same burn at once.
double burn_seconds(unsigned threads, std::uint64_t iterations) {
  std::vector<std::uint64_t> results(threads);
  std::vector<std::thread> others;
  const std::int64_t t0 = now_ns();
  for (unsigned t = 1; t < threads; ++t)
    others.emplace_back([&results, t, iterations] { results[t] = burn(iterations); });
  results[0] = burn(iterations);
  for (std::thread& th : others) th.join();
  const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  for (const std::uint64_t r : results) g_burn_sink = g_burn_sink ^ r;
  return seconds;
}

/// Parallel capacity, measured rather than read off hardware_concurrency:
/// nproc times one thread's burn time over the time nproc threads take to
/// burn as much each, median of three tries. It reads nproc on idle
/// dedicated cores and drops when other tenants share them.
double parallel_capacity(unsigned nproc) {
  constexpr std::uint64_t kIterations = 40'000'000;
  std::vector<double> tries;
  for (int t = 0; t < 3; ++t)
    tries.push_back(static_cast<double>(nproc) * burn_seconds(1, kIterations) /
                    burn_seconds(nproc, kIterations));
  return percentile(tries, 0.5);
}

double peak_rss_mib() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error{"no VmHWM line in /proc/self/status"};
}

struct CpuTimes {
  double user = 0.0;
  double system = 0.0;
};

CpuTimes cpu_times() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {seconds(ru.ru_utime), seconds(ru.ru_stime)};
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

Pass run_pass(Workload& w, const char* name, std::size_t workers, double seconds, bool traced) {
  Pass p;
  p.name = name;
  p.traced = traced;
  p.workers = workers;
  tracing::set_enabled(traced);
  const std::int64_t t0 = now_ns();
  do {
    const CpuTimes c0 = cpu_times();
    Batch& b = p.batches.emplace_back(w.run_batch(workers));
    const CpuTimes c1 = cpu_times();
    b.cpu_s = (c1.user - c0.user) + (c1.system - c0.system);
    b.sys_s = c1.system - c0.system;
  } while (static_cast<double>(now_ns() - t0) * 1e-9 < seconds);
  tracing::set_enabled(false);
  if (traced) p.spans = tracing::take();
  return p;
}

Json pass_json(const Pass& p) {
  Json batches = Json::array();
  for (const Batch& b : p.batches) {
    Json violations = Json::array();
    for (const auto& [id, oracle] : b.violations) {
      Json v = Json::array();
      v.push(Json::uint(id));
      v.push(Json::str(oracle));
      violations.push(std::move(v));
    }
    Json j = Json::object();
    j.set("wall_s", Json::number(b.wall_s));
    j.set("cpu_s", Json::number(b.cpu_s));
    j.set("sys_s", Json::number(b.sys_s));
    j.set("items", Json::uint(b.item_us.size()));
    j.set("p50_us", Json::number(percentile(b.item_us, 0.5)));
    j.set("p90_us", Json::number(percentile(b.item_us, 0.9)));
    j.set("digest", Json::str(hex(b.digest)));
    j.set("exceptions", Json::uint(b.exceptions));
    j.set("violations", std::move(violations));
    batches.push(std::move(j));
  }
  Json j = Json::object();
  j.set("name", Json::str(p.name));
  j.set("traced", Json::boolean(p.traced));
  j.set("workers", Json::uint(p.workers));
  j.set("batches", std::move(batches));
  return j;
}

/// The spans of a pass's first batch: its first root and every span that
/// started inside it (a pass runs one batch at a time).
std::vector<Span> first_batch(const std::vector<Span>& spans) {
  std::vector<Span> out;
  const auto root =
      std::find_if(spans.begin(), spans.end(), [](const Span& s) { return s.parent == 0; });
  if (root == spans.end()) return out;
  for (const Span& s : spans)
    if (s.start_ns >= root->start_ns && s.start_ns <= root->end_ns) out.push_back(s);
  return out;
}

int run(const Args& a) {
  refuse_unfit_build();
  const std::unique_ptr<Workload> w = make_workload(a);
  const unsigned nproc = affinity_cpus();
  const std::size_t workers = w->uses_pool() ? nproc : 1;
  w->warm_up(workers);

  Json record = Json::object();
  record.set("workload", Json::str(a.workload));
  record.set("seed", Json::uint(a.seed));
  record.set("window", Json::uint(w->window()));
  record.set("workers", Json::uint(workers));
  record.set("params", w->params());

  Json passes = Json::array();
  Metrics layers;
  if (!a.trace) {
    const Pass measured = run_pass(*w, "measure", workers, a.seconds, false);
    record.set("checks", w->checks(measured));
    passes.push(pass_json(measured));
  } else {
    const double leg = a.seconds / 3.0;
    const Pass untraced = run_pass(*w, "untraced", workers, leg, false);
    mm::common::AllocCounts before = mm::common::alloc_counts();
    const Pass traced = run_pass(*w, "traced", workers, leg, true);
    mm::common::AllocCounts allocs = mm::common::alloc_counts() - before;
    double alloc_items = traced.items();
    std::optional<Pass> one_worker;
    if (workers > 1) {
      before = mm::common::alloc_counts();
      one_worker = run_pass(*w, "traced-1-worker", 1, 0.0, true);
      allocs = mm::common::alloc_counts() - before;
      alloc_items = one_worker->items();
    }
    const Pass* single = one_worker ? &*one_worker : nullptr;
    exec_metrics(traced, single, layers);
    accounting(untraced, traced, layers);
    w->layer_metrics(traced, single, layers);
    // The counters are process-wide, so only a 1-worker leg charges its
    // allocations to its own items the way thread-local counters would.
    layers["common.allocs_per_item"] = ratio(static_cast<double>(allocs.allocs), alloc_items);
    layers["common.bytes_per_item"] = ratio(static_cast<double>(allocs.bytes), alloc_items);
    double cpu = 0.0, sys = 0.0;
    for (const Batch& b : untraced.batches) {
      cpu += b.cpu_s;
      sys += b.sys_s;
    }
    layers["proc.kernel_frac"] = ratio(sys, cpu);
    record.set("checks", w->checks(untraced));
    if (!a.trace_out.empty()) {
      std::vector<Span> shown = first_batch(traced.spans);
      if (single != nullptr) shown.insert(shown.end(), single->spans.begin(), single->spans.end());
      write_chrome_trace(a.trace_out, shown, "perfbench " + a.workload + " (wall clock)");
    }
    passes.push(pass_json(untraced));
    passes.push(pass_json(traced));
    if (single != nullptr) passes.push(pass_json(*single));
  }
  record.set("passes", std::move(passes));
  // Read before the capacity burn, whose threads belong to no workload.
  record.set("peak_rss_mib", Json::number(peak_rss_mib()));

  const double capacity = parallel_capacity(nproc);
  const bool counting = mm::common::alloc_counting_active();
  Json context = Json::object();
  context.set("nproc", Json::uint(nproc));
  context.set("capacity", Json::number(capacity));
  context.set("compiler", Json::str(compiler_name()));
  context.set("build_type", Json::str(PERFBENCH_BUILD_TYPE));
  context.set("alloc_counting", Json::boolean(counting));
  record.set("context", std::move(context));
  if (a.trace) {
    layers["machine.nproc"] = nproc;
    layers["machine.capacity"] = capacity;
    layers["machine.alloc_counting"] = counting ? 1.0 : 0.0;
    Json lj = Json::object();
    for (const auto& [name, value] : layers) lj.set(name, Json::number(value));
    record.set("layers", std::move(lj));
  }
  std::printf("%s\n", record.dump().c_str());
  return 0;
}

int probe(const Args& a) {
  const std::unique_ptr<Workload> w = make_workload(a);
  const std::int64_t first_dispatch = now_ns();
  std::printf("{\"window\":%" PRIu64 ",\"first_dispatch_ns\":%" PRId64 "}\n", w->window(),
              first_dispatch);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse(argc, argv);
    return args.mode == "probe" ? perfbench::probe(args) : perfbench::run(args);
  } catch (const perfbench::UsageError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
