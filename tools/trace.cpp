// tools/trace — record, export, and summarize deterministic run traces.
//
// Subcommands (all run the same built-in scenario unless --from is given):
//   trace record    [--seed S] [--iters N] [--out FILE]
//     Run the scenario with tracing + observability armed and write the raw
//     "mm-trace-1" recording (events, histograms, metrics) to FILE (default
//     trace-recording.json).
//
//   trace export    [--from FILE | --seed S --iters N] [--out FILE]
//     Produce Chrome trace-event JSON (load it in Perfetto / ui.perfetto.dev
//     or chrome://tracing): per-process tracks with dur-1 step slices,
//     send→deliver flow arrows paired by message seq, and instant events for
//     crashes / drops / memory windows / fault-rule firings. Default output
//     trace-chrome.json.
//
//   trace summarize [--from FILE | --seed S --iters N]
//     Print the sim-time histograms, the metrics subset, and (live runs
//     only) the decoded tail of the event ring.
//
// The built-in scenario is a chaos run: n = 8 processes in four disjoint
// shared-memory pairs, a message ring over all eight, register traffic on
// both ends of each pair, and a fault schedule (link burst, crash, memory
// window) replayed by one FaultEngine. A recording is a pure function of
// (--seed, --iters): two records with the same flags are byte-identical.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "core/tags.hpp"
#include "fault/engine.hpp"
#include "fault/rule.hpp"
#include "graph/graph.hpp"
#include "obs/perfetto_trace.hpp"
#include "runtime/sim_runtime.hpp"

namespace {

using namespace mm;
using fault::Json;
using runtime::SimRuntime;

int usage() {
  std::fprintf(stderr,
               "usage: trace record    [--seed S] [--iters N] [--out FILE]\n"
               "       trace export    [--from FILE] [--seed S] [--iters N] [--out FILE]\n"
               "       trace summarize [--from FILE] [--seed S] [--iters N]\n");
  return 2;
}

struct Options {
  std::uint64_t seed = 1;
  int iters = 200;
  std::string out;
  std::string from;
};

/// n = 8, GSM = four disjoint pairs {2i, 2i+1}: register traffic stays
/// inside each pair, while the message ring spans all eight.
graph::Graph paired_gsm(std::size_t n) {
  graph::Graph g{n};
  for (std::uint32_t i = 0; i + 1 < n; i += 2) g.add_edge(Pid{i}, Pid{i + 1});
  return g;
}

std::vector<fault::FaultRule> chaos_schedule() {
  fault::FaultRule burst;
  burst.trigger = fault::Trigger::kAtStep;
  burst.count = 150;
  burst.action = fault::Action::kLinkBurst;
  burst.duration = 200;
  burst.drop_prob = 0.20;
  burst.dup_prob = 0.10;
  burst.extra_delay = 3;
  fault::FaultRule crash;
  crash.trigger = fault::Trigger::kAtStep;
  crash.count = 400;
  crash.action = fault::Action::kCrash;
  crash.target = Pid{5};
  fault::FaultRule window;
  window.trigger = fault::Trigger::kAtStep;
  window.count = 600;
  window.action = fault::Action::kMemoryWindow;
  window.target = Pid{2};
  window.duration = 150;
  return {burst, crash, window};
}

/// Run the built-in scenario and return its recording document. Everything
/// the exporters need survives in the document, so the runtime can die here.
Json run_scenario(const Options& opt) {
  constexpr std::uint32_t kN = 8;
  runtime::SimConfig cfg;
  cfg.gsm = paired_gsm(kN);
  cfg.seed = opt.seed;
  cfg.min_delay = 2;
  cfg.max_delay = 9;
  SimRuntime rt{cfg};
  rt.enable_trace(65'536);

  const int iters = opt.iters;
  for (std::uint32_t p = 0; p < kN; ++p) {
    rt.add_process([p, iters](runtime::Env& env) {
      const Pid partner{p % 2 == 0 ? p + 1 : p - 1};
      const RegId mine = env.reg(runtime::RegKey::make(core::kTagState, env.self(), 0, 0));
      const RegId theirs = env.reg(runtime::RegKey::make(core::kTagState, partner, 0, 0));
      std::vector<runtime::Message> drained;
      std::uint64_t acc = p;
      for (int i = 0; i < iters; ++i) {
        acc = acc * 0x100000001b3ULL + env.now() + (env.coin() ? 1 : 0);
        env.write(mine, acc);
        acc ^= env.cas(theirs, acc, acc + 1);
        acc += env.read(mine);
        runtime::Message m;
        m.kind = 1;
        m.round = static_cast<std::uint64_t>(i);
        m.value = acc;
        env.send(Pid{(p + 1) % kN}, m);  // the ring
        if (i % 4 == 0) env.send(partner, m);
        env.drain_inbox(drained);
        for (const runtime::Message& r : drained) acc = acc * 31 + r.value;
        env.step();
      }
    });
  }

  fault::FaultEngine engine{chaos_schedule()};
  rt.set_fault_injector(&engine);

  if (!rt.run_until_all_done(500'000)) {
    std::fprintf(stderr, "trace: scenario did not finish within its budget\n");
  }
  Json doc = obs::recording_json(rt);
  // The decoded ring tail rides along for summarize (live runs only — it is
  // redundant with "events" but human-readable).
  doc.set("tail", Json::str(rt.dump_trace(40)));
  return doc;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot open " + path};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error{"cannot write " + path};
  out << text;
}

Json load_or_run(const Options& opt) {
  if (!opt.from.empty()) return Json::parse(read_file(opt.from));
  return run_scenario(opt);
}

void print_histogram(const char* name, const Json& h) {
  std::printf("  %-18s count=%-8llu min=%-6llu p50=%-6llu p90=%-6llu p99=%-6llu max=%-6llu mean=%.2f\n",
              name, static_cast<unsigned long long>(h.at("count").as_u64()),
              static_cast<unsigned long long>(h.at("min").as_u64()),
              static_cast<unsigned long long>(h.at("p50").as_u64()),
              static_cast<unsigned long long>(h.at("p90").as_u64()),
              static_cast<unsigned long long>(h.at("p99").as_u64()),
              static_cast<unsigned long long>(h.at("max").as_u64()),
              h.at("mean").as_double());
}

int cmd_summarize(const Options& opt) {
  const Json doc = load_or_run(opt);
  std::printf("mm-trace: n=%llu final_step=%llu events=%zu\n",
              static_cast<unsigned long long>(doc.at("n").as_u64()),
              static_cast<unsigned long long>(doc.at("final_step").as_u64()),
              doc.at("events").as_array().size());
  std::printf("sim-time histograms (virtual steps / counts):\n");
  for (const auto& [name, h] : doc.at("obs").as_object()) print_histogram(name.c_str(), h);
  const Json& m = doc.at("metrics");
  std::printf("metrics:");
  for (const auto& [name, v] : m.as_object())
    std::printf(" %s=%llu", name.c_str(), static_cast<unsigned long long>(v.as_u64()));
  std::printf("\n");
  if (const Json* tail = doc.find("tail")) {
    std::printf("event-ring tail:\n%s", tail->as_string().c_str());
  }
  return 0;
}

int cmd_record(const Options& opt) {
  const std::string out = opt.out.empty() ? "trace-recording.json" : opt.out;
  const Json doc = run_scenario(opt);
  write_file(out, doc.dump(2) + "\n");
  std::printf("wrote %s (%zu events)\n", out.c_str(), doc.at("events").as_array().size());
  return 0;
}

int cmd_export(const Options& opt) {
  const std::string out = opt.out.empty() ? "trace-chrome.json" : opt.out;
  const Json doc = load_or_run(opt);
  const auto events = obs::trace_events_from_json(doc.at("events"));
  const Json chrome = obs::chrome_trace(events, doc.at("n").as_u64());
  write_file(out, chrome.dump() + "\n");
  std::printf("wrote %s (%zu trace events) — load it at ui.perfetto.dev\n", out.c_str(),
              chrome.at("traceEvents").as_array().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Options opt;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) throw std::runtime_error{"missing value for " + a};
        return argv[++i];
      };
      if (a == "--seed") opt.seed = parse_decimal(a, next());
      else if (a == "--iters") opt.iters = parse_decimal<int>(a, next());
      else if (a == "--out") opt.out = next();
      else if (a == "--from") opt.from = next();
      else return usage();
    }
    if (cmd == "record") return cmd_record(opt);
    if (cmd == "export") return cmd_export(opt);
    if (cmd == "summarize") return cmd_summarize(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace: %s\n", e.what());
    return 1;
  }
  return usage();
}
