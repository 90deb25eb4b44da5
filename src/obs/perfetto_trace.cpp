#include "obs/perfetto_trace.hpp"

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>

#include "fault/rule.hpp"

namespace mm::obs {

using fault::Json;
using runtime::SimRuntime;
using TraceEvent = SimRuntime::TraceEvent;
using Kind = TraceEvent::Kind;

namespace {

// Short stable names, indexed by Kind — the wire format of trace_events_json
// and the slice names in the Chrome view. Order must match the enum.
constexpr std::array<std::string_view, 11> kKindNames = {
    "sched", "send",  "deliver", "drop",       "read",  "write",
    "cas",   "crash", "memfail", "memrecover", "fault",
};

// Built via += rather than chained `"p" + std::to_string(...)`: see
// ids.hpp on the GCC 12 -Werror=restrict false positive.
std::string prefixed(const char* prefix, std::uint64_t v) {
  std::string s = prefix;
  s += std::to_string(v);
  return s;
}

/// One Chrome trace-event object. `ph` is the format's phase letter; ts is
/// in microseconds (we map 1 virtual step = 1 µs).
Json chrome_event(const char* name, const char* ph, std::uint64_t ts,
                  std::uint64_t pid, std::uint64_t tid) {
  Json e = Json::object();
  e.set("name", Json::str(name));
  e.set("ph", Json::str(ph));
  e.set("ts", Json::uint(ts));
  e.set("pid", Json::uint(pid));
  e.set("tid", Json::uint(tid));
  return e;
}

Json metadata_event(const char* what, std::uint64_t pid,
                    std::optional<std::uint64_t> tid, std::string name) {
  Json args = Json::object();
  args.set("name", Json::str(std::move(name)));
  Json e = Json::object();
  e.set("name", Json::str(what));
  e.set("ph", Json::str("M"));
  e.set("pid", Json::uint(pid));
  if (tid) e.set("tid", Json::uint(*tid));
  e.set("args", std::move(args));
  return e;
}

}  // namespace

Json histogram_json(const LogHistogram& h) {
  Json j = Json::object();
  j.set("count", Json::uint(h.total()));
  j.set("min", Json::uint(h.min()));
  j.set("max", Json::uint(h.max()));
  j.set("mean", Json::number(h.mean()));
  j.set("p50", Json::uint(h.percentile(0.50)));
  j.set("p90", Json::uint(h.percentile(0.90)));
  j.set("p99", Json::uint(h.percentile(0.99)));
  return j;
}

Json obs_report_json(const runtime::ObsReport& r) {
  Json j = Json::object();
  j.set("delivery_latency", histogram_json(r.delivery_latency));
  j.set("inbox_depth", histogram_json(r.inbox_depth));
  j.set("pending_depth", histogram_json(r.pending_depth));
  j.set("reg_contention", histogram_json(r.reg_contention));
  return j;
}

Json trace_events_json(const std::vector<TraceEvent>& events) {
  Json arr = Json::array();
  for (const TraceEvent& e : events) {
    Json j = Json::object();
    j.set("step", Json::uint(e.step));
    j.set("pid", Json::uint(e.pid.value()));
    j.set("kind", Json::str(std::string{kKindNames[static_cast<std::size_t>(e.kind)]}));
    j.set("a", Json::uint(e.a));
    j.set("b", Json::uint(e.b));
    if (e.seq != 0) j.set("seq", Json::uint(e.seq));
    arr.push(std::move(j));
  }
  return arr;
}

std::vector<TraceEvent> trace_events_from_json(const Json& events) {
  std::vector<TraceEvent> out;
  out.reserve(events.as_array().size());
  for (const Json& j : events.as_array()) {
    TraceEvent e;
    e.step = j.at("step").as_u64();
    e.pid = Pid{static_cast<std::uint32_t>(j.at("pid").as_u64())};
    const std::string& k = j.at("kind").as_string();
    bool known = false;
    for (std::size_t i = 0; i < kKindNames.size(); ++i) {
      if (k == kKindNames[i]) {
        e.kind = static_cast<Kind>(i);
        known = true;
        break;
      }
    }
    if (!known) throw fault::JsonError{"unknown trace-event kind: " + k};
    e.a = j.at("a").as_u64();
    e.b = j.at("b").as_u64();
    if (const Json* seq = j.find("seq")) e.seq = seq->as_u64();
    out.push_back(e);
  }
  return out;
}

Json recording_json(const runtime::SimRuntime& rt) {
  Json doc = Json::object();
  doc.set("schema", Json::str("mm-trace-1"));
  doc.set("n", Json::uint(rt.metrics().steps_by_proc.size()));
  doc.set("final_step", Json::uint(rt.now()));
  doc.set("events", trace_events_json(rt.trace()));
  doc.set("obs", obs_report_json(rt.obs_report()));
  const runtime::Metrics& m = rt.metrics();
  Json metrics = Json::object();
  metrics.set("msgs_sent", Json::uint(m.msgs_sent));
  metrics.set("msgs_delivered", Json::uint(m.msgs_delivered));
  metrics.set("msgs_dropped", Json::uint(m.msgs_dropped));
  metrics.set("reg_reads", Json::uint(m.reg_reads));
  metrics.set("reg_writes", Json::uint(m.reg_writes));
  metrics.set("reg_cas_ops", Json::uint(m.reg_cas_ops));
  metrics.set("reg_cas_local", Json::uint(m.reg_cas_local));
  doc.set("metrics", std::move(metrics));
  return doc;
}

Json chrome_trace(const std::vector<TraceEvent>& events, std::size_t n_procs) {
  // Track layout: pid 1 = the simulated processes (tid = Pid). Fault-rule
  // firings land on the track of their context process so they line up
  // with the affected slices.
  constexpr std::uint64_t kSimPid = 1;
  Json arr = Json::array();
  arr.push(metadata_event("process_name", kSimPid, std::nullopt, "sim processes"));
  for (std::uint64_t p = 0; p < n_procs; ++p)
    arr.push(metadata_event("thread_name", kSimPid, p, prefixed("p", p)));
  // Flow arrows need both ends: a deliver whose send never made the ring
  // (evicted, or a link-level duplicate — the copy is not a process send)
  // must not emit a dangling flow terminator.
  std::unordered_set<std::uint64_t> send_seqs;
  for (const TraceEvent& e : events)
    if (e.kind == Kind::kSend && e.seq != 0) send_seqs.insert(e.seq);

  for (const TraceEvent& e : events) {
    const std::uint64_t ts = e.step;  // 1 virtual step = 1 µs
    const std::uint64_t tid = e.pid.value();
    switch (e.kind) {
      case Kind::kSchedule: {
        Json x = chrome_event("step", "X", ts, kSimPid, tid);
        x.set("dur", Json::uint(1));
        arr.push(std::move(x));
        break;
      }
      case Kind::kSend: {
        // A dur-1 slice to anchor the flow arrow, then the flow start.
        Json x = chrome_event("send", "X", ts, kSimPid, tid);
        x.set("dur", Json::uint(1));
        Json args = Json::object();
        args.set("to", Json::uint(e.a));
        args.set("kind", Json::uint(e.b));
        x.set("args", std::move(args));
        arr.push(std::move(x));
        if (e.seq != 0) {
          Json f = chrome_event("msg", "s", ts, kSimPid, tid);
          f.set("id", Json::uint(e.seq));
          f.set("cat", Json::str("msg"));
          arr.push(std::move(f));
        }
        break;
      }
      case Kind::kDeliver: {
        // pid = sender, a = destination; the slice belongs to the receiver.
        Json x = chrome_event("deliver", "X", ts, kSimPid, e.a);
        x.set("dur", Json::uint(1));
        Json args = Json::object();
        args.set("from", Json::uint(tid));
        args.set("kind", Json::uint(e.b));
        x.set("args", std::move(args));
        arr.push(std::move(x));
        if (e.seq != 0 && send_seqs.count(e.seq) != 0) {
          Json f = chrome_event("msg", "f", ts, kSimPid, e.a);
          f.set("id", Json::uint(e.seq));
          f.set("cat", Json::str("msg"));
          f.set("bp", Json::str("e"));
          arr.push(std::move(f));
        }
        break;
      }
      case Kind::kDrop: {
        Json i = chrome_event("drop", "i", ts, kSimPid, tid);
        i.set("s", Json::str("t"));
        Json args = Json::object();
        args.set("to", Json::uint(e.a));
        args.set("kind", Json::uint(e.b));
        i.set("args", std::move(args));
        arr.push(std::move(i));
        break;
      }
      case Kind::kRegRead:
      case Kind::kRegWrite:
      case Kind::kRegCas: {
        const char* name = e.kind == Kind::kRegRead    ? "read"
                           : e.kind == Kind::kRegWrite ? "write"
                                                       : "cas";
        Json i = chrome_event(name, "i", ts, kSimPid, tid);
        i.set("s", Json::str("t"));
        Json args = Json::object();
        args.set("reg", Json::uint(e.a));
        args.set("value", Json::uint(e.b));
        i.set("args", std::move(args));
        arr.push(std::move(i));
        break;
      }
      case Kind::kCrash: {
        Json i = chrome_event("crash", "i", ts, kSimPid, tid);
        i.set("s", Json::str("t"));
        arr.push(std::move(i));
        break;
      }
      case Kind::kMemFail: {
        Json i = chrome_event("mem-fail", "i", ts, kSimPid, tid);
        i.set("s", Json::str("t"));
        Json args = Json::object();
        args.set("recover_at", Json::uint(e.a));
        i.set("args", std::move(args));
        arr.push(std::move(i));
        break;
      }
      case Kind::kMemRecover: {
        Json i = chrome_event("mem-recover", "i", ts, kSimPid, tid);
        i.set("s", Json::str("t"));
        arr.push(std::move(i));
        break;
      }
      case Kind::kFault: {
        Json i = chrome_event("fault", "i", ts, kSimPid, tid);
        i.set("s", Json::str("t"));
        Json args = Json::object();
        args.set("action",
                 Json::str(fault::to_string(static_cast<fault::Action>(e.a))));
        args.set("rule", Json::uint(e.b));
        i.set("args", std::move(args));
        arr.push(std::move(i));
        break;
      }
    }
  }

  Json doc = Json::object();
  doc.set("traceEvents", std::move(arr));
  doc.set("displayTimeUnit", Json::str("ms"));
  return doc;
}

}  // namespace mm::obs
