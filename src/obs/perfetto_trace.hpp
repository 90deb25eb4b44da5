// Chrome-trace (Perfetto-loadable) export of SimRuntime observability.
//
// Three artifacts, all built from public SimRuntime surfaces:
//
//   * recording_json  — a raw "mm-trace-1" document: the trace-event ring
//     plus the ObsReport histograms and a Metrics subset. This is the
//     durable on-disk form (tools/trace record); it round-trips through
//     trace_events_from_json so later exports never need to re-run the
//     simulation.
//   * chrome_trace    — the same events rendered in the Chrome trace-event
//     format that Perfetto / chrome://tracing load directly: one track per
//     simulated process ("X" slices for scheduled steps, dur-1 slices with
//     flow arrows pairing each send with its deliver by the trace seq),
//     instant events for crashes / drops / memory windows / fault-rule
//     firings. Virtual steps map 1:1 to microseconds (the format's ts unit).
//   * summary helpers — per-histogram JSON ({count,min,max,mean,p50/p90/p99})
//     used by the recording document.
//
// Everything here is a pure function of already-recorded state; nothing
// mutates the runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/json.hpp"
#include "runtime/obs_recorder.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::obs {

/// {count,min,max,mean,p50,p90,p99} for one log-bucketed histogram.
[[nodiscard]] fault::Json histogram_json(const LogHistogram& h);

/// The four ObsReport histograms keyed by name.
[[nodiscard]] fault::Json obs_report_json(const runtime::ObsReport& r);

/// Raw event list: [{step,pid,kind,a,b,seq}...] with kind as a short string.
[[nodiscard]] fault::Json trace_events_json(
    const std::vector<runtime::SimRuntime::TraceEvent>& events);

/// Inverse of trace_events_json. Throws fault::JsonError on malformed input
/// (unknown kind, missing field).
[[nodiscard]] std::vector<runtime::SimRuntime::TraceEvent> trace_events_from_json(
    const fault::Json& events);

/// Full "mm-trace-1" recording document for a finished (or paused) run.
[[nodiscard]] fault::Json recording_json(const runtime::SimRuntime& rt);

/// Chrome trace-event JSON ({"traceEvents":[...]}) from an event list.
/// `n_procs` names the per-process tracks.
[[nodiscard]] fault::Json chrome_trace(
    const std::vector<runtime::SimRuntime::TraceEvent>& events, std::size_t n_procs);

}  // namespace mm::obs
