// Sim-time observability recorders (docs/RUNTIME.md "Observability").
//
// An ObsRecorder accumulates a run's sim-time measurements: delivery
// latencies, drain batch sizes, the destination's pending-heap size at each
// delivering drain, and per-register touch counts. Everything a recorder
// stores is a pure trajectory fact — virtual steps, counts, register ids —
// so the ObsReport built from it is bit-identical at any MM_JOBS, exactly
// like Metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"

namespace mm::runtime {

/// Accumulator the runtime allocates when tracing is first armed.
struct ObsRecorder {
  LogHistogram delivery_latency;  ///< drain step − send step, per delivered message
  LogHistogram inbox_depth;       ///< messages handed over per non-empty drain
  LogHistogram pending_depth;     ///< destination heap size before each delivering drain
  std::vector<std::uint64_t> reg_touches;  ///< accesses by RegId (0 = untouched)
};

/// The per-run observability result. All four histograms are pure functions
/// of the trajectory; the ObsGrid tests compare reports verbatim.
struct ObsReport {
  LogHistogram delivery_latency;  ///< sim-steps from send to delivering drain
  LogHistogram inbox_depth;       ///< batch size per non-empty drain
  LogHistogram pending_depth;     ///< in-flight depth at the destination before each delivering drain
  LogHistogram reg_contention;    ///< total accesses per materialised register

  friend bool operator==(const ObsReport&, const ObsReport&) = default;
};

/// Build the report from a recorder: the three histograms as recorded, plus
/// one reg_contention sample per touched register.
[[nodiscard]] ObsReport build_obs_report(const ObsRecorder& rec);

}  // namespace mm::runtime
