// RDMA cost model: converts the runtimes' operation counts into modeled
// wall time, separating local memory accesses from one-sided remote verbs
// and from full messages (two-sided sends).
//
// Defaults follow the magnitudes reported in the RDMA systems the paper
// cites ([28] FaRM, [43] HERD): sub-100ns local access, ~2µs one-sided
// remote verb, ~5µs for a two-sided message including receiver CPU. Only the
// ratios matter for the experiments: §5.3's claim is that a leader whose
// registers are placed locally pays the ~100ns column, not the ~2µs one.
#pragma once

#include <cstdint>

#include "common/ids.hpp"
#include "runtime/metrics.hpp"

namespace mm::rdma {

struct CostModel {
  double local_access_ns = 100.0;
  double remote_read_ns = 2'000.0;
  double remote_write_ns = 1'500.0;
  double message_ns = 5'000.0;

  /// Modeled communication time spent by process p (excludes compute).
  [[nodiscard]] double process_time_ns(const runtime::Metrics& m, Pid p) const {
    const std::size_t i = p.index();
    const double remote = static_cast<double>(m.remote_reads_by_proc[i]) * remote_read_ns +
                          static_cast<double>(m.remote_writes_by_proc[i]) * remote_write_ns;
    const double local_ops =
        static_cast<double>(m.reads_by_proc[i] + m.writes_by_proc[i]) -
        static_cast<double>(m.remote_reads_by_proc[i] + m.remote_writes_by_proc[i]);
    return remote + local_ops * local_access_ns +
           static_cast<double>(m.sends_by_proc[i]) * message_ns;
  }

  /// Modeled total communication time across all processes.
  [[nodiscard]] double total_time_ns(const runtime::Metrics& m) const {
    double t = 0.0;
    for (std::size_t p = 0; p < m.steps_by_proc.size(); ++p)
      t += process_time_ns(m, Pid{static_cast<std::uint32_t>(p)});
    return t;
  }
};

}  // namespace mm::rdma
