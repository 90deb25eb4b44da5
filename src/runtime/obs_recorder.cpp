#include "runtime/obs_recorder.hpp"

namespace mm::runtime {

ObsReport build_obs_report(const ObsRecorder& rec) {
  ObsReport rep;
  rep.delivery_latency = rec.delivery_latency;
  rep.inbox_depth = rec.inbox_depth;
  rep.pending_depth = rec.pending_depth;
  // Per-register access counts → one histogram sample per touched register.
  for (const std::uint64_t count : rec.reg_touches)
    if (count != 0) rep.reg_contention.add(count);
  return rep;
}

}  // namespace mm::runtime
