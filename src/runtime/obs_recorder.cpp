#include "runtime/obs_recorder.hpp"

namespace mm::runtime {

ObsReport build_obs_report(const ObsRecorder& rec) {
  ObsReport rep;
  rep.delivery_latency = rec.delivery_latency;
  rep.inbox_depth = rec.inbox_depth;
  rep.pending_depth = rec.pending_depth;
  // Per-register access counts → one histogram sample per register. The map
  // iteration order is arbitrary, but histogram insertion commutes.
  for (const auto& [key, count] : rec.reg_touches) rep.reg_contention.add(count);
  return rep;
}

}  // namespace mm::runtime
