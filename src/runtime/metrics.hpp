// Operation counters collected by both runtimes. The steady-state claims of
// Theorems 5.1/5.2 (and lower bounds 5.3/5.4) are statements about exactly
// these counts, broken down by process so bench tables can split by role
// (leader vs non-leader).
#pragma once

#include <cstdint>
#include <vector>

namespace mm::runtime {

struct Metrics {
  // Network.
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_delivered = 0;
  std::uint64_t msgs_dropped = 0;  ///< fair-lossy drops (never on reliable links)

  // Shared memory, totals.
  std::uint64_t reg_reads = 0;
  std::uint64_t reg_writes = 0;
  std::uint64_t reg_cas_ops = 0;
  // Locality split (§5.3): an access is local iff accessor == register owner.
  std::uint64_t reg_reads_local = 0;
  std::uint64_t reg_writes_local = 0;
  std::uint64_t reg_cas_local = 0;

  // Per-process breakdowns (indexed by Pid).
  std::vector<std::uint64_t> steps_by_proc;
  std::vector<std::uint64_t> sends_by_proc;
  std::vector<std::uint64_t> reads_by_proc;
  std::vector<std::uint64_t> writes_by_proc;
  std::vector<std::uint64_t> remote_reads_by_proc;
  std::vector<std::uint64_t> remote_writes_by_proc;

  explicit Metrics(std::size_t n = 0)
      : steps_by_proc(n, 0),
        sends_by_proc(n, 0),
        reads_by_proc(n, 0),
        writes_by_proc(n, 0),
        remote_reads_by_proc(n, 0),
        remote_writes_by_proc(n, 0) {}

  /// Zero every counter for n processes, as Metrics{n} would, reusing the
  /// per-process vectors' capacity (a recycled runtime's metrics).
  void reset(std::size_t n) {
    msgs_sent = msgs_delivered = msgs_dropped = 0;
    reg_reads = reg_writes = reg_cas_ops = 0;
    reg_reads_local = reg_writes_local = reg_cas_local = 0;
    for (std::vector<std::uint64_t>* v : {&steps_by_proc, &sends_by_proc, &reads_by_proc,
                                          &writes_by_proc, &remote_reads_by_proc,
                                          &remote_writes_by_proc})
      v->assign(n, 0);
  }

  /// Element-wise difference (this − earlier): op counts within a window.
  [[nodiscard]] Metrics delta_since(const Metrics& earlier) const {
    Metrics d{steps_by_proc.size()};
    d.msgs_sent = msgs_sent - earlier.msgs_sent;
    d.msgs_delivered = msgs_delivered - earlier.msgs_delivered;
    d.msgs_dropped = msgs_dropped - earlier.msgs_dropped;
    d.reg_reads = reg_reads - earlier.reg_reads;
    d.reg_writes = reg_writes - earlier.reg_writes;
    d.reg_cas_ops = reg_cas_ops - earlier.reg_cas_ops;
    d.reg_reads_local = reg_reads_local - earlier.reg_reads_local;
    d.reg_writes_local = reg_writes_local - earlier.reg_writes_local;
    d.reg_cas_local = reg_cas_local - earlier.reg_cas_local;
    for (std::size_t p = 0; p < steps_by_proc.size(); ++p) {
      d.steps_by_proc[p] = steps_by_proc[p] - earlier.steps_by_proc[p];
      d.sends_by_proc[p] = sends_by_proc[p] - earlier.sends_by_proc[p];
      d.reads_by_proc[p] = reads_by_proc[p] - earlier.reads_by_proc[p];
      d.writes_by_proc[p] = writes_by_proc[p] - earlier.writes_by_proc[p];
      d.remote_reads_by_proc[p] = remote_reads_by_proc[p] - earlier.remote_reads_by_proc[p];
      d.remote_writes_by_proc[p] = remote_writes_by_proc[p] - earlier.remote_writes_by_proc[p];
    }
    return d;
  }
};

// reset() names every field: a new one must join it.
static_assert(sizeof(Metrics) == 9 * sizeof(std::uint64_t) + 6 * sizeof(std::vector<std::uint64_t>),
              "Metrics::reset() must zero every field");

}  // namespace mm::runtime
