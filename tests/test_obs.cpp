// Observability-layer tests: LogHistogram exactness, trace-ring wraparound,
// and a pinned ObsReport cell (docs/RUNTIME.md "Observability").
//
// The contract under test mirrors Metrics: everything in an ObsReport is a
// pure function of the (seed, config) trajectory, so a fixed cell's report
// can be pinned and a different seed must move it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/tags.hpp"
#include "fault/engine.hpp"
#include "fault/rule.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::runtime {
namespace {

// ---------------------------------------------------------------------------
// LogHistogram vs an exact sample set
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> sample_values(std::size_t count, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::uint64_t> vals;
  vals.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Mix tiny exact-range values with heavy-tailed large ones so both the
    // exact sub-2^4 buckets and the log octaves carry counts.
    const std::uint64_t v = rng.coin() ? rng.below(16) : (rng.below(1'000'000) + 1);
    vals.push_back(v);
  }
  return vals;
}

TEST(LogHistogram, MergeMatchesSingleAccumulation) {
  const auto vals = sample_values(4096, 11);
  LogHistogram whole, left, right;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    whole.add(vals[i]);
    (i % 2 == 0 ? left : right).add(vals[i]);
  }
  LogHistogram merged = left;
  merged.merge(right);
  EXPECT_EQ(merged, whole);
  EXPECT_EQ(merged.total(), vals.size());
  EXPECT_EQ(merged.sum(), whole.sum());
}

TEST(LogHistogram, PercentileMatchesNearestRankOnExactSamples) {
  const auto vals = sample_values(2000, 23);
  LogHistogram h;
  for (const std::uint64_t v : vals) h.add(v);

  std::vector<std::uint64_t> sorted = vals;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    // Nearest-rank: the ceil(qN)-th smallest sample, then floored to its
    // holding bucket's lower edge — the histogram's documented answer.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    const std::uint64_t exact = sorted[rank == 0 ? 0 : rank - 1];
    const std::uint64_t expect =
        LogHistogram::bucket_floor(LogHistogram::bucket_index(exact));
    EXPECT_EQ(h.percentile(q), expect) << "q=" << q;
  }
  // Values below 2^kSubBits live in width-1 buckets: exact percentiles.
  LogHistogram small;
  for (std::uint64_t v = 0; v < 16; ++v) small.add(v);
  EXPECT_EQ(small.percentile(0.5), 7u);
  EXPECT_EQ(small.percentile(1.0), 15u);
  EXPECT_EQ(small.min(), 0u);
  EXPECT_EQ(small.max(), 15u);
}

// ---------------------------------------------------------------------------
// Trace-ring wraparound
// ---------------------------------------------------------------------------

void run_ring_workload(SimRuntime& rt, std::uint32_t n, int iters) {
  for (std::uint32_t p = 0; p < n; ++p) {
    rt.add_process([p, n, iters](Env& env) {
      const RegId mine = env.reg(RegKey::make(core::kTagState, env.self(), 0, 0));
      std::vector<Message> drained;
      for (int i = 0; i < iters; ++i) {
        env.write(mine, static_cast<std::uint64_t>(i));
        Message m;
        m.kind = 1;
        m.value = env.read(mine);
        env.send(Pid{(p + 1) % n}, m);
        env.drain_inbox(drained);
        env.step();
      }
    });
  }
  ASSERT_TRUE(rt.run_until_all_done(200'000));
}

TEST(TraceRing, WraparoundKeepsExactlyTheLastCapacityEvents) {
  SimConfig cfg;
  cfg.gsm = graph::Graph{4};
  cfg.seed = 99;

  // Reference run: a ring big enough to never evict.
  SimRuntime full{cfg};
  full.enable_trace(1u << 20);
  run_ring_workload(full, 4, 200);
  const auto all = full.trace();
  ASSERT_GT(all.size(), 128u);

  // Same trajectory through a 64-slot ring: trace() must return exactly the
  // last 64 events, oldest first, bit-identical to the reference tail.
  SimRuntime wrapped{cfg};
  wrapped.enable_trace(64);
  run_ring_workload(wrapped, 4, 200);
  const auto kept = wrapped.trace();
  ASSERT_EQ(kept.size(), 64u);
  const std::vector<SimRuntime::TraceEvent> tail(all.end() - 64, all.end());
  EXPECT_EQ(kept, tail);
}

// ---------------------------------------------------------------------------
// A pinned ObsReport cell
// ---------------------------------------------------------------------------

/// n = 8 in four disjoint GSM pairs, ring messaging plus partner-register
/// traffic and a link-burst fault schedule, with observability armed and,
/// if `recording`, footprint recording beside it.
struct ObsCell {
  ObsReport report;
  std::uint64_t cas_local = 0;
  std::uint64_t cas_total = 0;
};

ObsCell run_obs_cell(std::uint64_t seed, bool recording = false) {
  constexpr std::uint32_t kN = 8;
  constexpr int kIters = 80;
  graph::Graph g{kN};
  for (std::uint32_t i = 0; i + 1 < kN; i += 2) g.add_edge(Pid{i}, Pid{i + 1});
  SimConfig cfg;
  cfg.gsm = g;
  cfg.seed = seed;
  cfg.min_delay = 2;
  cfg.max_delay = 9;
  SimRuntime rt{cfg};
  rt.set_observability(true);
  rt.set_footprint_recording(recording);
  for (std::uint32_t p = 0; p < kN; ++p) {
    rt.add_process([p](Env& env) {
      const Pid partner{p % 2 == 0 ? p + 1 : p - 1};
      const RegId mine = env.reg(RegKey::make(core::kTagState, env.self(), 0, 0));
      const RegId theirs = env.reg(RegKey::make(core::kTagState, partner, 0, 0));
      std::vector<Message> drained;
      std::uint64_t acc = p;
      for (int i = 0; i < kIters; ++i) {
        acc = acc * 0x100000001b3ULL + env.now();
        env.write(mine, acc);
        acc ^= env.cas(mine, acc, acc + 1);      // owner CAS: local
        acc ^= env.cas(theirs, acc, acc + 1);    // partner CAS: remote
        Message m;
        m.kind = 1;
        m.value = acc;
        env.send(Pid{(p + 3) % kN}, m);
        if (i % 3 == 0) env.send(partner, m);
        env.drain_inbox(drained);
        for (const Message& r : drained) acc = acc * 31 + r.value;
        env.step();
      }
    });
  }
  // A fault schedule so drops and crashes flow through the recorders too.
  fault::FaultRule burst;
  burst.trigger = fault::Trigger::kAtStep;
  burst.count = 40;
  burst.action = fault::Action::kLinkBurst;
  burst.duration = 60;
  burst.drop_prob = 0.25;
  burst.dup_prob = 0.25;
  burst.extra_delay = 4;
  fault::FaultEngine engine{std::vector<fault::FaultRule>{burst}};
  rt.set_fault_injector(&engine);
  EXPECT_TRUE(rt.run_until_all_done(200'000));
  ObsCell out;
  out.report = rt.obs_report();
  out.cas_local = rt.metrics().reg_cas_local;
  out.cas_total = rt.metrics().reg_cas_ops;
  return out;
}

TEST(ObsGrid, PendingDepthLocalityAndSeedSensitivity) {
  const ObsCell base = run_obs_cell(42);
  // The baseline must be non-trivial or the pins below are vacuous.
  EXPECT_GT(base.report.delivery_latency.total(), 0u);
  EXPECT_GT(base.report.inbox_depth.total(), 0u);
  EXPECT_GT(base.report.pending_depth.total(), 0u);
  EXPECT_GT(base.report.reg_contention.total(), 0u);
  // Pending depth is the destination heap's size at each delivering drain.
  // Pinned to the in-flight depth that replaying this cell's every enqueue
  // (+1) and delivering drain (−count) in step order yields: the burst's
  // drops and duplicates must not skew the heap against that count.
  const LogHistogram& pending = base.report.pending_depth;
  EXPECT_EQ(pending.total(), 475u);
  EXPECT_EQ(pending.min(), 1u);
  EXPECT_EQ(pending.percentile(0.50), 2u);
  EXPECT_EQ(pending.percentile(0.90), 3u);
  EXPECT_EQ(pending.max(), 5u);
  // The §5.3 locality split: every process CASes its own register once and
  // its partner's once per iteration, so exactly half the CAS traffic is
  // owner-local.
  EXPECT_GT(base.cas_local, 0u);
  EXPECT_EQ(base.cas_local * 2, base.cas_total);

  // Footprint recording only observes: with both hooks armed the report is
  // the same.
  const ObsCell both = run_obs_cell(42, /*recording=*/true);
  EXPECT_EQ(both.report, base.report);
  EXPECT_EQ(both.cas_total, base.cas_total);

  // A different seed must move the histograms.
  const ObsCell other = run_obs_cell(43);
  EXPECT_FALSE(other.report == base.report);
}

TEST(ObsGrid, DisarmedRunsRecordNothing) {
  constexpr std::uint32_t kN = 4;
  SimConfig cfg;
  cfg.gsm = graph::Graph{kN};
  cfg.seed = 5;
  SimRuntime rt{cfg};
  run_ring_workload(rt, kN, 50);
  const ObsReport r = rt.obs_report();
  EXPECT_EQ(r.delivery_latency.total(), 0u);
  EXPECT_EQ(r.inbox_depth.total(), 0u);
  EXPECT_EQ(r.pending_depth.total(), 0u);
  EXPECT_EQ(r.reg_contention.total(), 0u);
}

}  // namespace
}  // namespace mm::runtime
