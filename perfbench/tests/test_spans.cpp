// The span recorder and the self-time arithmetic, on synthetic span trees
// whose answers are worked out by hand.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "spans.hpp"

namespace perfbench {
namespace {

Span span(const char* name, std::uint64_t id, std::uint64_t parent, std::int64_t start,
          std::int64_t end, std::uint32_t width = 1) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.width = width;
  return s;
}

TEST(WallByLayer, SubtractsSequentialChildren) {
  const std::vector<Span> spans{span("bench.batch", 1, 0, 0, 100),
                                span("runtime.ctor", 2, 1, 10, 30),
                                span("runtime.run", 3, 1, 40, 70)};
  const auto by_layer = wall_seconds_by_layer(spans);
  EXPECT_NEAR(by_layer.at("bench") * 1e9, 50.0, 1e-6);
  EXPECT_NEAR(by_layer.at("runtime") * 1e9, 50.0, 1e-6);
}

TEST(WallByLayer, SharesAddUpToTheRootWall) {
  // A batch [0,1000] runs a parallel_map call [100,900] on two workers:
  // worker 0 runs trials [100,500] (with runtime.run [150,450]) and
  // [500,880], worker 1 runs [100,900].
  const std::vector<Span> spans{
      span("bench.batch", 1, 0, 0, 1000),         span("exec.parallel_map", 2, 1, 100, 900, 2),
      span("core.trial", 3, 2, 100, 500),         span("runtime.run", 4, 3, 150, 450),
      span("core.trial", 5, 2, 500, 880),         span("core.trial", 6, 2, 100, 900),
  };
  const auto by_layer = wall_seconds_by_layer(spans);
  // bench 1000 - 800; exec 800 - (400 + 380 + 800) / 2;
  // core (400 - 300 + 380 + 800) / 2; runtime 300 / 2.
  EXPECT_NEAR(by_layer.at("bench") * 1e9, 200.0, 1e-6);
  EXPECT_NEAR(by_layer.at("exec") * 1e9, 10.0, 1e-6);
  EXPECT_NEAR(by_layer.at("core") * 1e9, 640.0, 1e-6);
  EXPECT_NEAR(by_layer.at("runtime") * 1e9, 150.0, 1e-6);
  double total = 0.0;
  for (const auto& [layer, seconds] : by_layer) total += seconds;
  EXPECT_NEAR(total * 1e9, 1000.0, 1e-6);
}

TEST(WallByLayer, RejectsASpanWhoseParentWasNotRecorded) {
  EXPECT_THROW((void)wall_seconds_by_layer({span("core.trial", 2, 7, 0, 10)}),
               std::runtime_error);
}

TEST(Recorder, NestsSpansOnOneThread) {
  tracing::set_enabled(true);
  {
    const ScopedSpan outer{"bench.batch"};
    const ScopedSpan inner{"runtime.run", 3};
  }
  tracing::set_enabled(false);
  const std::vector<Span> spans = tracing::take();
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_STREQ(spans[0].name, "bench.batch");
  EXPECT_EQ(spans[0].parent, 0U);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].item, 3);
  EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
}

TEST(Recorder, AnExplicitParentCrossesThreads) {
  tracing::set_enabled(true);
  std::uint64_t call_id = 0;
  {
    const ScopedSpan call{"exec.parallel_map"};
    call_id = call.id();
    WorkerSlots slots;
    std::thread worker{[&] { const ScopedSpan item{"core.trial", 0, "", call_id, slots.slot()}; }};
    worker.join();
  }
  tracing::set_enabled(false);
  const std::vector<Span> spans = tracing::take();
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_EQ(spans[1].parent, call_id);
  EXPECT_NE(spans[1].thread, spans[0].thread);
}

TEST(Recorder, RecordsNothingWhenDisarmed) {
  {
    const ScopedSpan s{"bench.batch"};
    EXPECT_EQ(s.id(), 0U);
  }
  EXPECT_TRUE(tracing::take().empty());
}

}  // namespace
}  // namespace perfbench
