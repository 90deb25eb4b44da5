// Tests for the net helpers: MsgBuffer retention policy and broadcast.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/generators.hpp"
#include "net/broadcast.hpp"
#include "net/msg_buffer.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::net {
namespace {

using runtime::Env;
using runtime::Message;
using runtime::SimConfig;
using runtime::SimRuntime;

Message make(std::uint32_t kind, std::uint64_t round, std::uint64_t value = 0) {
  Message m;
  m.kind = kind;
  m.round = round;
  m.value = value;
  return m;
}

using Values = std::vector<std::uint64_t>;

/// Values of the (kind, round) matches, in the order for_each_matching visits them.
Values values(const MsgBuffer& buf, std::uint32_t kind, std::uint64_t round) {
  Values out;
  buf.for_each_matching(kind, round, [&out](const Message& m) { out.push_back(m.value); });
  return out;
}

TEST(MsgBuffer, MatchingFiltersKindAndRound) {
  MsgBuffer buf;
  buf.ingest({make(1, 1, 5), make(1, 2), make(2, 1), make(1, 1, 7)});
  buf.ingest({make(1, 1, 3)});
  // Arrival order, not value order: the receive rules' first-wins slots
  // depend on it.
  EXPECT_EQ(values(buf, 1, 1), (Values{5, 7, 3}));
  EXPECT_EQ(values(buf, 1, 2).size(), 1u);
  EXPECT_EQ(values(buf, 2, 1).size(), 1u);
  EXPECT_TRUE(values(buf, 3, 1).empty());
  EXPECT_EQ(buf.size(), 5u);
}

TEST(MsgBuffer, FirstMatchingIsEarliestOrNull) {
  MsgBuffer buf;
  EXPECT_EQ(buf.first_matching(1, 1), nullptr);
  buf.ingest({make(2, 1, 9), make(1, 1, 4), make(1, 2, 8), make(1, 1, 6)});
  const Message* first = buf.first_matching(1, 1);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->value, 4u);
  EXPECT_EQ(buf.first_matching(1, 3), nullptr);
  EXPECT_EQ(buf.first_matching(3, 1), nullptr);
  buf.erase_matching([](const Message& m) { return m.value == 4; });
  first = buf.first_matching(1, 1);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->value, 6u);
}

TEST(MsgBuffer, GcDropsOnlyOlderRounds) {
  MsgBuffer buf;
  buf.ingest({make(1, 1), make(1, 2), make(1, 3), make(2, 5)});
  buf.gc_below(3);
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(values(buf, 1, 3).size(), 1u);
  EXPECT_EQ(values(buf, 2, 5).size(), 1u);
  EXPECT_TRUE(values(buf, 1, 1).empty());
}

TEST(MsgBuffer, FutureRoundsRetained) {
  // A fast sender's round-10 message must survive while we are in round 2.
  MsgBuffer buf;
  buf.ingest({make(1, 10)});
  buf.gc_below(2);
  EXPECT_EQ(values(buf, 1, 10).size(), 1u);
}

TEST(MsgBuffer, IngestAppends) {
  MsgBuffer buf;
  buf.ingest({make(1, 1, 1)});
  buf.ingest({make(1, 1, 2)});
  EXPECT_EQ(values(buf, 1, 1), (Values{1, 2}));
}

TEST(MsgBuffer, EraseMatchingIsSelective) {
  MsgBuffer buf;
  buf.ingest({make(1, 1), make(2, 1), make(1, 5), make(3, 0)});
  buf.erase_matching([](const Message& m) { return m.kind == 1 && m.round < 5; });
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_TRUE(values(buf, 1, 1).empty());
  EXPECT_EQ(values(buf, 1, 5).size(), 1u);
  EXPECT_EQ(values(buf, 2, 1).size(), 1u);
}

TEST(MsgBuffer, TakeAllDrainsEverything) {
  MsgBuffer buf;
  buf.ingest({make(1, 1), make(2, 2)});
  const auto taken = buf.take_all();
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.take_all().empty());
}

TEST(Broadcast, SendToAllIncludesSelf) {
  SimConfig cfg;
  cfg.gsm = graph::complete(4);
  cfg.seed = 2;
  SimRuntime rt{cfg};
  rt.add_process([](Env& env) { send_to_all(env, Message{}); });
  for (int p = 1; p < 4; ++p) rt.add_process([](Env&) {});
  rt.run_until_all_done(10'000);
  EXPECT_EQ(rt.metrics().msgs_sent, 4u);
}

TEST(Broadcast, SendToOthersExcludesSelf) {
  SimConfig cfg;
  cfg.gsm = graph::complete(4);
  cfg.seed = 3;
  SimRuntime rt{cfg};
  bool self_got = false;
  rt.add_process([&self_got](Env& env) {
    send_to_others(env, Message{});
    std::vector<Message> drained;
    for (int i = 0; i < 200; ++i) {
      env.drain_inbox(drained);
      for (const auto& m : drained)
        if (m.from == env.self()) self_got = true;
      env.step();
    }
  });
  for (int p = 1; p < 4; ++p) rt.add_process([](Env&) {});
  rt.run_until_all_done(50'000);
  EXPECT_EQ(rt.metrics().msgs_sent, 3u);
  EXPECT_FALSE(self_got);
}

TEST(Broadcast, PumpMovesInboxToBuffer) {
  SimConfig cfg;
  cfg.gsm = graph::complete(2);
  cfg.seed = 4;
  SimRuntime rt{cfg};
  rt.add_process([](Env& env) {
    env.send(Pid{1}, make(7, 3));
    env.send(Pid{1}, make(7, 3));
  });
  rt.add_process([](Env& env) {
    MsgBuffer buf;
    while (values(buf, 7, 3).size() < 2) {
      buf.pump(env);
      env.step();
    }
  });
  EXPECT_TRUE(rt.run_until_all_done(50'000));
}

}  // namespace
}  // namespace mm::net
