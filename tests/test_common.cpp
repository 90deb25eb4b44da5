// Unit tests for mm_common: rng, stats, table, ids, packed state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "runtime/register_key.hpp"
#include "shm/packed_state.hpp"

namespace mm {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound) {
  Rng r{7};
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng r{7};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BetweenInclusive) {
  Rng r{9};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, CoinIsRoughlyFair) {
  Rng r{11};
  int heads = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i)
    if (r.coin()) ++heads;
  EXPECT_NEAR(static_cast<double>(heads) / kTrials, 0.5, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r{13};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-1.0));
    EXPECT_TRUE(r.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng r{17};
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i)
    if (r.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(Rng, Uniform01Range) {
  Rng r{19};
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, SplitStreamsDiffer) {
  Rng parent{23};
  Rng a = parent.split();
  Rng b = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r{29};
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  shuffle(v.begin(), v.end(), r);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), orig.begin()));
  EXPECT_NE(v, orig);  // 50! permutations; identity is effectively impossible
}

TEST(Rng, ShuffleUniformish) {
  // First element should be roughly uniform over positions.
  std::vector<int> counts(4, 0);
  Rng r{31};
  for (int t = 0; t < 8000; ++t) {
    std::vector<int> v{0, 1, 2, 3};
    shuffle(v.begin(), v.end(), r);
    ++counts[static_cast<std::size_t>(v[0])];
  }
  for (int c : counts) EXPECT_NEAR(c, 2000, 250);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(RunningStats, MatchesNaive) {
  Rng r{37};
  RunningStats s;
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) {
    const double x = r.uniform01() * 100 - 50;
    xs.push_back(x);
    s.add(x);
  }
  const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / 500.0;
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= 499.0;
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-6);
  EXPECT_EQ(s.count(), 500u);
  EXPECT_DOUBLE_EQ(s.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(s.max(), *std::max_element(xs.begin(), xs.end()));
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(Table, RendersAligned) {
  Table t{{"name", "value"}};
  t.row().cell("x").cell(std::int64_t{42});
  t.row().cell("longer-name").cell(3.14159, 2);
  const std::string out = t.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, BoolCells) {
  Table t{{"ok"}};
  t.row().cell(true);
  t.row().cell(false);
  const std::string out = t.render();
  EXPECT_NE(out.find("yes"), std::string::npos);
  EXPECT_NE(out.find("no"), std::string::npos);
}

TEST(Fmt, Precision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(1.0, 0), "1");
}

// ---------------------------------------------------------------------------
// Ids & RegKey
// ---------------------------------------------------------------------------

TEST(Pid, OrderingAndNone) {
  EXPECT_LT(Pid{1}, Pid{2});
  EXPECT_EQ(Pid{3}, Pid{3});
  EXPECT_TRUE(Pid::none().is_none());
  EXPECT_FALSE(Pid{0}.is_none());
  EXPECT_EQ(to_string(Pid{5}), "p5");
  EXPECT_EQ(to_string(Pid::none()), "p?");
}

TEST(RegKey, PackRoundTrip) {
  const auto k = runtime::RegKey::make(0x3f, Pid{0xffff}, 0xffffffffULL, 0xff);
  EXPECT_EQ(k.tag(), 0x3f);
  EXPECT_EQ(k.owner(), Pid{0xffff});
  EXPECT_EQ(k.round(), 0xffffffffULL);
  EXPECT_EQ(k.slot(), 0xff);
  EXPECT_FALSE(k.is_global());
}

TEST(RegKey, GlobalBit) {
  const auto k = runtime::RegKey::make_global(1, Pid{2}, 3, 4);
  EXPECT_TRUE(k.is_global());
  EXPECT_EQ(k.tag(), 1);
  EXPECT_EQ(k.owner(), Pid{2});
  const auto l = runtime::RegKey::make(1, Pid{2}, 3, 4);
  EXPECT_NE(k, l);
}

TEST(RegKey, DistinctNamesDistinctBits) {
  std::set<std::uint64_t> seen;
  for (std::uint8_t tag = 1; tag <= 3; ++tag)
    for (std::uint32_t owner = 0; owner < 4; ++owner)
      for (std::uint64_t round = 0; round < 4; ++round)
        for (std::uint8_t slot = 0; slot < 4; ++slot)
          seen.insert(runtime::RegKey::make(tag, Pid{owner}, round, slot).bits());
  EXPECT_EQ(seen.size(), 3u * 4u * 4u * 4u);
}

// ---------------------------------------------------------------------------
// Packed leader state
// ---------------------------------------------------------------------------

TEST(PackedState, RoundTrip) {
  for (const auto& s : {shm::LeaderState{0, 0, false}, shm::LeaderState{1, 2, true},
                        shm::LeaderState{shm::kMaxHb, shm::kMaxBadness, true}}) {
    EXPECT_EQ(shm::unpack(shm::pack(s)), s);
  }
}

TEST(PackedState, SaturatesInsteadOfWrapping) {
  shm::LeaderState s;
  s.hb = shm::kMaxHb + 5;
  s.counter = shm::kMaxBadness;  // already max
  const auto u = shm::unpack(shm::pack(s));
  EXPECT_EQ(u.hb, shm::kMaxHb);
  EXPECT_EQ(u.counter, shm::kMaxBadness);
}

TEST(PackedState, FieldsDoNotAlias) {
  shm::LeaderState s{/*hb=*/12345, /*counter=*/678, /*active=*/true};
  const auto u = shm::unpack(shm::pack(s));
  EXPECT_EQ(u.hb, 12345u);
  EXPECT_EQ(u.counter, 678u);
  EXPECT_TRUE(u.active);
}

}  // namespace
}  // namespace mm
