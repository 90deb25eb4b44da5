#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace mm {

void RunningStats::add(double x) noexcept {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

std::size_t LogHistogram::bucket_index(std::uint64_t value) noexcept {
  if (value < kSub) return static_cast<std::size_t>(value);
  // bit_width(value) in [kSubBits+1, 64]; the top kSubBits bits below the
  // leading one select the linear sub-bucket within the octave.
  const unsigned width = 64u - static_cast<unsigned>(std::countl_zero(value));
  const unsigned shift = width - 1 - kSubBits;
  const auto sub = static_cast<std::size_t>((value >> shift) & (kSub - 1));
  return kSub + static_cast<std::size_t>(width - 1 - kSubBits) * kSub + sub;
}

std::uint64_t LogHistogram::bucket_floor(std::size_t i) noexcept {
  if (i < kSub) return static_cast<std::uint64_t>(i);
  const std::size_t octave = (i - kSub) / kSub;  // 0-based above the exact range
  const std::size_t sub = (i - kSub) % kSub;
  const unsigned shift = static_cast<unsigned>(octave);
  return ((std::uint64_t{1} << kSubBits) | static_cast<std::uint64_t>(sub)) << shift;
}

void LogHistogram::add(std::uint64_t value, std::uint64_t count) noexcept {
  if (count == 0) return;
  counts_[bucket_index(value)] += count;
  total_ += count;
  sum_ += value * count;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

std::uint64_t LogHistogram::percentile(double q) const noexcept {
  if (total_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based), matching the nearest-rank definition.
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_)));
  const std::uint64_t target = rank == 0 ? 1 : rank;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= target) return bucket_floor(i);
  }
  return max_;
}

}  // namespace mm
