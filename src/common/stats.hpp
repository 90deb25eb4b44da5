// Small statistics helpers: running summaries for bench tables and
// log-bucketed histograms for the observability layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace mm {

/// Single-pass running summary (Welford). Good enough for bench tables;
/// avoids keeping every sample when sweeps run thousands of trials.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< sample variance (n-1)
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  void reset() noexcept { *this = RunningStats{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// HDR-style log-bucketed histogram over unsigned integer values. Each
/// power-of-two octave is split into 2^kSubBits linear sub-buckets, so the
/// relative quantile error is bounded by 2^-kSubBits (~6%) while the whole
/// value range [0, 2^64) fits in a fixed array. Values below 2^kSubBits land
/// in dedicated unit-width buckets and are exact.
class LogHistogram {
 public:
  static constexpr unsigned kSubBits = 4;
  static constexpr unsigned kSub = 1u << kSubBits;  // sub-buckets per octave
  // Octaves above the exact range: value bit-widths kSubBits+1 .. 64.
  static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  void add(std::uint64_t value, std::uint64_t count = 1) noexcept;

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return total_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return total_ ? static_cast<double>(sum_) / static_cast<double>(total_) : 0.0;
  }
  /// Value at quantile q in [0,1] (lower edge of the holding bucket; exact
  /// for values < 2^kSubBits, within ~6% above). 0 on empty.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept;

  /// Lower edge of bucket i (the smallest value mapping to it).
  [[nodiscard]] static std::uint64_t bucket_floor(std::size_t i) noexcept;
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t value) noexcept;
  [[nodiscard]] const std::uint64_t* buckets() const noexcept { return counts_; }

  void reset() noexcept { *this = LogHistogram{}; }

  friend bool operator==(const LogHistogram& a, const LogHistogram& b) noexcept {
    if (a.total_ != b.total_ || a.sum_ != b.sum_ || a.max_ != b.max_) return false;
    if (a.total_ != 0 && a.min_ != b.min_) return false;
    for (std::size_t i = 0; i < kBuckets; ++i)
      if (a.counts_[i] != b.counts_[i]) return false;
    return true;
  }

 private:
  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

}  // namespace mm
