// Small statistics helpers used by tests and benches: running summaries and
// fixed-bucket histograms over step counts / operation counts.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace mm {

/// Single-pass running summary (Welford). Good enough for bench tables;
/// avoids keeping every sample when sweeps run thousands of trials.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  void merge(const RunningStats& other) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact-quantile sample set; keeps all samples. Use for per-run latencies
/// where trial counts are modest (≤ ~1e6).
class Samples {
 public:
  void add(double x) { xs_.push_back(x); sorted_ = false; }
  [[nodiscard]] std::size_t count() const noexcept { return xs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return xs_.empty(); }
  [[nodiscard]] double mean() const noexcept;
  /// Quantile in [0,1] with linear interpolation; 0 on empty.
  [[nodiscard]] double quantile(double q);
  [[nodiscard]] double median() { return quantile(0.5); }
  [[nodiscard]] double p99() { return quantile(0.99); }
  [[nodiscard]] double min();
  [[nodiscard]] double max();
  void reset() noexcept { xs_.clear(); sorted_ = false; }

 private:
  void sort_if_needed();
  std::vector<double> xs_;
  bool sorted_ = false;
};

/// HDR-style log-bucketed histogram over unsigned integer values. Each
/// power-of-two octave is split into 2^kSubBits linear sub-buckets, so the
/// relative quantile error is bounded by 2^-kSubBits (~6%) while the whole
/// value range [0, 2^64) fits in a fixed array. Values below 2^kSubBits land
/// in dedicated unit-width buckets and are exact.
///
/// Merging is element-wise bucket addition, which is *exact*: merging N
/// histograms equals adding all samples to one.
class LogHistogram {
 public:
  static constexpr unsigned kSubBits = 4;
  static constexpr unsigned kSub = 1u << kSubBits;  // sub-buckets per octave
  // Octaves above the exact range: value bit-widths kSubBits+1 .. 64.
  static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  void add(std::uint64_t value, std::uint64_t count = 1) noexcept;
  void merge(const LogHistogram& other) noexcept;

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

/// Fixed-width bucket histogram over [lo, hi); out-of-range values clamp to
/// the edge buckets so no sample is silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x) noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept { return counts_; }
  [[nodiscard]] double bucket_lo(std::size_t i) const noexcept;
  [[nodiscard]] double bucket_hi(std::size_t i) const noexcept;
  /// Render as an ASCII bar chart (for bench output).
  [[nodiscard]] std::string ascii(std::size_t width = 40) const;

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace mm
