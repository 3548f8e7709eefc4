// Small statistics toolkit used by the evaluation benches: means,
// percentiles, CDFs and complementary CDFs over cluster sizes and traffic
// volumes, plus a streaming accumulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spooftrack::util {

/// Arithmetic mean; 0 for an empty range.
double mean(const std::vector<double>& values) noexcept;
double mean_u32(const std::vector<std::uint32_t>& values) noexcept;

/// Percentile by nearest-rank on a copy; 0 for empty input. `q` is clamped
/// to [0, 100], and a NaN `q` reads as 0 (the minimum).
double percentile(std::vector<double> values, double q) noexcept;
double percentile_u32(const std::vector<std::uint32_t>& values,
                      double q) noexcept;
/// The position in sorted order `percentile` reads among n > 0 values
/// (same reading of `q`).
std::size_t percentile_index(std::size_t n, double q) noexcept;

/// One (x, y) point of an empirical distribution function.
struct DistPoint {
  double x = 0.0;
  double y = 0.0;
};

/// Empirical CDF: y = P[X <= x] evaluated at each distinct sample value.
std::vector<DistPoint> cdf(std::vector<double> samples);

/// Complementary CDF: y = P[X >= x] at each distinct sample value. This is
/// the convention used by the paper's Figures 3 and 6 (fraction of clusters
/// with at least a given size).
std::vector<DistPoint> ccdf(std::vector<double> samples);

/// Streaming accumulator for count/mean/min/max.
class Accumulator {
 public:
  void add(double value) noexcept;
  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ == 0 ? 0.0 : sum_ / count_; }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Histogram over integer bucket values (e.g. cluster sizes).
class Histogram {
 public:
  void add(std::uint64_t value, std::uint64_t weight = 1);
  std::uint64_t total() const noexcept { return total_; }
  /// Fraction of mass at values <= x.
  double cumulative_at(std::uint64_t x) const noexcept;
  /// Fraction of mass at values >= x.
  double complementary_at(std::uint64_t x) const noexcept;
  /// Sorted distinct values present in the histogram.
  std::vector<std::uint64_t> values() const;

 private:
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted_() const;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets_;
  std::uint64_t total_ = 0;
};

}  // namespace spooftrack::util
