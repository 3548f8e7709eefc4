#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace spooftrack::util {

double mean(const std::vector<double>& values) noexcept {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double mean_u32(const std::vector<std::uint32_t>& values) noexcept {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (std::uint32_t v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double percentile(std::vector<double> values, double q) noexcept {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[percentile_index(values.size(), q)];
}

std::size_t percentile_index(std::size_t n, double q) noexcept {
  q = std::isnan(q) ? 0.0 : std::clamp(q, 0.0, 100.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n)));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  return std::min(index, n - 1);
}

double percentile_u32(const std::vector<std::uint32_t>& values,
                      double q) noexcept {
  std::vector<double> copy(values.begin(), values.end());
  return percentile(std::move(copy), q);
}

std::vector<DistPoint> cdf(std::vector<double> samples) {
  std::vector<DistPoint> points;
  if (samples.empty()) return points;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const bool last_of_value =
        i + 1 == samples.size() || samples[i + 1] != samples[i];
    if (last_of_value) {
      points.push_back({samples[i], static_cast<double>(i + 1) / n});
    }
  }
  return points;
}

std::vector<DistPoint> ccdf(std::vector<double> samples) {
  std::vector<DistPoint> points;
  if (samples.empty()) return points;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const bool first_of_value = i == 0 || samples[i - 1] != samples[i];
    if (first_of_value) {
      points.push_back({samples[i], static_cast<double>(samples.size() - i) / n});
    }
  }
  return points;
}

void Accumulator::add(double value) noexcept {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_ += value;
  ++count_;
}

void Histogram::add(std::uint64_t value, std::uint64_t weight) {
  buckets_.emplace_back(value, weight);
  total_ += weight;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> Histogram::sorted_()
    const {
  auto copy = buckets_;
  std::sort(copy.begin(), copy.end());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> merged;
  for (const auto& [value, weight] : copy) {
    if (!merged.empty() && merged.back().first == value) {
      merged.back().second += weight;
    } else {
      merged.emplace_back(value, weight);
    }
  }
  return merged;
}

double Histogram::cumulative_at(std::uint64_t x) const noexcept {
  if (total_ == 0) return 0.0;
  std::uint64_t mass = 0;
  for (const auto& [value, weight] : buckets_) {
    if (value <= x) mass += weight;
  }
  return static_cast<double>(mass) / static_cast<double>(total_);
}

double Histogram::complementary_at(std::uint64_t x) const noexcept {
  if (total_ == 0) return 0.0;
  std::uint64_t mass = 0;
  for (const auto& [value, weight] : buckets_) {
    if (value >= x) mass += weight;
  }
  return static_cast<double>(mass) / static_cast<double>(total_);
}

std::vector<std::uint64_t> Histogram::values() const {
  std::vector<std::uint64_t> out;
  for (const auto& [value, weight] : sorted_()) {
    (void)weight;
    out.push_back(value);
  }
  return out;
}

}  // namespace spooftrack::util
