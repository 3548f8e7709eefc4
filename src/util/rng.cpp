#include "util/rng.hpp"

#include <bit>
#include <cassert>
#include <cmath>

namespace spooftrack::util {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  assert(bound > 0);
  // Lemire's method: multiply-shift with rejection of the biased region.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::uniform01() noexcept {
  return unit01(next());
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::pareto(double alpha, double xm) noexcept {
  assert(alpha > 0.0 && xm > 0.0);
  double u = uniform01();
  if (u >= 1.0) u = std::nextafter(1.0, 0.0);
  return xm / std::pow(1.0 - u, 1.0 / alpha);
}

std::uint32_t Rng::one_plus_exponential(double mean_extra) noexcept {
  if (mean_extra <= 0.0) return 1;
  double u = uniform01();
  if (u >= 1.0) u = std::nextafter(1.0, 0.0);
  const double extra = -mean_extra * std::log(1.0 - u);
  return 1 + static_cast<std::uint32_t>(extra);
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  assert(total > 0.0);
  double point = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (point < w) return i;
    point -= w;
  }
  return weights.size() - 1;  // numeric slack lands on the last entry
}

Rng Rng::fork() noexcept { return Rng{next()}; }

WeightTree::WeightTree(std::span<const double> weights)
    : tree_(weights.size() + 1, 0.0) {
  for (std::size_t i = 0; i < weights.size(); ++i) add(i, weights[i]);
}

void WeightTree::add(std::size_t index, double amount) noexcept {
  total_ += amount;
  for (std::size_t k = index + 1; k < tree_.size(); k += k & -k) {
    tree_[k] += amount;
  }
}

std::size_t WeightTree::find(double point) const noexcept {
  // Descend to the longest prefix whose sum is <= point; the remainder
  // stays exact because every partial sum is a whole number below 2^53.
  const std::size_t n = tree_.size() - 1;
  std::size_t pos = 0;
  for (std::size_t step = std::bit_floor(n); step > 0; step >>= 1) {
    if (pos + step <= n && tree_[pos + step] <= point) {
      pos += step;
      point -= tree_[pos];
    }
  }
  return pos < n ? pos : n - 1;
}

}  // namespace spooftrack::util
