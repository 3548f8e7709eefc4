// Deterministic pseudo-random number generation.
//
// Every stochastic component of the library (topology synthesis, measurement
// noise, traffic placement, random schedules) draws from an explicitly seeded
// Rng so that experiments are reproducible bit-for-bit. We implement
// xoshiro256** seeded via SplitMix64, which is fast, well distributed, and
// has a tiny state that can be forked cheaply for parallel work.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace spooftrack::util {

/// SplitMix64 step; used for seeding and for stateless hash mixing.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix of a single value (finalizer of SplitMix64).
inline std::uint64_t mix64(std::uint64_t value) noexcept {
  std::uint64_t state = value;
  return splitmix64(state);
}

/// Stateless hash of two 64-bit values; used for stable per-pair tiebreaks.
inline std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return mix64(a ^ (mix64(b) + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Uniform double in [0, 1) from the top 53 bits of `bits`.
inline double unit01(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Deterministic uniform double in [0, 1) from three identifiers.
inline double unit_hash(std::uint64_t a, std::uint64_t b,
                        std::uint64_t c) noexcept {
  return unit01(hash_combine(hash_combine(a, b), c));
}

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator so it can be
/// used with <random> distributions, though the member helpers below cover
/// every use in this library.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5f0047656f726765ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Uniform integer in [0, bound). Requires bound > 0. Uses Lemire's
  /// unbiased multiply-shift rejection method.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool chance(double p) noexcept;

  /// Pareto(shape alpha, scale xm > 0) variate.
  double pareto(double alpha, double xm = 1.0) noexcept;

  /// Geometric-ish integer: 1 + floor(Exp(mean-1)); always >= 1.
  std::uint32_t one_plus_exponential(double mean_extra) noexcept;

  /// Index drawn proportionally to non-negative weights. Requires at least
  /// one strictly positive weight.
  std::size_t weighted_index(const std::vector<double>& weights) noexcept;

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Fork an independent stream; deterministic in the parent state.
  Rng fork() noexcept;

 private:
  std::uint64_t s_[4];
};

/// Non-negative whole-number weights in a Fenwick tree: O(log n) updates
/// and draws where Rng::weighted_index scans all n. While every sum stays
/// below 2^53 the tree's partial sums, the running remainder and the total
/// are exact, so draw() returns the index weighted_index returns over the
/// same weights, from the same stream, consuming the same one uniform01().
class WeightTree {
 public:
  explicit WeightTree(std::span<const double> weights);

  /// Adds `amount` to the weight at `index`.
  void add(std::size_t index, double amount) noexcept;
  /// The first index whose prefix sum exceeds `point`, the last index when
  /// none does: weighted_index's linear scan for that point.
  std::size_t find(double point) const noexcept;
  /// find(uniform01() * total()).
  std::size_t draw(Rng& rng) const noexcept {
    return find(rng.uniform01() * total_);
  }
  double total() const noexcept { return total_; }

 private:
  std::vector<double> tree_;  // 1-based partial sums
  double total_ = 0.0;
};

}  // namespace spooftrack::util
