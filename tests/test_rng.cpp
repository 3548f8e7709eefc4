#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace spooftrack::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a{7}, b{7};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiverge) {
  Rng a{1}, b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng{42};
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng{5};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng{9};
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng{11};
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(Rng, ParetoRespectsScaleAndTail) {
  Rng rng{13};
  int above_double = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.pareto(1.16, 1.0);
    EXPECT_GE(v, 1.0);
    if (v > 2.0) ++above_double;
  }
  // P[X > 2] = 2^-1.16 ~ 0.447.
  EXPECT_NEAR(static_cast<double>(above_double) / n, 0.447, 0.03);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng{17};
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

/// Rng::weighted_index's scan, for a given point instead of a draw.
std::size_t linear_find(const std::vector<double>& weights, double point) {
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (point < w) return i;
    point -= w;
  }
  return weights.size() - 1;
}

TEST(WeightTree, FindMatchesTheLinearScanAtEveryBoundary) {
  // Whole-number weights with zeros, probed at every prefix sum, on either
  // side of it, between sums and past the total.
  for (const std::vector<double>& weights :
       {std::vector<double>{5}, std::vector<double>{0, 2},
        std::vector<double>{3, 0, 1, 41, 0, 0, 2, 1, 8, 0, 0, 1, 7}}) {
    const WeightTree tree(weights);
    double total = 0;
    for (const double w : weights) total += w;
    ASSERT_EQ(tree.total(), total);
    for (double sum = 0; sum <= total + 2; sum += 1) {
      for (const double point : {sum, std::nextafter(sum, -1.0),
                                 std::nextafter(sum, total + 9),
                                 sum + 0.5}) {
        if (point < 0) continue;
        EXPECT_EQ(tree.find(point), linear_find(weights, point))
            << "point " << point << " of " << total;
      }
    }
  }
}

TEST(WeightTree, DrawsMatchWeightedIndexAcrossUpdates) {
  // The same stream drawn through the tree and through weighted_index
  // picks the same index every time while the picked weight grows, as in
  // the synthesizer's stub loop, and consumes the same number of values.
  Rng init{5};
  std::vector<double> weights(300);
  for (double& w : weights) w = 1.0 + static_cast<double>(init.next_below(40));
  WeightTree tree(weights);
  Rng a{99};
  Rng b{99};
  for (int i = 0; i < 20000; ++i) {
    const std::size_t index = tree.draw(a);
    ASSERT_EQ(index, b.weighted_index(weights)) << "draw " << i;
    tree.add(index, 1.0);
    weights[index] += 1.0;
  }
  EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng{19};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent{23};
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(MixFunctions, HashCombineSpreads) {
  // Different argument orders should give different hashes.
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_NE(mix64(0), mix64(1));
}

TEST(Rng, OnePlusExponentialAtLeastOne) {
  Rng rng{29};
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(rng.one_plus_exponential(0.7), 1u);
    EXPECT_EQ(rng.one_plus_exponential(0.0), 1u);
  }
}

}  // namespace
}  // namespace spooftrack::util
