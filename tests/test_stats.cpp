#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace spooftrack::util {
namespace {

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(mean_u32({}), 0.0);
}

TEST(Stats, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean_u32({2, 4}), 3.0);
}

TEST(Stats, PercentileNearestRank) {
  std::vector<double> v{15, 20, 35, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(v, 5), 15);
  EXPECT_DOUBLE_EQ(percentile(v, 30), 20);
  EXPECT_DOUBLE_EQ(percentile(v, 40), 20);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 35);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 50);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 15);
}

TEST(Stats, PercentileClampsQuantile) {
  std::vector<double> v{1, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, -10), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 500), 3);
  EXPECT_DOUBLE_EQ(percentile(v, std::nan("")), 1);
  EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(Stats, CdfReachesOne) {
  const auto points = cdf({1, 1, 2, 3});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].x, 1);
  EXPECT_DOUBLE_EQ(points[0].y, 0.5);
  EXPECT_DOUBLE_EQ(points[2].y, 1.0);
}

TEST(Stats, CcdfStartsAtOne) {
  const auto points = ccdf({1, 1, 2, 3});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].x, 1);
  EXPECT_DOUBLE_EQ(points[0].y, 1.0);   // P[X >= 1]
  EXPECT_DOUBLE_EQ(points[1].y, 0.5);   // P[X >= 2]
  EXPECT_DOUBLE_EQ(points[2].y, 0.25);  // P[X >= 3]
}

TEST(Stats, EmptyDistributions) {
  EXPECT_TRUE(cdf({}).empty());
  EXPECT_TRUE(ccdf({}).empty());
}

TEST(Stats, AccumulatorTracksMinMaxMean) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  acc.add(3);
  acc.add(-1);
  acc.add(4);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
  EXPECT_DOUBLE_EQ(acc.min(), -1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 6.0);
}

TEST(Stats, HistogramCumulativeAndComplementary) {
  Histogram h;
  h.add(1, 3);
  h.add(2);
  h.add(5, 2);
  h.add(1);  // merges with the earlier bucket
  EXPECT_EQ(h.total(), 7u);
  EXPECT_DOUBLE_EQ(h.cumulative_at(1), 4.0 / 7.0);
  EXPECT_DOUBLE_EQ(h.cumulative_at(4), 5.0 / 7.0);
  EXPECT_DOUBLE_EQ(h.complementary_at(2), 3.0 / 7.0);
  EXPECT_DOUBLE_EQ(h.complementary_at(6), 0.0);
  EXPECT_EQ(h.values(), (std::vector<std::uint64_t>{1, 2, 5}));
}

TEST(Stats, HistogramEmpty) {
  Histogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.cumulative_at(10), 0.0);
  EXPECT_EQ(h.complementary_at(0), 0.0);
}

}  // namespace
}  // namespace spooftrack::util
