#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/cluster.hpp"
#include "oracles.hpp"

namespace spooftrack::core {
namespace {

/// Matrix where config i splits sources by bit i: each config halves the
/// remaining clusters (8 sources, 3 perfectly informative configs).
measure::CatchmentStore bit_matrix() {
  measure::CatchmentStore matrix(3, 8);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t s = 0; s < 8; ++s) {
      matrix.set(c, s, static_cast<bgp::LinkId>((s >> c) & 1));
    }
  }
  return matrix;
}

/// Matrix with one informative config (index 2) and redundant ones.
measure::CatchmentStore skewed_matrix() {
  return test::store_of({
      {0, 0, 0, 0, 0, 0},  // useless
      {0, 0, 0, 1, 1, 1},  // splits in half
      {0, 1, 2, 3, 4, 5},  // fully separates
      {0, 0, 0, 0, 0, 1},  // weak
  });
}

TEST(RandomSchedule, UsesEveryConfigOnce) {
  util::Rng rng{5};
  const auto matrix = bit_matrix();
  const auto trace = random_schedule(matrix, rng);
  ASSERT_EQ(trace.order.size(), 3u);
  auto sorted = trace.order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2}));
  // All three bits fully separate 8 sources.
  EXPECT_DOUBLE_EQ(trace.mean_cluster_size.back(), 1.0);
  // Mean sizes are non-increasing.
  for (std::size_t i = 1; i < trace.mean_cluster_size.size(); ++i) {
    EXPECT_LE(trace.mean_cluster_size[i], trace.mean_cluster_size[i - 1]);
  }
}

TEST(GreedySchedule, PicksMostInformativeFirst) {
  const auto matrix = skewed_matrix();
  const auto trace = greedy_schedule(matrix);
  ASSERT_FALSE(trace.order.empty());
  EXPECT_EQ(trace.order.front(), 2u);  // the fully-separating config
  EXPECT_DOUBLE_EQ(trace.mean_cluster_size.front(), 1.0);
}

TEST(GreedySchedule, StepLimitRespected) {
  const auto matrix = bit_matrix();
  const auto trace = greedy_schedule(matrix, 2);
  EXPECT_EQ(trace.order.size(), 2u);
  EXPECT_EQ(trace.mean_cluster_size.size(), 2u);
}

TEST(GreedySchedule, NeverWorseThanRandomAtEachStep) {
  const auto matrix = skewed_matrix();
  const auto greedy = greedy_schedule(matrix);
  util::Rng rng{11};
  for (int trial = 0; trial < 20; ++trial) {
    const auto random = random_schedule(matrix, rng);
    for (std::size_t k = 0; k < greedy.mean_cluster_size.size(); ++k) {
      EXPECT_LE(greedy.mean_cluster_size[k], random.mean_cluster_size[k] + 1e-9)
          << "greedy beaten at step " << k;
    }
  }
}

TEST(RandomEnsemble, PercentilesOrdered) {
  const auto matrix = skewed_matrix();
  const auto ensemble = random_ensemble(matrix, 50, 42);
  ASSERT_EQ(ensemble.p50.size(), matrix.size());
  for (std::size_t k = 0; k < ensemble.p50.size(); ++k) {
    EXPECT_LE(ensemble.p25[k], ensemble.p50[k]);
    EXPECT_LE(ensemble.p50[k], ensemble.p75[k]);
  }
  // After all configs everything converges to the full refinement.
  EXPECT_DOUBLE_EQ(ensemble.p25.back(), ensemble.p75.back());
}

TEST(RandomEnsemble, MaxStepsTruncates) {
  const auto matrix = skewed_matrix();
  const auto ensemble = random_ensemble(matrix, 10, 1, 2);
  EXPECT_EQ(ensemble.p50.size(), 2u);
}

TEST(RandomEnsemble, DeterministicForSeed) {
  const auto matrix = skewed_matrix();
  const auto a = random_ensemble(matrix, 20, 9);
  const auto b = random_ensemble(matrix, 20, 9);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p25, b.p25);
}

TEST(WeightedGreedy, ChasesTheHeavyCluster) {
  // Config 0 splits the heavy source's cluster; config 1 splits a light
  // cluster into many pieces. Plain greedy prefers config 1 (more
  // clusters); weighted greedy must prefer config 0.
  const auto matrix = test::store_of({
      //  v--heavy
      {0, 1, 0, 0, 0, 0},  // isolates source 1 (heavy)
      {0, 0, 1, 2, 3, 4},  // shatters the light sources
  });
  std::vector<double> volume = {0.0, 1.0, 0.0, 0.0, 0.0, 0.0};

  const auto plain = greedy_schedule(matrix, 1);
  ASSERT_EQ(plain.order.size(), 1u);
  EXPECT_EQ(plain.order[0], 1u);

  const auto weighted = weighted_greedy_schedule(matrix, volume, 1);
  ASSERT_EQ(weighted.order.size(), 1u);
  EXPECT_EQ(weighted.order[0], 0u);
  // After isolating the heavy source its weighted cluster size is 1.
  EXPECT_DOUBLE_EQ(weighted.mean_cluster_size[0], 1.0);
}

TEST(WeightedGreedy, ObjectiveIsMonotoneNonIncreasing) {
  const auto matrix = test::store_of({
      {0, 0, 1, 1, 2, 2, 0, 1},
      {0, 1, 1, 0, 2, 0, 0, 1},
      {2, 2, 2, 2, 2, 2, 0, 0},
  });
  std::vector<double> volume = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto trace = weighted_greedy_schedule(matrix, volume);
  for (std::size_t i = 1; i < trace.mean_cluster_size.size(); ++i) {
    EXPECT_LE(trace.mean_cluster_size[i],
              trace.mean_cluster_size[i - 1] + 1e-9);
  }
}

TEST(WeightedGreedy, UniformWeightsMatchPlainObjective) {
  // With equal volumes the weighted objective is sum |c|^2 / S — not the
  // same argmin as cluster count in general, but its reported value after
  // refining everything must equal the expected cluster size of a random
  // member, computed independently.
  const auto matrix = test::store_of({{0, 0, 1, 1, 1, 2}});
  const std::vector<double> volume(6, 1.0);
  const auto trace = weighted_greedy_schedule(matrix, volume, 1);
  // Clusters {2}{3}{1}: objective = (4 + 9 + 1) / 6.
  EXPECT_NEAR(trace.mean_cluster_size[0], 14.0 / 6.0, 1e-9);
}

TEST(WeightedGreedy, RejectsMismatchedVolumes) {
  const auto matrix = test::store_of({{0, 1}});
  EXPECT_THROW(weighted_greedy_schedule(matrix, {1.0}),
               std::invalid_argument);
}

TEST(Schedules, EmptyMatrixHandled) {
  const measure::CatchmentStore empty;
  util::Rng rng{1};
  EXPECT_TRUE(random_schedule(empty, rng).order.empty());
  EXPECT_TRUE(greedy_schedule(empty).order.empty());
  EXPECT_TRUE(weighted_greedy_schedule(empty, {}).order.empty());
  EXPECT_EQ(random_ensemble(empty, 5, 1).p50.size(), 0u);
}

}  // namespace
}  // namespace spooftrack::core
