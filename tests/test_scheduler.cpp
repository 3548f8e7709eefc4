#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
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

/// greedy_schedule at workers {1, 2, 8} must equal the serial rescan of
/// tests/oracles.hpp in order and means.
void expect_matches_legacy(const measure::CatchmentStore& store,
                           std::size_t steps, const std::string& what) {
  const auto reference = test::legacy_greedy(test::rows_of(store), steps);
  for (const std::size_t workers : {1u, 2u, 8u}) {
    const auto trace = greedy_schedule(store, steps, workers);
    EXPECT_EQ(trace.order, reference.order)
        << what << ", steps " << steps << ", workers " << workers;
    EXPECT_EQ(trace.mean_cluster_size, reference.mean_cluster_size)
        << what << ", steps " << steps << ", workers " << workers;
  }
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

TEST(RandomSchedule, MatchesLegacyTracker) {
  // Each random order replayed through the reference refine of
  // tests/oracles.hpp must give the trace's mean at every step and end on
  // the full refinement. Apart from the skewed matrix, the shapes hold
  // about five sources per hidden group with per-cell noise, so every
  // order saturates the partition to (mostly) singletons long before its
  // last step; the source counts straddle 64-bit word boundaries.
  struct Shape {
    std::size_t configs, sources;
    std::uint64_t seed;
  };
  std::vector<std::pair<std::string, measure::CatchmentStore>> cases;
  cases.emplace_back("skewed", skewed_matrix());
  for (const Shape shape : {Shape{40, 13, 1}, Shape{60, 64, 2},
                            Shape{60, 203, 3}, Shape{80, 517, 4}}) {
    cases.emplace_back(std::to_string(shape.sources) + " sources",
                       test::store_of(test::random_matrix(
                           shape.configs, shape.sources, shape.seed)));
  }
  for (const auto& [what, store] : cases) {
    const auto rows = test::rows_of(store);
    const auto full = cluster_sources(store);
    util::Rng rng{store.sources()};
    for (int trial = 0; trial < 6; ++trial) {
      const auto trace = random_schedule(store, rng);
      ASSERT_EQ(trace.order.size(), store.configs()) << what;
      ASSERT_EQ(trace.mean_cluster_size.size(), store.configs()) << what;
      test::LegacyTracker legacy(store.sources());
      for (std::size_t k = 0; k < trace.order.size(); ++k) {
        legacy.refine(rows[trace.order[k]]);
        ASSERT_EQ(trace.mean_cluster_size[k], legacy.mean_cluster_size())
            << what << ", trial " << trial << ", step " << k;
      }
      EXPECT_EQ(legacy.cluster_of(), full.cluster_of) << what;
      EXPECT_EQ(legacy.cluster_count(), full.cluster_count) << what;
    }
    if (store.sources() > 8) {
      // Saturation: under 5% of the sources share a cluster at the end.
      EXPECT_LT(full.mean_size(), 1.05) << what;
    }
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

TEST(GreedySchedule, MatchesLegacyAfterTheLastSplit) {
  // Eight informative rows, then copies and coarsenings of them: no row
  // after the eighth can split what the first eight leave, so the
  // schedule stops splitting before the horizon. 5,000 sources make the
  // count updates of the first steps fan out over two chunks.
  auto rows = test::random_matrix(8, 5000, 5);
  for (std::size_t k = 0; k < 24; ++k) {
    auto row = rows[k % 8];
    if (k % 3 == 0) {
      for (auto& link : row) {
        if (link != bgp::kNoCatchment) link %= 2;
      }
    }
    rows.push_back(row);
  }
  const std::pair<const char*, measure::CatchmentStore> cases[] = {
      {"copies", test::store_of(rows)}, {"skewed", skewed_matrix()}};
  for (const auto& [what, store] : cases) {
    // The number of steps after which no winner splits a cluster.
    const auto full = test::legacy_greedy(test::rows_of(store), 0);
    const auto& means = full.mean_cluster_size;
    const auto stop = static_cast<std::size_t>(
        std::find(means.begin(), means.end(), means.back()) - means.begin() +
        1);
    ASSERT_LT(stop, store.configs()) << what;
    for (const std::size_t steps :
         {stop - 1, stop, stop + 1, store.configs(), store.configs() + 5}) {
      expect_matches_legacy(store, steps, what);
    }
  }
}

TEST(GreedySchedule, ZeroSourceStoreIsAscendingAtMeanZero) {
  // The artifact shape of a deploy that abandoned every configuration.
  const measure::CatchmentStore store(5, 0);
  const auto trace = greedy_schedule(store);
  EXPECT_EQ(trace.order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(trace.mean_cluster_size, std::vector<double>(5, 0.0));
  for (const std::size_t steps : {0u, 3u}) {
    expect_matches_legacy(store, steps, "zero sources");
  }
}

TEST(GreedySchedule, OneSourceStoreMatchesLegacy) {
  const auto store = test::store_of({{3}, {bgp::kNoCatchment}, {0}, {3}});
  for (const std::size_t steps : {0u, 2u}) {
    expect_matches_legacy(store, steps, "one source");
  }
}

TEST(GreedySchedule, MatchesLegacyOnMeasuredDeploy) {
  TestbedConfig config;
  config.seed = 11;
  config.tier1_count = 5;
  config.transit_count = 40;
  config.stub_count = 400;
  config.probe_count = 150;
  config.feed.peer_count = 60;
  const PeeringTestbed testbed(config);
  GeneratorOptions gen_options;
  gen_options.max_removals = 2;
  const auto result =
      testbed.deploy(testbed.generator(gen_options).location_phase());
  ASSERT_GT(result.matrix.configs(), 8u);
  ASSERT_GT(result.matrix.sources(), 100u);
  expect_matches_legacy(result.matrix, 0, "measured deploy");
}

TEST(GreedySchedule, InvalidCellsThrowAtEveryWorkerCount) {
  // CatchmentStore validates on ingest, so smuggle the bytes in through
  // the mutable buffer. A one-step schedule refines one row only, so the
  // initial count scan must catch the rest; 8,000 sources make that scan
  // fan out over two chunks.
  for (const std::uint8_t bad : {std::uint8_t{62}, std::uint8_t{0x80},
                                 std::uint8_t{0xFE}}) {
    for (const bool last_row : {false, true}) {
      auto store = test::store_of(test::random_matrix(20, 8000, 9));
      const std::size_t row = last_row ? store.configs() - 1 : 0;
      store.data()[row * store.sources() + 4321] = bad;
      for (const std::size_t steps : {1u, 0u}) {
        for (const std::size_t workers : {1u, 2u, 8u}) {
          EXPECT_THROW(greedy_schedule(store, steps, workers),
                       std::out_of_range)
              << "bad " << int{bad} << ", row " << row << ", steps "
              << steps << ", workers " << workers;
        }
      }
    }
  }
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
