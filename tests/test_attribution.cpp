#include "core/attribution.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "oracles.hpp"

namespace spooftrack::core {
namespace {

Clustering make_clustering(std::vector<std::uint32_t> ids,
                           std::uint32_t count) {
  Clustering clustering;
  clustering.cluster_of = std::move(ids);
  clustering.cluster_count = count;
  return clustering;
}

TEST(TrafficBySize, CumulativeVolumeMonotone) {
  // 5 sources: clusters {0,1}, {2}, {3,4} -> sizes 2,1,2.
  const auto clustering = make_clustering({0, 0, 1, 2, 2}, 3);
  const std::vector<double> volume = {0.1, 0.1, 0.5, 0.15, 0.15};
  const auto result = traffic_by_cluster_size(clustering, volume);
  ASSERT_EQ(result.cluster_size.size(), 2u);  // sizes 1 and 2
  EXPECT_EQ(result.cluster_size[0], 1u);
  EXPECT_NEAR(result.cumulative_volume[0], 0.5, 1e-9);
  EXPECT_EQ(result.cluster_size[1], 2u);
  EXPECT_NEAR(result.cumulative_volume[1], 1.0, 1e-9);
}

TEST(TrafficBySize, SingletonClustersCaptureAllVolume) {
  const auto clustering = make_clustering({0, 1, 2}, 3);
  const std::vector<double> volume = {0.2, 0.3, 0.5};
  const auto result = traffic_by_cluster_size(clustering, volume);
  ASSERT_EQ(result.cluster_size.size(), 1u);
  EXPECT_EQ(result.cluster_size[0], 1u);
  EXPECT_NEAR(result.cumulative_volume[0], 1.0, 1e-9);
}

TEST(TrafficBySize, SizeMismatchThrows) {
  const auto clustering = make_clustering({0, 0}, 1);
  EXPECT_THROW(traffic_by_cluster_size(clustering, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(AttributeClusters, RanksTrueClusterFirst) {
  // Two configs, three sources in three singleton clusters.
  // Source 1 is the attacker: volumes concentrate on its catchment link.
  const auto matrix = test::store_of({
      {0, 1, 1},
      {0, 0, 1},
  });
  const auto clustering = make_clustering({0, 1, 2}, 3);
  // Observed per-link volumes: all traffic follows source 1's trajectory
  // (link 1 in config 0, link 0 in config 1).
  const std::vector<std::vector<double>> volumes = {
      {0.0, 1.0},
      {1.0, 0.0},
  };
  const auto result = attribute_clusters(matrix, clustering, volumes);
  ASSERT_EQ(result.ranking.size(), 3u);
  EXPECT_EQ(result.ranking.front(), 1u);
  EXPECT_GT(result.score[1], result.score[0]);
  EXPECT_GT(result.score[1], result.score[2]);
}

TEST(AttributeClusters, SharedTrajectoryTies) {
  // Sources 0 and 1 always share catchments -> same cluster; the cluster's
  // score uses one representative and is well-defined.
  const auto matrix = test::store_of({
      {0, 0, 1},
  });
  const auto clustering = cluster_sources(matrix);
  ASSERT_EQ(clustering.cluster_count, 2u);
  const std::vector<std::vector<double>> volumes = {{0.9, 0.1}};
  const auto result = attribute_clusters(matrix, clustering, volumes);
  EXPECT_EQ(result.ranking.front(), clustering.cluster_of[0]);
}

TEST(AttributeClusters, ConfigCountMismatchThrows) {
  const auto matrix = test::store_of({{0, 1}});
  const auto clustering = make_clustering({0, 1}, 2);
  EXPECT_THROW(attribute_clusters(matrix, clustering, {}),
               std::invalid_argument);
}

TEST(AttributeClusters, MissingCatchmentPenalised) {
  const auto matrix = test::store_of({
      {0, bgp::kNoCatchment},
  });
  const auto clustering = make_clustering({0, 1}, 2);
  const std::vector<std::vector<double>> volumes = {{1.0, 0.0}};
  const auto result = attribute_clusters(matrix, clustering, volumes);
  EXPECT_GT(result.score[0], result.score[1]);
}

TEST(AttributeMixture, RecoversTwoSourceDecomposition) {
  // Three singleton clusters with distinguishable trajectories; clusters 0
  // and 2 emit 70% / 30% of the traffic.
  const auto matrix = test::store_of({
      {0, 1, 1},
      {0, 0, 1},
      {1, 0, 0},
  });
  const auto clustering = make_clustering({0, 1, 2}, 3);
  // Observed volumes = 0.7 * trajectory(cluster0) + 0.3 * trajectory(c2).
  const std::vector<std::vector<double>> volumes = {
      {0.7, 0.3},
      {0.7, 0.3},
      {0.3, 0.7},
  };
  const auto result = attribute_mixture(matrix, clustering, volumes);
  ASSERT_EQ(result.components.size(), 2u);
  EXPECT_EQ(result.components[0].cluster, 0u);
  EXPECT_NEAR(result.components[0].weight, 0.7, 1e-9);
  EXPECT_EQ(result.components[1].cluster, 2u);
  EXPECT_NEAR(result.components[1].weight, 0.3, 1e-9);
  EXPECT_NEAR(result.residual_fraction, 0.0, 1e-9);
}

TEST(AttributeMixture, InnocentClustersGetNoWeight) {
  // Cluster 1's trajectory hits a zero-volume link in config 1, so its
  // consistent weight is zero.
  const auto matrix = test::store_of({
      {0, 1},
      {0, 1},
  });
  const auto clustering = make_clustering({0, 1}, 2);
  const std::vector<std::vector<double>> volumes = {
      {1.0, 0.0},
      {1.0, 0.0},
  };
  const auto result = attribute_mixture(matrix, clustering, volumes);
  ASSERT_EQ(result.components.size(), 1u);
  EXPECT_EQ(result.components[0].cluster, 0u);
  EXPECT_NEAR(result.components[0].weight, 1.0, 1e-9);
}

TEST(AttributeMixture, MinWeightAndComponentCaps) {
  const auto matrix = test::store_of({
      {0, 1, 1},
  });
  const auto clustering = make_clustering({0, 1, 2}, 3);
  const std::vector<std::vector<double>> volumes = {{0.9, 0.1}};
  // With a high threshold only the dominant component survives.
  const auto strict = attribute_mixture(matrix, clustering, volumes, 0.5);
  EXPECT_EQ(strict.components.size(), 1u);
  // With max_components = 0 nothing is extracted.
  const auto none = attribute_mixture(matrix, clustering, volumes, 0.01, 0);
  EXPECT_TRUE(none.components.empty());
  EXPECT_NEAR(none.residual_fraction, 1.0, 1e-9);
}

TEST(AttributeMixture, VolumesNeedNotBeNormalised) {
  const auto matrix = test::store_of({
      {0, 1},
  });
  const auto clustering = make_clustering({0, 1}, 2);
  // Raw packet counts instead of fractions.
  const std::vector<std::vector<double>> volumes = {{300.0, 100.0}};
  const auto result = attribute_mixture(matrix, clustering, volumes);
  ASSERT_EQ(result.components.size(), 2u);
  EXPECT_NEAR(result.components[0].weight, 0.75, 1e-9);
  EXPECT_NEAR(result.components[1].weight, 0.25, 1e-9);
}

TEST(AttributeMixture, MismatchThrows) {
  const auto clustering = make_clustering({0}, 1);
  const auto matrix = test::store_of({{0}});
  EXPECT_THROW(attribute_mixture(matrix, clustering, {}),
               std::invalid_argument);
}

TEST(AttributeMixture, RejectsNanQuantile) {
  const auto matrix = test::store_of({{0, 1}});
  const auto clustering = make_clustering({0, 1}, 2);
  const std::vector<std::vector<double>> volumes = {{0.5, 0.5}};
  EXPECT_THROW(attribute_mixture(matrix, clustering, volumes, 0.02, 16,
                                 std::nan("")),
               std::invalid_argument);
}

// Random stores and attacks: a few planted sources at random rates plus
// background noise on random links, some configurations empty. Every
// quantile's decomposition must equal the sorting oracle's exactly.
TEST(AttributeMixture, MatchesLegacyOnRandomStores) {
  constexpr std::size_t kLinks = 7;  // test::random_matrix's link range
  const std::vector<double> quantiles{0.0, 0.1, 0.37, 1.0};
  std::vector<std::size_t> extracted(quantiles.size(), 0);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto rows = test::random_matrix(40 + seed * 5, 60 + seed * 7, seed);
    const auto matrix = test::store_of(rows);
    const auto clustering = cluster_sources(matrix);
    util::Rng rng(seed * 977);
    std::vector<std::vector<double>> volumes(
        rows.size(), std::vector<double>(kLinks, 0.0));
    // Attackers come from the sources routed in every configuration, so
    // that a zero quantile (the minimum) can attribute them too.
    std::vector<std::size_t> routed;
    for (std::size_t source = 0; source < rows.front().size(); ++source) {
      if (std::none_of(rows.begin(), rows.end(), [&](const auto& row) {
            return row[source] == bgp::kNoCatchment;
          })) {
        routed.push_back(source);
      }
    }
    ASSERT_FALSE(routed.empty());
    const std::size_t attackers = 1 + rng.next_below(4);
    for (std::size_t a = 0; a < attackers; ++a) {
      const std::size_t source = routed[rng.next_below(routed.size())];
      const double rate = rng.uniform(1.0, 100.0);
      for (std::size_t c = 0; c < rows.size(); ++c) {
        volumes[c][rows[c][source]] += rate;
      }
    }
    for (auto& per_link : volumes) {
      if (seed % 3 == 0 && rng.chance(0.05)) {
        std::fill(per_link.begin(), per_link.end(), 0.0);
        continue;
      }
      for (double& v : per_link) {
        if (rng.chance(0.3)) v += rng.uniform(0.0, 20.0);
      }
    }
    for (std::size_t q = 0; q < quantiles.size(); ++q) {
      const double quantile = quantiles[q];
      for (const double min_weight : {0.02, 0.001}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " quantile "
                                        << quantile << " min_weight "
                                        << min_weight);
        const auto got = attribute_mixture(matrix, clustering, volumes,
                                           min_weight, 16, quantile);
        const auto want = test::legacy_mixture(matrix, clustering, volumes,
                                               min_weight, 16, quantile);
        ASSERT_EQ(got.components.size(), want.components.size());
        for (std::size_t i = 0; i < got.components.size(); ++i) {
          EXPECT_EQ(got.components[i].cluster, want.components[i].cluster);
          EXPECT_EQ(got.components[i].weight, want.components[i].weight);
        }
        EXPECT_EQ(got.residual_fraction, want.residual_fraction);
        extracted[q] += got.components.size();
      }
    }
  }
  for (std::size_t q = 0; q < quantiles.size(); ++q) {
    EXPECT_GT(extracted[q], 0u) << "quantile " << quantiles[q];
  }
}

}  // namespace
}  // namespace spooftrack::core
