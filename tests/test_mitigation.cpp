#include "core/mitigation.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace spooftrack::core {
namespace {

/// Three singleton clusters over three sources (AsIds 0, 1, 2 in a tiny
/// graph), live catchments 0/1/1, attack weight concentrated on cluster 0.
struct MitigationWorld {
  MitigationWorld() {
    graph.add_p2c(100, 1);
    graph.add_p2c(100, 2);
    graph.add_p2c(100, 3);
    graph.freeze();
    sources = {*graph.id_of(1), *graph.id_of(2), *graph.id_of(3)};

    clustering.cluster_of = {0, 1, 2};
    clustering.cluster_count = 3;

    live = bgp::CatchmentMap(graph.size());
    live.set(sources[0], 0);
    live.set(sources[1], 1);
    live.set(sources[2], 1);

    mixture.components = {{0, 0.7}, {1, 0.2}};
    mixture.residual_fraction = 0.1;
  }

  topology::AsGraph graph;
  std::vector<topology::AsId> sources;
  Clustering clustering;
  bgp::CatchmentMap live;
  MixtureResult mixture;
};

TEST(Mitigation, BlackholesQuietLinksFiltersBusyOnes) {
  MitigationWorld world;
  // Link 0 carries almost no legitimate traffic; link 1 carries most.
  const std::vector<double> legit = {0.02, 0.98};
  const auto plan =
      plan_mitigation(world.mixture, world.clustering, world.sources,
                      world.graph, world.live, legit);

  ASSERT_EQ(plan.actions.size(), 2u);
  EXPECT_EQ(plan.actions[0].kind, MitigationKind::kBlackhole);
  EXPECT_EQ(plan.actions[0].link, 0u);
  EXPECT_EQ(plan.actions[0].suspects, (std::vector<topology::Asn>{1}));
  EXPECT_NEAR(plan.actions[0].collateral_share, 0.02, 1e-9);

  EXPECT_EQ(plan.actions[1].kind, MitigationKind::kFlowspecFilter);
  EXPECT_EQ(plan.actions[1].link, 1u);
  EXPECT_EQ(plan.actions[1].suspects, (std::vector<topology::Asn>{2}));

  EXPECT_NEAR(plan.covered_weight, 0.9, 1e-9);
  EXPECT_NEAR(plan.unattributed, 0.1, 1e-9);
}

TEST(Mitigation, ThresholdIsConfigurable) {
  MitigationWorld world;
  const std::vector<double> legit = {0.02, 0.98};
  MitigationOptions options;
  options.blackhole_collateral_threshold = 0.0;  // never blackhole
  const auto plan =
      plan_mitigation(world.mixture, world.clustering, world.sources,
                      world.graph, world.live, legit, options);
  for (const auto& action : plan.actions) {
    EXPECT_EQ(action.kind, MitigationKind::kFlowspecFilter);
  }
}

TEST(Mitigation, MaxActionsCap) {
  MitigationWorld world;
  MitigationOptions options;
  options.max_actions = 1;
  const auto plan =
      plan_mitigation(world.mixture, world.clustering, world.sources,
                      world.graph, world.live, {0.5, 0.5}, options);
  ASSERT_EQ(plan.actions.size(), 1u);
  EXPECT_EQ(plan.actions[0].cluster, 0u);  // highest weight first
  EXPECT_NEAR(plan.covered_weight, 0.7, 1e-9);
}

TEST(Mitigation, UnroutedClustersAreSkipped) {
  MitigationWorld world;
  // Cluster 0's only member has no live catchment.
  world.live.set(world.sources[0], bgp::kNoCatchment);
  const auto plan =
      plan_mitigation(world.mixture, world.clustering, world.sources,
                      world.graph, world.live, {0.5, 0.5});
  ASSERT_EQ(plan.actions.size(), 1u);
  EXPECT_EQ(plan.actions[0].cluster, 1u);
}

TEST(Mitigation, ZeroLegitTrafficMeansZeroCollateral) {
  MitigationWorld world;
  const auto plan =
      plan_mitigation(world.mixture, world.clustering, world.sources,
                      world.graph, world.live, {0.0, 0.0});
  for (const auto& action : plan.actions) {
    EXPECT_EQ(action.collateral_share, 0.0);
    EXPECT_EQ(action.kind, MitigationKind::kBlackhole);
  }
}

TEST(Mitigation, DescribeMentionsSuspects) {
  MitigationWorld world;
  const auto plan =
      plan_mitigation(world.mixture, world.clustering, world.sources,
                      world.graph, world.live, {0.02, 0.98});
  const auto text = plan.actions[0].describe();
  EXPECT_NE(text.find("blackhole"), std::string::npos);
  EXPECT_NE(text.find("AS1"), std::string::npos);
}

TEST(Mitigation, KindNames) {
  EXPECT_STREQ(to_string(MitigationKind::kBlackhole), "blackhole");
  EXPECT_STREQ(to_string(MitigationKind::kFlowspecFilter),
               "flowspec-filter");
}

}  // namespace
}  // namespace spooftrack::core
