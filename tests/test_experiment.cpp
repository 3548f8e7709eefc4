// Integration tests of the PeeringTestbed harness on a reduced topology.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "topology/metrics.hpp"

namespace spooftrack::core {
namespace {

TestbedConfig small_testbed() {
  TestbedConfig config;
  config.seed = 11;
  config.tier1_count = 5;
  config.transit_count = 40;
  config.stub_count = 400;
  config.probe_count = 150;
  config.feed.peer_count = 60;
  return config;
}

class TestbedTest : public ::testing::Test {
 protected:
  TestbedTest() : testbed_(small_testbed()) {}
  PeeringTestbed testbed_;
};

TEST(Table1, MatchesThePaper) {
  const auto muxes = table1_muxes();
  ASSERT_EQ(muxes.size(), 7u);
  EXPECT_STREQ(muxes[0].mux, "AMS-IX");
  EXPECT_EQ(muxes[0].provider_asn, 12859u);
  EXPECT_STREQ(muxes[5].provider_name, "RNP");
  EXPECT_EQ(muxes[6].provider_asn, 101u);
}

TEST_F(TestbedTest, BuildsSevenLinkOrigin) {
  EXPECT_EQ(testbed_.origin().links.size(), 7u);
  EXPECT_EQ(testbed_.origin().asn, kPeeringAsn);
  EXPECT_TRUE(testbed_.graph().contains(kPeeringAsn));
  // Every Table I provider is present and is a provider of the origin.
  for (const auto& mux : table1_muxes()) {
    const auto provider = testbed_.graph().id_of(mux.provider_asn);
    ASSERT_TRUE(provider.has_value()) << mux.provider_name;
    EXPECT_EQ(testbed_.graph().relationship(testbed_.origin_id(), *provider),
              topology::Rel::kProvider);
  }
}

TEST_F(TestbedTest, TopologyIsSound) {
  EXPECT_TRUE(topology::p2c_acyclic(testbed_.graph()));
  EXPECT_TRUE(topology::connected(testbed_.graph()));
  EXPECT_FALSE(testbed_.probe_ases().empty());
}

TEST_F(TestbedTest, RouteRunsSingleConfig) {
  auto configs = testbed_.generator().location_phase();
  const auto outcome = testbed_.route(configs.front());
  EXPECT_TRUE(outcome.converged);
}

TEST_F(TestbedTest, DeployGroundTruthPipeline) {
  TestbedConfig config = small_testbed();
  config.measured_catchments = false;
  const PeeringTestbed testbed(config);

  GeneratorOptions gen_options;
  gen_options.max_removals = 1;  // 1 + 7 = 8 location configs
  auto configs = testbed.generator(gen_options).location_phase();
  const auto result = testbed.deploy(configs);

  ASSERT_EQ(result.truth.size(), 8u);
  EXPECT_TRUE(result.measured.empty());
  // Ground-truth sources: every AS except the origin (all are routed).
  EXPECT_EQ(result.sources.size(), testbed.graph().size() - 1);
  ASSERT_EQ(result.matrix.size(), 8u);
  // Matrix rows match truth catchments.
  for (std::size_t s = 0; s < result.sources.size(); ++s) {
    EXPECT_EQ(result.matrix.link_at(0, s),
              result.truth[0][result.sources[s]]);
  }
  // Refining over the location phase produces multiple clusters.
  const auto clustering = cluster_sources(result.matrix);
  EXPECT_GT(clustering.cluster_count, 7u);
}

TEST_F(TestbedTest, DeployMeasuredPipeline) {
  GeneratorOptions gen_options;
  gen_options.max_removals = 1;
  auto configs = testbed_.generator(gen_options).location_phase();
  const auto result = testbed_.deploy(configs);

  ASSERT_EQ(result.measured.size(), 8u);
  EXPECT_FALSE(result.sources.empty());
  EXPECT_GT(result.mean_coverage, 0.0);

  // Measured catchments should agree with ground truth for the huge
  // majority of baseline sources in the all-links configuration.
  std::size_t agree = 0, resolved = 0;
  for (std::size_t s = 0; s < result.sources.size(); ++s) {
    const auto truth = result.truth[0][result.sources[s]];
    const bgp::LinkId measured = result.matrix.link_at(0, s);
    if (measured == bgp::kNoCatchment) continue;
    ++resolved;
    agree += measured == truth;
  }
  ASSERT_GT(resolved, 0u);
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(resolved), 0.9);
}

TEST_F(TestbedTest, DistancesPopulated) {
  // A clean policy (no tiebreak violators) so providers take the direct
  // customer route from the origin.
  TestbedConfig config = small_testbed();
  config.policy.shortest_violator_fraction = 0.0;
  config.policy.peer_provider_swap_fraction = 0.0;
  config.measured_catchments = false;
  const PeeringTestbed testbed(config);

  auto configs = testbed.generator().location_phase();
  configs.resize(1);
  const auto result = testbed.deploy(configs);
  // Providers sit 1 AS-hop from the origin's announcement.
  for (const auto& mux : table1_muxes()) {
    const auto id = *testbed.graph().id_of(mux.provider_asn);
    EXPECT_EQ(result.min_route_distance[id], 1u) << mux.provider_name;
  }
  // Everything routed has a finite distance.
  std::size_t finite = 0;
  for (auto d : result.min_route_distance) {
    finite += d != topology::kUnreachable;
  }
  EXPECT_EQ(finite, testbed.graph().size() - 1);
}

TEST_F(TestbedTest, AuditProducesPerConfigStats) {
  TestbedConfig config = small_testbed();
  config.measured_catchments = false;
  config.audit_policies = true;
  const PeeringTestbed testbed(config);
  auto configs = testbed.generator().location_phase();
  configs.resize(3);
  const auto result = testbed.deploy(configs);
  ASSERT_EQ(result.compliance.size(), 3u);
  for (const auto& stats : result.compliance) {
    EXPECT_GT(stats.audited, 0u);
    // Violators exist (default policy fractions), so compliance is high
    // but typically below 1; it must never exceed 1.
    EXPECT_LE(stats.both_fraction(), 1.0);
    EXPECT_GE(stats.best_relationship_fraction(), 0.8);
    EXPECT_GE(stats.best_relationship_fraction(), stats.both_fraction());
  }
}

TEST_F(TestbedTest, DeterministicDeployments) {
  auto configs = testbed_.generator().location_phase();
  configs.resize(2);
  const PeeringTestbed other(small_testbed());
  const auto a = testbed_.deploy(configs);
  const auto b = other.deploy(configs);
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.matrix, b.matrix);
}

/// A testbed whose measurements have every noise source switched off: no
/// unresponsive hops or silent ASes, no border interfaces numbered from the
/// neighbour's space, a complete IP-to-AS database and no IXPs.
TestbedConfig noiseless_testbed(std::uint64_t seed) {
  TestbedConfig config;
  config.seed = seed;
  config.tier1_count = 8;
  config.transit_count = 40;
  config.stub_count = 600;
  config.probe_count = 150;
  config.traceroute_rounds = 2;
  config.traceroute.hop_unresponsive_prob = 0.0;
  config.traceroute.as_silent_prob = 0.0;
  config.traceroute.border_foreign_addr_prob = 0.0;
  config.ip2as.missing_fraction = 0.0;
  config.ixp_count = 0;
  return config;
}

struct CellTally {
  std::size_t observed = 0;  // measured cells naming a catchment
  std::size_t wrong = 0;     // of those, cells the ground truth contradicts
};

/// Deploys the paper's full plan on `config` and checks every measured
/// cell against the routing engine's ground truth.
CellTally tally_measured_cells(const TestbedConfig& config) {
  const PeeringTestbed testbed(config);
  const auto result =
      testbed.deploy(testbed.generator().full_plan(testbed.graph()));
  EXPECT_EQ(result.configs.size(), 705u);
  EXPECT_EQ(result.measured.size(), result.truth.size());
  CellTally tally;
  for (std::size_t i = 0; i < result.measured.size(); ++i) {
    const auto& measured = result.measured[i].catchments;
    for (topology::AsId as = 0; as < measured.size(); ++as) {
      if (measured[as] == bgp::kNoCatchment) continue;
      ++tally.observed;
      tally.wrong += measured[as] != result.truth[i][as];
    }
  }
  return tally;
}

TEST(MeasurementOracle, NoiselessCellsMatchGroundTruth) {
  // With no noise, every AS a traceroute observes maps to its own AS and
  // enters the experiment prefix on the link routing chose: a measured
  // catchment is either missing or the true one.
  for (const std::uint64_t seed : {42u, 7u, 1u}) {
    const auto tally = tally_measured_cells(noiseless_testbed(seed));
    EXPECT_GT(tally.observed, 100000u) << "seed " << seed;
    EXPECT_EQ(tally.wrong, 0u) << "seed " << seed;
  }
}

TEST(MeasurementOracle, ForeignBorderAddressesMakeCellsWrong) {
  // The control: border interfaces numbered from the neighbour's space
  // (the default share) make some measured cells wrong, so the oracle
  // above can fail.
  TestbedConfig config = noiseless_testbed(42);
  config.traceroute.border_foreign_addr_prob = 0.35;
  const auto tally = tally_measured_cells(config);
  EXPECT_GT(tally.observed, 100000u);
  EXPECT_GT(tally.wrong, 0u);
}

}  // namespace
}  // namespace spooftrack::core
