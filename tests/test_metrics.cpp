#include "topology/metrics.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "helpers.hpp"
#include "measure/feed.hpp"
#include "oracles.hpp"
#include "topology/synth.hpp"

namespace spooftrack::topology {
namespace {

TEST(Metrics, HopDistancesFromOrigin) {
  const AsGraph g = test::small_topology();
  const AsId origin = *g.id_of(test::kOrigin);
  const AsId sources[] = {origin};
  const auto dist = hop_distances(g, sources);
  EXPECT_EQ(dist[origin], 0u);
  EXPECT_EQ(dist[*g.id_of(test::kP1)], 1u);
  EXPECT_EQ(dist[*g.id_of(test::kP2)], 1u);
  EXPECT_EQ(dist[*g.id_of(test::kA)], 2u);
  EXPECT_EQ(dist[*g.id_of(test::kT1)], 2u);
  EXPECT_EQ(dist[*g.id_of(test::kC)], 3u);
}

TEST(Metrics, MultiSourceBfsTakesClosest) {
  const AsGraph g = test::small_topology();
  const AsId sources[] = {*g.id_of(test::kA), *g.id_of(test::kB)};
  const auto dist = hop_distances(g, sources);
  EXPECT_EQ(dist[*g.id_of(test::kA)], 0u);
  EXPECT_EQ(dist[*g.id_of(test::kB)], 0u);
  EXPECT_EQ(dist[*g.id_of(test::kP1)], 1u);
  EXPECT_EQ(dist[*g.id_of(test::kP2)], 1u);
}

TEST(Metrics, UnreachableMarked) {
  AsGraph g;
  g.add_p2c(1, 2);
  g.add_as(99);  // isolated
  g.freeze();
  const AsId sources[] = {*g.id_of(1)};
  const auto dist = hop_distances(g, sources);
  EXPECT_EQ(dist[*g.id_of(99)], kUnreachable);
}

TEST(Metrics, AcyclicityDetection) {
  EXPECT_TRUE(p2c_acyclic(test::small_topology()));
  AsGraph cyclic;
  cyclic.add_p2c(1, 2);
  cyclic.add_p2c(2, 3);
  cyclic.add_p2c(3, 1);
  cyclic.freeze();
  EXPECT_FALSE(p2c_acyclic(cyclic));
}

TEST(Metrics, Connectivity) {
  EXPECT_TRUE(connected(test::small_topology()));
  AsGraph split;
  split.add_p2c(1, 2);
  split.add_p2c(3, 4);
  split.freeze();
  EXPECT_FALSE(connected(split));
  AsGraph empty;
  empty.freeze();
  EXPECT_TRUE(connected(empty));
}

TEST(Metrics, CustomerConesCountSetSemantics) {
  const AsGraph g = test::small_topology();
  const auto cones = customer_cone_sizes(g);
  // Stubs have cone 1 (just themselves).
  EXPECT_EQ(cones[*g.id_of(test::kA)], 1u);
  EXPECT_EQ(cones[*g.id_of(test::kOrigin)], 1u);
  // p1: {p1, a, d, origin} = 4.
  EXPECT_EQ(cones[*g.id_of(test::kP1)], 4u);
  // p2: {p2, b, d, origin} = 4.
  EXPECT_EQ(cones[*g.id_of(test::kP2)], 4u);
  // t1: {t1, p1, a, d, origin, c} = 6 — d counted once despite two paths.
  EXPECT_EQ(cones[*g.id_of(test::kT1)], 6u);
  // t2: {t2, p2, b, d, origin, e} = 6.
  EXPECT_EQ(cones[*g.id_of(test::kT2)], 6u);
}

TEST(Metrics, CustomerConesRejectCycles) {
  AsGraph cyclic;
  cyclic.add_p2c(1, 2);
  cyclic.add_p2c(2, 1);
  EXPECT_THROW(cyclic.freeze(), std::invalid_argument);

  AsGraph longer;
  longer.add_p2c(1, 2);
  longer.add_p2c(2, 3);
  longer.add_p2c(3, 1);
  longer.freeze();
  EXPECT_THROW(customer_cone_sizes(longer), std::invalid_argument);
}

TEST(Metrics, Tier1SetFindsClique) {
  const AsGraph g = test::small_topology();
  const auto tier1 = tier1_set(g);
  ASSERT_EQ(tier1.size(), 2u);
  std::vector<Asn> asns{g.asn_of(tier1[0]), g.asn_of(tier1[1])};
  std::sort(asns.begin(), asns.end());
  EXPECT_EQ(asns, (std::vector<Asn>{test::kT1, test::kT2}));
}

TEST(Metrics, Tier1SetOnSynth) {
  SynthConfig config;
  config.seed = 8;
  config.tier1_count = 5;
  config.transit_count = 20;
  config.stub_count = 100;
  const auto topo = synthesize(config);
  const auto tier1 = tier1_set(topo.graph);
  EXPECT_EQ(tier1.size(), topo.tier1.size());
}

/// Requires customer_cone_sizes, tier1_set and the feed's collector peers
/// to equal the bitset-DP oracles on `graph`.
void expect_matches_oracles(const AsGraph& graph) {
  EXPECT_EQ(customer_cone_sizes(graph), test::legacy_cone_sizes(graph));
  EXPECT_EQ(tier1_set(graph), test::legacy_tier1_set(graph));
  for (const double bias : {0.6, 1.0}) {
    for (const std::uint64_t seed : {17u, 5u}) {
      measure::FeedOptions options;
      options.large_cone_bias = bias;
      options.seed = seed;
      const measure::FeedSimulator feed(graph, options);
      EXPECT_EQ(feed.peers(), test::legacy_feed_peers(graph, options))
          << "bias " << bias << " seed " << seed;
    }
  }
}

TEST(Metrics, ConesTier1AndFeedPeersMatchOraclesOnHandBuiltGraphs) {
  {
    SCOPED_TRACE("small topology");
    expect_matches_oracles(test::small_topology());
  }
  {
    SCOPED_TRACE("provider-free isolated AS beside the clique");
    AsGraph g;
    g.add_p2p(1, 2);
    g.add_p2c(1, 3);
    g.add_p2c(2, 3);
    g.add_as(99);
    g.freeze();
    expect_matches_oracles(g);
  }
  {
    SCOPED_TRACE("provider-free peer without customers beside the clique");
    AsGraph g;
    g.add_p2p(1, 2);
    g.add_p2c(1, 3);
    g.add_p2c(2, 4);
    g.add_p2p(1, 99);
    g.freeze();
    expect_matches_oracles(g);
    EXPECT_EQ(tier1_set(g).size(), 2u);
  }
  {
    SCOPED_TRACE("provider-free ASes without customers");
    AsGraph g;
    g.add_p2p(1, 2);
    g.add_p2p(2, 3);
    g.freeze();
    expect_matches_oracles(g);
  }
  {
    SCOPED_TRACE("one provider-free AS");
    AsGraph g;
    g.add_p2c(1, 2);
    g.add_p2c(2, 3);
    g.add_p2c(1, 3);
    g.freeze();
    expect_matches_oracles(g);
  }
  {
    SCOPED_TRACE("empty graph");
    AsGraph g;
    g.freeze();
    expect_matches_oracles(g);
  }
}

TEST(Metrics, ConesTier1AndFeedPeersMatchOraclesOnTestbedGraph) {
  // The CLI-default testbed (2,659 ASes).
  core::TestbedConfig config;
  config.stub_count = 2500;
  const core::PeeringTestbed testbed(config);
  ASSERT_EQ(testbed.graph().size(), 2659u);
  expect_matches_oracles(testbed.graph());
}

TEST(Metrics, ConesTier1AndFeedPeersMatchOraclesOnSynthGraphs) {
  // Several seeds and shapes up to about 10k ASes; the oracle holds
  // N^2 / 8 bytes of cones, so nothing larger.
  struct Shape {
    std::uint32_t tier1;
    std::uint32_t transit;
    std::uint32_t stubs;
    double position;
  };
  for (const Shape& shape : {Shape{1, 12, 80, 0.0}, Shape{4, 30, 300, 0.0},
                             Shape{8, 150, 2500, 0.5},
                             Shape{10, 600, 9000, 0.5}}) {
    for (const std::uint64_t seed : {1u, 7u, 42u}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " stubs "
                                      << shape.stubs);
      SynthConfig config;
      config.seed = seed;
      config.tier1_count = shape.tier1;
      config.transit_count = shape.transit;
      config.stub_count = shape.stubs;
      config.reserved_transit_asns = {12859, 5408, 226};
      config.reserved_position_fraction = shape.position;
      config.origin_asn = core::kPeeringAsn;
      expect_matches_oracles(synthesize(config).graph);
    }
  }
}

}  // namespace
}  // namespace spooftrack::topology
