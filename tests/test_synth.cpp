#include "topology/synth.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/experiment.hpp"
#include "helpers.hpp"
#include "topology/metrics.hpp"

namespace spooftrack::topology {
namespace {

SynthConfig small_config() {
  SynthConfig config;
  config.seed = 3;
  config.tier1_count = 4;
  config.transit_count = 30;
  config.stub_count = 300;
  return config;
}

/// The SynthConfig core::PeeringTestbed builds for a TestbedConfig of this
/// seed and shape: the default path-diversity knobs, the Table I providers
/// as reserved transit and the PEERING origin.
SynthConfig testbed_shape(std::uint64_t seed, std::uint32_t transit,
                          std::uint32_t stubs) {
  const core::TestbedConfig testbed;
  SynthConfig config;
  config.seed = seed;
  config.tier1_count = testbed.tier1_count;
  config.transit_count = transit;
  config.stub_count = stubs;
  config.transit_extra_providers = testbed.transit_extra_providers;
  config.stub_extra_providers = testbed.stub_extra_providers;
  config.transit_peering_prob = testbed.transit_peering_prob;
  config.stub_tier1_provider_prob = testbed.stub_tier1_provider_prob;
  config.reserved_attract_bonus = testbed.provider_attract_bonus;
  config.reserved_position_fraction = testbed.provider_position_fraction;
  config.origin_asn = core::kPeeringAsn;
  for (const core::MuxInfo& mux : core::table1_muxes()) {
    config.reserved_transit_asns.push_back(mux.provider_asn);
  }
  return config;
}

/// FNV-1a over every id's ASN, then its sorted adjacency: each neighbor's
/// id and relationship.
std::string graph_digest(const AsGraph& graph) {
  test::Fnv1a fnv;
  for (AsId id = 0; id < graph.size(); ++id) {
    const Asn asn = graph.asn_of(id);
    fnv.bytes(&asn, sizeof asn);
    const std::uint64_t degree = graph.degree(id);
    fnv.bytes(&degree, sizeof degree);
    for (const Neighbor& n : graph.neighbors(id)) {
      fnv.bytes(&n.id, sizeof n.id);
      fnv.bytes(&n.rel, sizeof n.rel);
    }
  }
  return fnv.hex();
}

TEST(Synth, PinnedGraphs) {
  // Draw order, weights and tie-breaks all reach the graph: any change to
  // the generator's random stream or its provider draw moves these. The
  // CLI-default testbed (2,659 ASes) at two seeds, and the 66,509-AS shape
  // of bench/e2e's internet workload.
  struct Case {
    std::uint64_t seed;
    std::uint32_t transit;
    std::uint32_t stubs;
    std::size_t ases;
    const char* digest;
  };
  for (const Case& c : {Case{42, 150, 2500, 2659, "1f5e3da308acbc2a"},
                        Case{7, 150, 2500, 2659, "30b55a8d6d2dfc7a"},
                        Case{42, 2500, 64000, 66509, "1bfb10278e5f6c7a"}}) {
    SCOPED_TRACE(c.seed);
    SCOPED_TRACE(c.stubs);
    const auto topo = synthesize(testbed_shape(c.seed, c.transit, c.stubs));
    EXPECT_EQ(topo.graph.size(), c.ases);
    EXPECT_EQ(graph_digest(topo.graph), c.digest);
  }
}

TEST(Synth, ProducesRequestedPopulation) {
  const auto topo = synthesize(small_config());
  EXPECT_EQ(topo.tier1.size(), 4u);
  EXPECT_EQ(topo.transit.size(), 30u);
  EXPECT_EQ(topo.stubs.size(), 300u);
  EXPECT_EQ(topo.graph.size(), 4u + 30u + 300u);
  EXPECT_TRUE(topo.graph.frozen());
}

TEST(Synth, DeterministicForSeed) {
  const auto a = synthesize(small_config());
  const auto b = synthesize(small_config());
  EXPECT_EQ(a.graph.size(), b.graph.size());
  EXPECT_EQ(a.graph.edge_count(), b.graph.edge_count());
  EXPECT_EQ(a.tier1, b.tier1);
  EXPECT_EQ(a.transit, b.transit);
}

TEST(Synth, SeedChangesTopology) {
  auto config = small_config();
  const auto a = synthesize(config);
  config.seed = 4;
  const auto b = synthesize(config);
  EXPECT_NE(a.graph.edge_count(), b.graph.edge_count());
}

TEST(Synth, Tier1FormsPeeringClique) {
  const auto topo = synthesize(small_config());
  for (Asn x : topo.tier1) {
    for (Asn y : topo.tier1) {
      if (x == y) continue;
      EXPECT_EQ(topo.graph.relationship(*topo.graph.id_of(x),
                                        *topo.graph.id_of(y)),
                Rel::kPeer);
    }
  }
}

TEST(Synth, GraphIsValleyFreeFriendly) {
  const auto topo = synthesize(small_config());
  EXPECT_TRUE(p2c_acyclic(topo.graph));
  EXPECT_TRUE(connected(topo.graph));
}

TEST(Synth, EveryNonTier1HasAProvider) {
  const auto topo = synthesize(small_config());
  for (Asn asn : topo.transit) {
    EXPECT_FALSE(topo.graph.is_provider_free(*topo.graph.id_of(asn)))
        << "transit AS " << asn;
  }
  for (Asn asn : topo.stubs) {
    EXPECT_FALSE(topo.graph.is_provider_free(*topo.graph.id_of(asn)))
        << "stub AS " << asn;
  }
}

TEST(Synth, ReservedAsnsBecomeWellConnectedTransit) {
  auto config = small_config();
  config.reserved_transit_asns = {12859, 5408, 226};
  const auto topo = synthesize(config);
  for (Asn asn : config.reserved_transit_asns) {
    const auto id = topo.graph.id_of(asn);
    ASSERT_TRUE(id.has_value()) << asn;
    // The attraction bonus should give reserved ASes a healthy customer
    // base (enough poison targets for the experiment).
    EXPECT_GE(topo.graph.degree(*id), 5u) << asn;
  }
  // Reserved ASNs appear exactly once, as transit.
  EXPECT_EQ(topo.transit[0], 12859u);
  EXPECT_EQ(topo.transit[1], 5408u);
  EXPECT_EQ(topo.transit[2], 226u);
}

TEST(Synth, OriginAttachment) {
  auto config = small_config();
  config.reserved_transit_asns = {12859, 5408};
  config.origin_asn = 47065;
  const auto topo = synthesize(config);
  const auto origin = topo.graph.id_of(47065);
  ASSERT_TRUE(origin.has_value());
  for (Asn provider : config.reserved_transit_asns) {
    EXPECT_EQ(topo.graph.relationship(*origin, *topo.graph.id_of(provider)),
              Rel::kProvider);
  }
  EXPECT_EQ(topo.graph.degree(*origin), 2u);
}

TEST(Synth, RejectsBadConfigs) {
  SynthConfig no_tier1 = small_config();
  no_tier1.tier1_count = 0;
  EXPECT_THROW(synthesize(no_tier1), std::invalid_argument);

  SynthConfig too_many_reserved = small_config();
  too_many_reserved.transit_count = 1;
  too_many_reserved.reserved_transit_asns = {1, 2, 3};
  EXPECT_THROW(synthesize(too_many_reserved), std::invalid_argument);

  // A repeated reserved ASN would leave the graph one AS short.
  SynthConfig duplicate_reserved = small_config();
  duplicate_reserved.reserved_transit_asns = {12859, 12859};
  EXPECT_THROW(synthesize(duplicate_reserved), std::invalid_argument);

  // Stubs draw their providers from the transit layer, so it must exist.
  SynthConfig no_transit = small_config();
  no_transit.transit_count = 0;
  no_transit.stub_count = 50;
  EXPECT_THROW(synthesize(no_transit), std::invalid_argument);

  // The attraction bonus must be a whole number in [0, 2^32], so every
  // sum of attachment weights is exact.
  for (const double bonus :
       {-1.0, 0.5, 8.25, 0x1p32 + 1.0, 1e300,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    SynthConfig bad_bonus = small_config();
    bad_bonus.reserved_transit_asns = {12859};
    bad_bonus.reserved_attract_bonus = bonus;
    EXPECT_THROW(synthesize(bad_bonus), std::invalid_argument) << bonus;
  }
  for (const double bonus : {0.0, 8.0, 0x1p32}) {
    SynthConfig good_bonus = small_config();
    good_bonus.reserved_transit_asns = {12859};
    good_bonus.reserved_attract_bonus = bonus;
    EXPECT_NO_THROW(synthesize(good_bonus)) << bonus;
  }
}

TEST(Synth, DegreeDistributionIsHeavyTailed) {
  SynthConfig config = small_config();
  config.stub_count = 1500;
  const auto topo = synthesize(config);
  std::vector<std::size_t> degrees;
  for (AsId id = 0; id < topo.graph.size(); ++id) {
    degrees.push_back(topo.graph.degree(id));
  }
  std::sort(degrees.rbegin(), degrees.rend());
  std::size_t total = 0, top = 0;
  const std::size_t decile = degrees.size() / 10;
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    total += degrees[i];
    if (i < decile) top += degrees[i];
  }
  // Preferential attachment: the top decile of ASes holds the majority of
  // adjacencies (Internet AS graphs are far more skewed still).
  EXPECT_GT(static_cast<double>(top) / static_cast<double>(total), 0.5);
  // And the median AS is a small edge network.
  EXPECT_LE(degrees[degrees.size() / 2], 3u);
}

TEST(Synth, ReservedPositionFractionMovesCreationOrder) {
  SynthConfig config = small_config();
  config.reserved_transit_asns = {12859, 5408};
  config.reserved_position_fraction = 0.5;
  const auto topo = synthesize(config);
  // Reserved ASNs appear mid-pack in the transit creation order.
  const auto it =
      std::find(topo.transit.begin(), topo.transit.end(), 12859u);
  ASSERT_NE(it, topo.transit.end());
  const auto index =
      static_cast<std::size_t>(std::distance(topo.transit.begin(), it));
  EXPECT_GE(index, topo.transit.size() / 4);
  EXPECT_LT(index, topo.transit.size());
}

TEST(Synth, ScalesToLargerSizes) {
  SynthConfig config = small_config();
  config.transit_count = 120;
  config.stub_count = 2000;
  const auto topo = synthesize(config);
  EXPECT_EQ(topo.graph.size(), 4u + 120u + 2000u);
  EXPECT_TRUE(p2c_acyclic(topo.graph));
  EXPECT_TRUE(connected(topo.graph));
}

}  // namespace
}  // namespace spooftrack::topology
