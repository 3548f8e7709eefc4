#include "measure/feed.hpp"

#include <gtest/gtest.h>

#include "bgp/catchment.hpp"
#include "helpers.hpp"

namespace spooftrack::measure {
namespace {

class FeedTest : public ::testing::Test {
 protected:
  FeedTest()
      : graph_(test::small_topology()),
        policy_(graph_, test::clean_policy_config()),
        engine_(graph_, policy_),
        origin_(test::small_origin()) {}

  topology::AsGraph graph_;
  bgp::RoutingPolicy policy_;
  bgp::Engine engine_;
  bgp::OriginSpec origin_;
};

TEST_F(FeedTest, PeerCountRespected) {
  FeedOptions options;
  options.peer_count = 4;
  const FeedSimulator sim(graph_, options);
  EXPECT_EQ(sim.peers().size(), 4u);
}

TEST_F(FeedTest, PeerCountCappedAtGraphSize) {
  FeedOptions options;
  options.peer_count = 1000;
  const FeedSimulator sim(graph_, options);
  EXPECT_EQ(sim.peers().size(), graph_.size());
}

TEST_F(FeedTest, LargeConeBiasPicksTransit) {
  FeedOptions options;
  options.peer_count = 2;
  options.large_cone_bias = 1.0;
  const FeedSimulator sim(graph_, options);
  // The two largest cones in the fixture are t1 and t2.
  std::vector<topology::Asn> asns;
  for (topology::AsId id : sim.peers()) asns.push_back(graph_.asn_of(id));
  std::sort(asns.begin(), asns.end());
  EXPECT_EQ(asns, (std::vector<topology::Asn>{test::kT1, test::kT2}));
}

TEST_F(FeedTest, EntriesExportFullPaths) {
  FeedOptions options;
  options.peer_count = 1000;  // everyone peers with the collector
  const FeedSimulator sim(graph_, options);
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  std::vector<FeedEntry> entries;
  sim.collect_into(outcome, entries);
  // Everyone except the (routeless) origin contributes an entry.
  EXPECT_EQ(entries.size(), graph_.size() - 1);
  for (const auto& entry : entries) {
    ASSERT_GE(entry.as_path.size(), 2u);
    EXPECT_EQ(entry.as_path.front(), graph_.asn_of(entry.peer));
    EXPECT_EQ(entry.as_path.back(), origin_.asn);
  }
}

TEST_F(FeedTest, PrependVisibleInFeed) {
  FeedOptions options;
  options.peer_count = 1000;
  const FeedSimulator sim(graph_, options);
  bgp::Configuration config;
  config.announcements.push_back({0, 4, {}});
  const auto outcome = engine_.run(origin_, config);
  std::vector<FeedEntry> entries;
  sim.collect_into(outcome, entries);
  // p1's entry shows the origin prepended five times.
  for (const auto& entry : entries) {
    if (graph_.asn_of(entry.peer) == test::kP1) {
      EXPECT_EQ(entry.as_path,
                (std::vector<topology::Asn>{test::kP1, origin_.asn,
                                            origin_.asn, origin_.asn,
                                            origin_.asn, origin_.asn}));
    }
  }
}

TEST_F(FeedTest, DeterministicPeerSelection) {
  FeedOptions options;
  options.peer_count = 5;
  options.seed = 77;
  const FeedSimulator a(graph_, options);
  const FeedSimulator b(graph_, options);
  EXPECT_EQ(a.peers(), b.peers());
}

}  // namespace
}  // namespace spooftrack::measure
