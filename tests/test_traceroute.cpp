#include "measure/traceroute.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace spooftrack::measure {
namespace {

class TracerouteTest : public ::testing::Test {
 protected:
  TracerouteTest()
      : graph_(test::small_topology()),
        policy_(graph_, test::clean_policy_config()),
        engine_(graph_, policy_),
        origin_(test::small_origin()),
        plan_(graph_),
        ixps_(graph_, 2, 1.0, 5) {}

  TracerouteOptions quiet_options() const {
    TracerouteOptions options;
    options.hop_unresponsive_prob = 0.0;
    options.as_silent_prob = 0.0;
    options.border_foreign_addr_prob = 0.0;
    options.extra_internal_hops = 0.0;
    return options;
  }

  topology::AsId id(topology::Asn asn) const { return *graph_.id_of(asn); }

  topology::AsGraph graph_;
  bgp::RoutingPolicy policy_;
  bgp::Engine engine_;
  bgp::OriginSpec origin_;
  AddressPlan plan_;
  IxpTable ixps_;
};

TEST_F(TracerouteTest, CleanTraceReachesTarget) {
  const TracerouteSim sim(graph_, plan_, ixps_, quiet_options());
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  const auto trace =
      test::trace(sim, outcome, id(test::kC), id(test::kOrigin), 0);
  EXPECT_TRUE(trace.reached);
  ASSERT_FALSE(trace.hops.empty());
  // Final hop answers from the experiment target.
  EXPECT_EQ(trace.hops.back().address, AddressPlan::experiment_target());
  // All hops responsive under the quiet options.
  for (const auto& hop : trace.hops) EXPECT_TRUE(hop.responsive());
}

TEST_F(TracerouteTest, HopAddressesMapToOnPathAses) {
  const TracerouteSim sim(graph_, plan_, ixps_, quiet_options());
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  // c -> t1 -> p1 -> origin.
  const auto trace =
      test::trace(sim, outcome, id(test::kC), id(test::kOrigin), 0);
  std::vector<topology::AsId> on_path = {id(test::kC), id(test::kT1),
                                         id(test::kP1)};
  for (std::size_t i = 0; i + 1 < trace.hops.size(); ++i) {
    const auto addr = *trace.hops[i].address;
    bool found = false;
    for (topology::AsId as : on_path) {
      if (plan_.prefix_of(as).contains(addr)) found = true;
    }
    EXPECT_TRUE(found) << "hop " << i << " at " << addr.to_string();
  }
}

TEST_F(TracerouteTest, NoRouteTraceDiesInProbeAs) {
  const TracerouteSim sim(graph_, plan_, ixps_, quiet_options());
  // Announce nothing reachable for the probe: impossible here, so use an
  // outcome with no announcements at all by routing an empty-link config.
  bgp::Configuration config;
  config.announcements.push_back({0, 0, {}, {}});
  auto outcome = engine_.run(origin_, config);
  // Manually invalidate the probe's route to emulate loss of reachability.
  outcome.best[id(test::kB)] = bgp::Route{};
  outcome.next_hop[id(test::kB)] = topology::kInvalidAsId;
  const auto trace =
      test::trace(sim, outcome, id(test::kB), id(test::kOrigin), 0);
  EXPECT_FALSE(trace.reached);
  EXPECT_EQ(trace.hops.size(), 1u);  // only the probe's own gateway
}

TEST_F(TracerouteTest, ForeignBorderNumbering) {
  TracerouteOptions options = quiet_options();
  options.border_foreign_addr_prob = 1.0;  // every border is mis-numbered
  const TracerouteSim sim(graph_, plan_, ixps_, options);
  bgp::Configuration config;
  config.announcements.push_back({0, 0, {}, {}});
  const auto outcome = engine_.run(origin_, config);
  // b -> p2 -> t2 -> t1 -> p1 -> origin; the t2--t1 peering is on an IXP
  // (edge_fraction = 1), so that ingress shows an IXP address; other
  // borders show the previous AS's space.
  const auto trace =
      test::trace(sim, outcome, id(test::kB), id(test::kOrigin), 0);
  ASSERT_TRUE(trace.reached);
  bool saw_foreign = false;
  bool saw_ixp = false;
  for (const auto& hop : trace.hops) {
    if (!hop.responsive()) continue;
    if (ixps_.is_ixp_address(*hop.address)) saw_ixp = true;
  }
  // Ingress of p2 facing b's side... verify at least the p1 ingress facing
  // t1 is numbered out of t1's space.
  for (const auto& hop : trace.hops) {
    if (hop.responsive() &&
        plan_.prefix_of(id(test::kT1)).contains(*hop.address)) {
      saw_foreign = true;  // could be t1's own router or p1's mis-numbered
    }
  }
  EXPECT_TRUE(saw_foreign);
  EXPECT_TRUE(saw_ixp);
}

TEST_F(TracerouteTest, SilentAsNeverResponds) {
  TracerouteOptions options = quiet_options();
  options.as_silent_prob = 1.0;  // every AS silent
  const TracerouteSim sim(graph_, plan_, ixps_, options);
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  const auto trace =
      test::trace(sim, outcome, id(test::kC), id(test::kOrigin), 0);
  // All intermediate hops unresponsive; only the destination target (which
  // is not an AS hop) may answer.
  for (std::size_t i = 0; i + 1 < trace.hops.size(); ++i) {
    EXPECT_FALSE(trace.hops[i].responsive());
  }
}

TEST_F(TracerouteTest, TransientLossVariesWithSalt) {
  TracerouteOptions options = quiet_options();
  options.hop_unresponsive_prob = 0.5;
  const TracerouteSim sim(graph_, plan_, ixps_, options);
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  const auto t1 =
      test::trace(sim, outcome, id(test::kC), id(test::kOrigin), 1);
  const auto t2 =
      test::trace(sim, outcome, id(test::kC), id(test::kOrigin), 2);
  // Same path, same hop count.
  EXPECT_EQ(t1.hops.size(), t2.hops.size());
  // Loss pattern should differ between salts (probabilistically certain
  // for a 6-hop trace at p=0.5; seeds fixed, so deterministic here).
  bool differs = false;
  for (std::size_t i = 0; i < t1.hops.size(); ++i) {
    if (t1.hops[i].responsive() != t2.hops[i].responsive()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST_F(TracerouteTest, DeterministicForSameSalt) {
  TracerouteOptions options = quiet_options();
  options.hop_unresponsive_prob = 0.3;
  const TracerouteSim sim(graph_, plan_, ixps_, options);
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  const auto t1 =
      test::trace(sim, outcome, id(test::kA), id(test::kOrigin), 7);
  const auto t2 =
      test::trace(sim, outcome, id(test::kA), id(test::kOrigin), 7);
  ASSERT_EQ(t1.hops.size(), t2.hops.size());
  for (std::size_t i = 0; i < t1.hops.size(); ++i) {
    EXPECT_EQ(t1.hops[i].address, t2.hops[i].address);
  }
}

}  // namespace
}  // namespace spooftrack::measure
