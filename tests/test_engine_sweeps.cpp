// Parameterized behavioural sweeps of the routing engine: how catchments
// respond to prepend depth, announcement-set size, and steering, across
// random topologies. These pin down the monotonicity properties the
// paper's techniques exploit.
#include <gtest/gtest.h>

#include "bgp/catchment.hpp"
#include "bgp/engine.hpp"
#include "core/experiment.hpp"
#include "topology/synth.hpp"

namespace spooftrack {
namespace {

struct SweepWorld {
  explicit SweepWorld(std::uint64_t seed) {
    topology::SynthConfig config;
    config.seed = seed;
    config.tier1_count = 5;
    config.transit_count = 40;
    config.stub_count = 350;
    config.reserved_transit_asns = {12859, 5408, 226, 156};
    config.reserved_position_fraction = 0.5;
    config.reserved_attract_bonus = 8.0;
    config.origin_asn = core::kPeeringAsn;
    topo = topology::synthesize(config);

    origin.asn = core::kPeeringAsn;
    bgp::LinkId id = 0;
    for (topology::Asn provider : config.reserved_transit_asns) {
      origin.links.push_back({id++, "pop", provider});
    }

    bgp::PolicyConfig pconfig;  // default deviations on
    pconfig.seed = seed;
    policy = std::make_unique<bgp::RoutingPolicy>(topo.graph, pconfig);
    engine = std::make_unique<bgp::Engine>(topo.graph, *policy);
  }

  bgp::Configuration all_links(std::uint32_t prepend_link = 0,
                               std::uint32_t prepend = 0) const {
    bgp::Configuration config;
    for (const auto& link : origin.links) {
      config.announcements.push_back(
          {link.id, link.id == prepend_link ? prepend : 0u, {}, {}});
    }
    return config;
  }

  topology::SynthTopology topo;
  bgp::OriginSpec origin;
  std::unique_ptr<bgp::RoutingPolicy> policy;
  std::unique_ptr<bgp::Engine> engine;
};

class EngineSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineSweep, PrependMonotonicallyShrinksTheLinkCatchment) {
  SweepWorld world(GetParam());
  std::size_t previous = std::numeric_limits<std::size_t>::max();
  for (std::uint32_t depth : {0u, 1u, 2u, 4u, 8u}) {
    const auto config = world.all_links(0, depth);
    const auto outcome = world.engine->run(world.origin, config);
    ASSERT_TRUE(outcome.converged);
    const auto map = bgp::extract_catchments(outcome, config);
    const std::size_t size = map.count(0);
    // Longer paths can only repel equal-LocalPref sources; the catchment
    // never grows with prepend depth.
    EXPECT_LE(size, previous) << "depth " << depth;
    previous = size;
  }
}

TEST_P(EngineSweep, WithdrawnLinksCatchmentRedistributes) {
  SweepWorld world(GetParam());
  const auto full = world.all_links();
  const auto full_outcome = world.engine->run(world.origin, full);
  const auto full_map = bgp::extract_catchments(full_outcome, full);

  for (bgp::LinkId withdrawn = 0; withdrawn < world.origin.links.size();
       ++withdrawn) {
    bgp::Configuration config;
    for (const auto& link : world.origin.links) {
      if (link.id != withdrawn) {
        config.announcements.push_back({link.id, 0, {}, {}});
      }
    }
    const auto outcome = world.engine->run(world.origin, config);
    const auto map = bgp::extract_catchments(outcome, config);
    // Reachability is preserved (the graph is connected) and nobody sits
    // on the withdrawn link.
    EXPECT_EQ(map.count(withdrawn), 0u);
    EXPECT_EQ(map.routed_count(), full_map.routed_count());
    // Sources that were NOT on the withdrawn link mostly stay put. (Not
    // an invariant: a withdrawal can indirectly improve a neighbor's
    // exported route — e.g. an upstream switching preference class onto a
    // shorter path — so a small fraction may legitimately move.)
    std::size_t unaffected = 0, stayed = 0;
    for (topology::AsId as = 0; as < world.topo.graph.size(); ++as) {
      if (full_map[as] == bgp::kNoCatchment || full_map[as] == withdrawn) {
        continue;
      }
      ++unaffected;
      stayed += map[as] == full_map[as];
    }
    ASSERT_GT(unaffected, 0u);
    EXPECT_GT(static_cast<double>(stayed) / static_cast<double>(unaffected),
              0.9)
        << "withdrawing link " << withdrawn
        << " moved too many third-party sources";
  }
}

TEST_P(EngineSweep, AnnouncingMoreLinksNeverReducesReachability) {
  SweepWorld world(GetParam());
  std::size_t previous = 0;
  for (std::size_t count = 1; count <= world.origin.links.size(); ++count) {
    bgp::Configuration config;
    for (std::size_t l = 0; l < count; ++l) {
      config.announcements.push_back(
          {static_cast<bgp::LinkId>(l), 0, {}, {}});
    }
    const auto outcome = world.engine->run(world.origin, config);
    const auto map = bgp::extract_catchments(outcome, config);
    EXPECT_GE(map.routed_count(), previous);
    previous = map.routed_count();
  }
}

TEST_P(EngineSweep, SteeringConfigurationsOnlyMoveTraffic) {
  // Poisoning or no-exporting a provider neighbor may reroute sources but
  // must not disconnect anyone (alternatives exist in a connected graph).
  SweepWorld world(GetParam());
  const auto provider_id =
      *world.topo.graph.id_of(world.origin.links[0].provider);
  std::vector<topology::Asn> targets;
  for (const auto& n : world.topo.graph.neighbors(provider_id)) {
    const auto asn = world.topo.graph.asn_of(n.id);
    if (asn != world.origin.asn) targets.push_back(asn);
    if (targets.size() == 3) break;
  }
  for (topology::Asn target : targets) {
    for (int community : {0, 1}) {
      auto config = world.all_links();
      if (community) {
        config.announcements[0].no_export_to.push_back(target);
      } else {
        config.announcements[0].poisoned.push_back(target);
      }
      const auto outcome = world.engine->run(world.origin, config);
      ASSERT_TRUE(outcome.converged);
      const auto map = bgp::extract_catchments(outcome, config);
      EXPECT_EQ(map.routed_count(), world.topo.graph.size() - 1)
          << "AS" << target << (community ? " no-export" : " poison");
    }
  }
}

TEST_P(EngineSweep, DataPlaneAgreesWithControlPlane) {
  // The forwarding walk must traverse exactly the collapsed AS-path of the
  // source's best route (hot-potato consistency).
  SweepWorld world(GetParam());
  const auto config = world.all_links();
  const auto outcome = world.engine->run(world.origin, config);
  const auto origin_id = *world.topo.graph.id_of(world.origin.asn);
  for (topology::AsId as = 0; as < world.topo.graph.size(); ++as) {
    if (as == origin_id || !outcome.best[as].valid()) continue;
    const auto walk = bgp::forwarding_path(outcome, as, origin_id);
    // Collapse the control-plane path (prepends repeat ASNs).
    std::vector<topology::Asn> control;
    control.push_back(world.topo.graph.asn_of(as));
    for (topology::Asn hop : outcome.paths.view(outcome.best[as].path)) {
      if (control.back() != hop) control.push_back(hop);
    }
    ASSERT_EQ(walk.size(), control.size()) << "AS " << control.front();
    for (std::size_t i = 0; i < walk.size(); ++i) {
      EXPECT_EQ(world.topo.graph.asn_of(walk[i]), control[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineSweep,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace spooftrack
