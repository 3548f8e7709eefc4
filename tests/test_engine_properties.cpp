// Property tests: structural invariants of the routing engine on randomly
// synthesized topologies, across seeds (parameterized sweep), and the
// stable-paths certificate every outcome must pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "bgp/catchment.hpp"
#include "bgp/engine.hpp"
#include "core/config_gen.hpp"
#include "core/experiment.hpp"
#include "helpers.hpp"
#include "topology/metrics.hpp"
#include "topology/synth.hpp"

namespace spooftrack {
namespace {

struct World {
  topology::SynthTopology topo;
  bgp::OriginSpec origin;
};

World make_world(std::uint64_t seed) {
  topology::SynthConfig config;
  config.seed = seed;
  config.tier1_count = 5;
  config.transit_count = 40;
  config.stub_count = 400;
  config.reserved_transit_asns = {12859, 5408, 226, 156};
  config.origin_asn = core::kPeeringAsn;
  World world;
  world.topo = topology::synthesize(config);
  world.origin.asn = core::kPeeringAsn;
  bgp::LinkId id = 0;
  for (topology::Asn provider : config.reserved_transit_asns) {
    world.origin.links.push_back({id++, "pop", provider});
  }
  return world;
}

class EngineProperty : public ::testing::TestWithParam<std::uint64_t> {};

/// Relationship step of hop a -> b in traffic direction.
enum class Step { kUp, kFlat, kDown };

Step classify(const topology::AsGraph& g, topology::AsId from,
              topology::AsId to) {
  const auto rel = g.relationship(from, to);
  EXPECT_TRUE(rel.has_value()) << "path hop is not an edge";
  switch (*rel) {
    case topology::Rel::kProvider: return Step::kUp;
    case topology::Rel::kPeer: return Step::kFlat;
    case topology::Rel::kCustomer: return Step::kDown;
  }
  return Step::kFlat;
}

TEST_P(EngineProperty, ConvergesAndRoutesAreValleyFree) {
  World world = make_world(GetParam());
  bgp::PolicyConfig pconfig;
  pconfig.seed = GetParam();
  // Keep poisoning semantics pure for the valley-free check, but keep the
  // tiebreak deviations on (they must not break valley-freeness).
  bgp::RoutingPolicy policy(world.topo.graph, pconfig);
  bgp::Engine engine(world.topo.graph, policy);

  bgp::Configuration config;
  for (const auto& link : world.origin.links) {
    config.announcements.push_back({link.id, 0, {}, {}});
  }

  const auto outcome = engine.run(world.origin, config);
  ASSERT_TRUE(outcome.converged);
  EXPECT_LT(outcome.rounds, 64u);

  const auto& g = world.topo.graph;
  const topology::AsId origin_id = *g.id_of(world.origin.asn);

  std::size_t routed = 0;
  for (topology::AsId as = 0; as < g.size(); ++as) {
    if (as == origin_id) continue;
    const bgp::Route& route = outcome.best[as];
    ASSERT_TRUE(route.valid()) << "AS " << g.asn_of(as) << " unrouted";
    ++routed;

    // The data-plane path must be loop-free and end at the origin.
    const auto path = bgp::forwarding_path(outcome, as, origin_id);
    ASSERT_GE(path.size(), 2u);
    EXPECT_EQ(path.front(), as);
    EXPECT_EQ(path.back(), origin_id);

    // Valley-free: downhill or flat steps never precede uphill steps, and
    // at most one flat (peer) step.
    bool seen_flat_or_down = false;
    int flat_steps = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const Step step = classify(g, path[i], path[i + 1]);
      if (step == Step::kUp) {
        EXPECT_FALSE(seen_flat_or_down)
            << "valley in path of AS " << g.asn_of(as);
      } else {
        seen_flat_or_down = true;
        if (step == Step::kFlat) ++flat_steps;
      }
    }
    EXPECT_LE(flat_steps, 1) << "two peer links in path of AS "
                             << g.asn_of(as);
  }
  EXPECT_EQ(routed, g.size() - 1);
}

TEST_P(EngineProperty, WithdrawalForcesAlternateRoutes) {
  World world = make_world(GetParam());
  bgp::RoutingPolicy policy(world.topo.graph, bgp::PolicyConfig{});
  bgp::Engine engine(world.topo.graph, policy);

  bgp::Configuration all;
  for (const auto& link : world.origin.links) {
    all.announcements.push_back({link.id, 0, {}, {}});
  }
  const auto base = engine.run(world.origin, all);
  const auto base_map = bgp::extract_catchments(base, all);

  // Withdraw link 0: all its former catchment members must land on other
  // links (the graph is connected, so no one loses reachability).
  bgp::Configuration without;
  for (const auto& link : world.origin.links) {
    if (link.id != 0) without.announcements.push_back({link.id, 0, {}, {}});
  }
  const auto outcome = engine.run(world.origin, without);
  const auto map = bgp::extract_catchments(outcome, without);

  const topology::AsId origin_id = *world.topo.graph.id_of(world.origin.asn);
  for (topology::AsId as = 0; as < world.topo.graph.size(); ++as) {
    if (as == origin_id) continue;
    EXPECT_NE(map[as], 0u);
    EXPECT_NE(map[as], bgp::kNoCatchment);
    if (base_map[as] != 0u) {
      // Sources not on link 0 may or may not move; sources on link 0 must.
      continue;
    }
  }
}

TEST_P(EngineProperty, PrependingNeverBreaksReachability) {
  World world = make_world(GetParam());
  bgp::RoutingPolicy policy(world.topo.graph, bgp::PolicyConfig{});
  bgp::Engine engine(world.topo.graph, policy);

  bgp::Configuration config;
  for (const auto& link : world.origin.links) {
    config.announcements.push_back({link.id, link.id == 1 ? 4u : 0u, {}});
  }
  const auto outcome = engine.run(world.origin, config);
  ASSERT_TRUE(outcome.converged);
  const auto map = bgp::extract_catchments(outcome, config);
  EXPECT_EQ(map.routed_count(), world.topo.graph.size() - 1);
}

TEST_P(EngineProperty, PoisoningMovesOrKeepsButNeverStrands) {
  World world = make_world(GetParam());
  bgp::PolicyConfig pconfig;
  pconfig.ignore_poison_fraction = 0.0;
  bgp::RoutingPolicy policy(world.topo.graph, pconfig);
  bgp::Engine engine(world.topo.graph, policy);

  // Poison one neighbor of link 0's provider.
  const auto provider_id =
      *world.topo.graph.id_of(world.origin.links[0].provider);
  topology::Asn target = 0;
  for (const auto& n : world.topo.graph.neighbors(provider_id)) {
    const topology::Asn asn = world.topo.graph.asn_of(n.id);
    if (asn != world.origin.asn) {
      target = asn;
      break;
    }
  }
  ASSERT_NE(target, 0u);

  bgp::Configuration config;
  for (const auto& link : world.origin.links) {
    bgp::AnnouncementSpec spec{link.id, 0, {}, {}};
    if (link.id == 0) spec.poisoned.push_back(target);
    config.announcements.push_back(spec);
  }
  const auto outcome = engine.run(world.origin, config);
  ASSERT_TRUE(outcome.converged);

  // The poisoned AS must not route via link 0's announcement, and the
  // connectivity of the rest must be intact (multiple links remain).
  const auto map = bgp::extract_catchments(outcome, config);
  const auto target_id = *world.topo.graph.id_of(target);
  EXPECT_NE(map[target_id], 0u) << "poisoned AS still on poisoned link";
  EXPECT_EQ(map.routed_count(), world.topo.graph.size() - 1);
}

/// Stable-paths certificate: `outcome` is a fixed point of the routing
/// policy when every AS holds the preference maximum over the routes its
/// neighbors export to it (Engine::candidates), and an AS is unrouted
/// exactly when it has no candidate. The maximum is taken here from the
/// keys policy.hpp documents — LocalPref; then path length and tiebreak
/// score, in the order that AS uses; then the lowest sender ASN — not by
/// the engine's selection loop.
void expect_stable_paths(const bgp::Engine& engine,
                         const bgp::OriginSpec& origin,
                         const bgp::Configuration& config,
                         const bgp::RoutingOutcome& outcome,
                         const std::string& what) {
  const topology::AsGraph& g = engine.graph();
  const bgp::RoutingPolicy& policy = engine.policy();
  const bgp::Engine::Prepared seeds = engine.prepare(origin, config);
  for (topology::AsId as = 0; as < g.size(); ++as) {
    const auto candidates = engine.candidates(as, origin, seeds, outcome);
    const bgp::Route& route = outcome.best[as];
    if (candidates.empty()) {
      EXPECT_FALSE(route.valid())
          << what << ": AS " << g.asn_of(as) << " routed without candidates";
      EXPECT_EQ(outcome.next_hop[as], topology::kInvalidAsId) << what;
      continue;
    }
    const topology::Asn asn = g.asn_of(as);
    const bool score_first = policy.flags(as).shortest_violator;
    // Smaller key = more preferred.
    const auto key = [&](const bgp::Engine::CandidateInfo& c) {
      const topology::Asn sender = g.asn_of(c.sender);
      const std::uint64_t score = policy.tie_score(asn, sender);
      const std::uint64_t length = c.length;
      return score_first ? std::make_tuple(-int{c.local_pref}, score, length,
                                           sender)
                         : std::make_tuple(-int{c.local_pref}, length, score,
                                           sender);
    };
    const auto best = std::min_element(
        candidates.begin(), candidates.end(),
        [&](const auto& a, const auto& b) { return key(a) < key(b); });
    EXPECT_TRUE(route.valid() && outcome.next_hop[as] == best->sender &&
                route.ann == best->ann &&
                route.local_pref == best->local_pref &&
                outcome.paths.length(outcome.best[as].path) == best->length)
        << what << ": AS " << asn
        << " does not hold its most preferred candidate, the route from AS "
        << g.asn_of(best->sender);
  }
}

TEST_P(EngineProperty, OutcomesAreStablePathsFixedPoints) {
  World world = make_world(GetParam());
  bgp::PolicyConfig pconfig;
  pconfig.seed = GetParam();
  // Default violator fractions: some ASes rank the tiebreak score above
  // path length, some swap peer and provider preference.
  const bgp::RoutingPolicy policy(world.topo.graph, pconfig);
  const bgp::Engine engine(world.topo.graph, policy);

  core::GeneratorOptions gen;
  gen.max_removals = 1;
  gen.max_poison_configs = 4;
  gen.max_community_configs = 4;
  const auto configs =
      core::ConfigGenerator(world.origin, gen).full_plan(world.topo.graph);
  ASSERT_GT(configs.size(), 20u);

  bgp::RoutingOutcome warm;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::string label = std::to_string(i) + " " + configs[i].label;
    const auto cold = engine.run(world.origin, configs[i]);
    ASSERT_TRUE(cold.converged) << label;
    expect_stable_paths(engine, world.origin, configs[i], cold,
                        "cold " + label);
    // One warm chain through the whole plan, each step started from the
    // previous step's warm outcome.
    warm = i == 0 ? engine.run(world.origin, configs[i])
                  : test::warm_run(engine, world.origin, configs[i],
                                   configs[i - 1], std::move(warm));
    ASSERT_TRUE(warm.converged) << label;
    expect_stable_paths(engine, world.origin, configs[i], warm,
                        "warm " + label);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(StablePaths, HandBuiltTopologyOutcomesAreFixedPoints) {
  // Anycast from both links, and prepending on link 0 with t2 poisoned on
  // link 1.
  const topology::AsGraph graph = test::small_topology();
  const bgp::RoutingPolicy policy(graph, test::clean_policy_config());
  const bgp::Engine engine(graph, policy);
  const bgp::OriginSpec origin = test::small_origin();
  bgp::Configuration steered;
  steered.label = "prepend-l0-poison-t2-l1";
  steered.announcements.push_back({0, 4, {}, {}});
  steered.announcements.push_back({1, 0, {test::kT2}, {}});
  for (const bgp::Configuration& config :
       {test::announce_all(2), steered}) {
    const auto outcome = engine.run(origin, config);
    ASSERT_TRUE(outcome.converged) << config.label;
    expect_stable_paths(engine, origin, config, outcome, config.label);
  }
}

}  // namespace
}  // namespace spooftrack
