#include "bgp/engine.hpp"

#include <gtest/gtest.h>

#include "bgp/catchment.hpp"
#include "helpers.hpp"

namespace spooftrack {
namespace {

using test::kA;
using test::kB;
using test::kC;
using test::kD;
using test::kE;
using test::kOrigin;
using test::kP1;
using test::kP2;
using test::kT1;
using test::kT2;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : graph_(test::small_topology()),
        policy_(graph_, test::clean_policy_config()),
        engine_(graph_, policy_),
        origin_(test::small_origin()) {}

  topology::AsId id(topology::Asn asn) const { return *graph_.id_of(asn); }

  const bgp::Route& route_of(const bgp::RoutingOutcome& outcome,
                             topology::Asn asn) const {
    return outcome.best[id(asn)];
  }

  bgp::LinkId catchment_of(const bgp::RoutingOutcome& outcome,
                           const bgp::Configuration& config,
                           topology::Asn asn) const {
    const auto map = bgp::extract_catchments(outcome, config);
    return map[id(asn)];
  }

  topology::AsGraph graph_;
  bgp::RoutingPolicy policy_;
  bgp::Engine engine_;
  bgp::OriginSpec origin_;
};

TEST_F(EngineTest, AnycastReachesEveryAsAndConverges) {
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  EXPECT_TRUE(outcome.converged);
  EXPECT_LT(outcome.rounds, 20u);
  for (topology::AsId as = 0; as < graph_.size(); ++as) {
    if (as == id(kOrigin)) {
      EXPECT_FALSE(outcome.best[as].valid());
    } else {
      EXPECT_TRUE(outcome.best[as].valid())
          << "AS " << graph_.asn_of(as) << " has no route";
    }
  }
}

TEST_F(EngineTest, AnycastCatchmentsFollowProximity) {
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  EXPECT_EQ(catchment_of(outcome, config, kA), 0u);   // under p1
  EXPECT_EQ(catchment_of(outcome, config, kB), 1u);   // under p2
  EXPECT_EQ(catchment_of(outcome, config, kC), 0u);   // under t1 -> p1
  EXPECT_EQ(catchment_of(outcome, config, kE), 1u);   // under t2 -> p2
  EXPECT_EQ(catchment_of(outcome, config, kP1), 0u);  // direct seed
  EXPECT_EQ(catchment_of(outcome, config, kP2), 1u);
}

TEST_F(EngineTest, ProvidersPreferDirectCustomerRoute) {
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  const bgp::Route& p1_route = route_of(outcome, kP1);
  EXPECT_EQ(p1_route.learned_from, topology::Rel::kCustomer);
  EXPECT_EQ(test::path_of(outcome, id(kP1)),
            (std::vector<topology::Asn>{kOrigin}));
}

TEST_F(EngineTest, WithdrawingALinkMovesItsCatchment) {
  bgp::Configuration config;
  config.label = "only-l1";
  config.announcements.push_back({1, 0, {}, {}});
  const auto outcome = engine_.run(origin_, config);
  // Everything must now reach the prefix through p2 (link 1).
  for (topology::Asn asn : {kA, kB, kC, kD, kE, kP1, kP2, kT1, kT2}) {
    EXPECT_EQ(catchment_of(outcome, config, asn), 1u)
        << "AS " << asn << " not on link 1";
  }
  // a's path climbs out of p1 via t1 and t2.
  EXPECT_EQ(test::path_of(outcome, id(kA)),
            (std::vector<topology::Asn>{kP1, kT1, kT2, kP2, kOrigin}));
}

TEST_F(EngineTest, LocalPrefBeatsPathLength) {
  // Even with link 0 heavily prepended, t1 keeps its customer route via p1
  // rather than switching to the shorter peer route via t2.
  bgp::Configuration config;
  config.label = "prep-l0";
  config.announcements.push_back({0, 4, {}});
  config.announcements.push_back({1, 0, {}, {}});
  const auto outcome = engine_.run(origin_, config);
  const bgp::Route& t1_route = route_of(outcome, kT1);
  EXPECT_EQ(t1_route.learned_from, topology::Rel::kCustomer);
  EXPECT_EQ(catchment_of(outcome, config, kT1), 0u);
  EXPECT_EQ(outcome.paths.length(outcome.best[id(kT1)].path),
            6u);  // p1 + origin x5
}

TEST_F(EngineTest, PrependSteersEqualPrefSources) {
  // d multihomes to p1 and p2: both provider routes, equal length. With
  // prepending on link 0 it must choose link 1; with prepending on link 1
  // it must choose link 0.
  for (const bgp::LinkId prepended : {0u, 1u}) {
    bgp::Configuration config;
    config.label = "prep";
    config.announcements.push_back({0, prepended == 0 ? 4u : 0u, {}});
    config.announcements.push_back({1, prepended == 1 ? 4u : 0u, {}});
    const auto outcome = engine_.run(origin_, config);
    EXPECT_EQ(catchment_of(outcome, config, kD), 1u - prepended);
  }
}

TEST_F(EngineTest, PrependLengthensSeedPath) {
  bgp::Configuration config;
  config.label = "prep-l0";
  config.announcements.push_back({0, 4, {}});
  config.announcements.push_back({1, 0, {}, {}});
  const auto outcome = engine_.run(origin_, config);
  EXPECT_EQ(test::path_of(outcome, id(kP1)),
            (std::vector<topology::Asn>{kOrigin, kOrigin, kOrigin, kOrigin,
                                        kOrigin}));
}

TEST_F(EngineTest, PoisoningMovesThePoisonedAs) {
  // Baseline: t2 and e sit in link 1's catchment.
  {
    const auto config = test::announce_all(2);
    const auto outcome = engine_.run(origin_, config);
    EXPECT_EQ(catchment_of(outcome, config, kT2), 1u);
    EXPECT_EQ(catchment_of(outcome, config, kE), 1u);
  }
  // Poison t2 on link 1: loop prevention forces t2 (and its customer e)
  // onto link 0 via t1.
  bgp::Configuration config;
  config.label = "poison-t2";
  config.announcements.push_back({0, 0, {}, {}});
  config.announcements.push_back({1, 0, {kT2}});
  const auto outcome = engine_.run(origin_, config);
  EXPECT_EQ(catchment_of(outcome, config, kT2), 0u);
  EXPECT_EQ(catchment_of(outcome, config, kE), 0u);
  // b still reaches link 1 directly through p2.
  EXPECT_EQ(catchment_of(outcome, config, kB), 1u);
  // The poison sandwich is visible in p2's seed path.
  EXPECT_EQ(test::path_of(outcome, id(kP2)),
            (std::vector<topology::Asn>{kOrigin, kT2, kOrigin}));
}

TEST_F(EngineTest, DisabledLoopPreventionDefeatsPoisoning) {
  bgp::AsPolicyFlags flags;
  flags.ignores_poison = true;
  policy_.override_flags(id(kT2), flags);

  bgp::Configuration config;
  config.label = "poison-t2";
  config.announcements.push_back({0, 0, {}, {}});
  config.announcements.push_back({1, 0, {kT2}});
  const auto outcome = engine_.run(origin_, config);
  // t2 ignores its own ASN in the path and stays on link 1.
  EXPECT_EQ(catchment_of(outcome, config, kT2), 1u);
}

TEST_F(EngineTest, Tier1FiltersPoisonedCustomerRoutes) {
  // Poisoning tier-1 t1 on link 1 makes p2's announcement look like a
  // route leak to t2 (a tier-1 hearing another tier-1 from a customer).
  bgp::Configuration config;
  config.label = "poison-t1-on-l1";
  config.announcements.push_back({0, 0, {}, {}});
  config.announcements.push_back({1, 0, {kT1}});
  const auto outcome = engine_.run(origin_, config);
  // t2 rejects the poisoned customer route and uses its peer t1 instead.
  EXPECT_EQ(catchment_of(outcome, config, kT2), 0u);
  EXPECT_EQ(route_of(outcome, kT2).learned_from, topology::Rel::kPeer);
  // b, directly under p2, still uses link 1.
  EXPECT_EQ(catchment_of(outcome, config, kB), 1u);
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  const auto config = test::announce_all(2);
  const auto first = engine_.run(origin_, config);
  const auto second = engine_.run(origin_, config);
  EXPECT_EQ(first.best.size(), second.best.size());
  for (topology::AsId as = 0; as < graph_.size(); ++as) {
    // Identical runs produce identical arenas, so even the PathIds match.
    EXPECT_EQ(first.best[as], second.best[as]);
    EXPECT_EQ(first.next_hop[as], second.next_hop[as]);
  }
  EXPECT_EQ(bgp::outcome_checksum(first, bgp::ChecksumScope::kFull),
            bgp::outcome_checksum(second, bgp::ChecksumScope::kFull));
}

TEST_F(EngineTest, ForwardingPathMatchesAsPath) {
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  const auto path = bgp::forwarding_path(outcome, id(kC), id(kOrigin));
  ASSERT_EQ(path.size(), 4u);  // c -> t1 -> p1 -> origin
  EXPECT_EQ(graph_.asn_of(path[0]), kC);
  EXPECT_EQ(graph_.asn_of(path[1]), kT1);
  EXPECT_EQ(graph_.asn_of(path[2]), kP1);
  EXPECT_EQ(graph_.asn_of(path[3]), kOrigin);
}

TEST_F(EngineTest, ForwardingLoopYieldsEmptyPath) {
  // Regression: a corrupted (or non-converged) outcome whose next hops
  // cycle must surface as an empty path — the documented behaviour for
  // inconsistent forwarding state — not an exception.
  const auto config = test::announce_all(2);
  auto outcome = engine_.run(origin_, config);
  outcome.next_hop[id(kA)] = id(kP1);
  outcome.next_hop[id(kP1)] = id(kA);
  EXPECT_TRUE(bgp::forwarding_path(outcome, id(kA), id(kOrigin)).empty());
}

TEST_F(EngineTest, InvalidHopMidWalkYieldsEmptyPath) {
  const auto config = test::announce_all(2);
  auto outcome = engine_.run(origin_, config);
  // c routes via t1; cutting t1's next hop strands the walk mid-way.
  outcome.next_hop[id(kT1)] = topology::kInvalidAsId;
  EXPECT_TRUE(bgp::forwarding_path(outcome, id(kC), id(kOrigin)).empty());
}

TEST_F(EngineTest, RejectsUnknownProvider) {
  bgp::OriginSpec bad = origin_;
  bad.links.push_back({2, "bogus", 999999});
  bgp::Configuration config;
  config.announcements.push_back({2, 0, {}, {}});
  EXPECT_THROW(engine_.run(bad, config), std::invalid_argument);
}

TEST_F(EngineTest, RejectsNonProviderLink) {
  // kA exists but is not a provider of the origin.
  bgp::OriginSpec bad = origin_;
  bad.links.push_back({2, "not-a-provider", kA});
  bgp::Configuration config;
  config.announcements.push_back({2, 0, {}, {}});
  EXPECT_THROW(engine_.run(bad, config), std::invalid_argument);
}

TEST_F(EngineTest, CandidatesEnumerateAlternatives) {
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  const auto seeds = engine_.prepare(origin_, config);
  // d hears provider routes from both p1 and p2.
  const auto cands = engine_.candidates(id(kD), origin_, seeds, outcome);
  ASSERT_EQ(cands.size(), 2u);
  for (const auto& cand : cands) {
    EXPECT_EQ(cand.rel_of_sender, topology::Rel::kProvider);
    EXPECT_EQ(cand.length, 2u);
  }
  // t1 hears: customer route from p1, peer route from t2.
  const auto t1_cands = engine_.candidates(id(kT1), origin_, seeds, outcome);
  ASSERT_EQ(t1_cands.size(), 2u);
}

}  // namespace
}  // namespace spooftrack
