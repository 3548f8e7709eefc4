// Tests of the BGP-community (no-export) steering extension: engine
// semantics, validation, and the generator's community phase.
#include <gtest/gtest.h>

#include "bgp/catchment.hpp"
#include "bgp/engine.hpp"
#include "core/config_gen.hpp"
#include "helpers.hpp"

namespace spooftrack {
namespace {

using test::kA;
using test::kB;
using test::kD;
using test::kE;
using test::kOrigin;
using test::kP1;
using test::kP2;
using test::kT1;
using test::kT2;

class CommunityTest : public ::testing::Test {
 protected:
  CommunityTest()
      : graph_(test::small_topology()),
        policy_(graph_, test::clean_policy_config()),
        engine_(graph_, policy_),
        origin_(test::small_origin()) {}

  topology::AsId id(topology::Asn asn) const { return *graph_.id_of(asn); }

  bgp::LinkId catchment_of(const bgp::RoutingOutcome& outcome,
                           const bgp::Configuration& config,
                           topology::Asn asn) const {
    return bgp::extract_catchments(outcome, config)[id(asn)];
  }

  topology::AsGraph graph_;
  bgp::RoutingPolicy policy_;
  bgp::Engine engine_;
  bgp::OriginSpec origin_;
};

TEST_F(CommunityTest, NoExportMovesTheTargetLikePoisoning) {
  // Baseline: t2 on link 1 (via customer p2).
  bgp::Configuration config;
  config.announcements.push_back({0, 0, {}, {}});
  config.announcements.push_back({1, 0, {}, {kT2}});
  const auto outcome = engine_.run(origin_, config);
  // p2 withholds the origin route from t2: t2 reroutes via peer t1.
  EXPECT_EQ(catchment_of(outcome, config, kT2), 0u);
  // t2's customer e follows it.
  EXPECT_EQ(catchment_of(outcome, config, kE), 0u);
  // b (p2's customer, not targeted) keeps link 1.
  EXPECT_EQ(catchment_of(outcome, config, kB), 1u);
}

TEST_F(CommunityTest, NoExportDefeatsLoopPreventionExemption) {
  // The decisive advantage over poisoning: it works even when the target
  // ignores poisoned paths.
  bgp::AsPolicyFlags flags;
  flags.ignores_poison = true;
  policy_.override_flags(id(kT2), flags);

  // Poisoning fails...
  {
    bgp::Configuration config;
    config.announcements.push_back({0, 0, {}, {}});
    config.announcements.push_back({1, 0, {kT2}, {}});
    const auto outcome = engine_.run(origin_, config);
    EXPECT_EQ(catchment_of(outcome, config, kT2), 1u);
  }
  // ...no-export succeeds.
  {
    bgp::Configuration config;
    config.announcements.push_back({0, 0, {}, {}});
    config.announcements.push_back({1, 0, {}, {kT2}});
    const auto outcome = engine_.run(origin_, config);
    EXPECT_EQ(catchment_of(outcome, config, kT2), 0u);
  }
}

TEST_F(CommunityTest, NoExportLeavesPathUnpolluted) {
  // Poisoning inflates the seed path; the community variant does not, so
  // downstream length comparisons are unaffected.
  bgp::Configuration config;
  config.announcements.push_back({0, 0, {}, {}});
  config.announcements.push_back({1, 0, {}, {kT2}});
  const auto outcome = engine_.run(origin_, config);
  EXPECT_EQ(test::path_of(outcome, id(kP2)),
            (std::vector<topology::Asn>{kOrigin}));
}

TEST_F(CommunityTest, OnlySeedDescendedRoutesAreWithheld) {
  // Announce only link 0: p2's best route does NOT descend from its own
  // (inactive) announcement, so a no-export on link 1 is irrelevant and
  // everything still reaches the prefix.
  bgp::Configuration config;
  config.announcements.push_back({0, 0, {}, {}});
  const auto outcome = engine_.run(origin_, config);
  const auto map = bgp::extract_catchments(outcome, config);
  EXPECT_EQ(map.routed_count(), graph_.size() - 1);
}

TEST_F(CommunityTest, SeedBestRouteIsWithheldFromBlockedReceivers) {
  // p1's best route IS its own seed (customer route from the origin): the
  // no-export filter applies. a is single-homed under p1 and ends up with
  // no route at all; the multihomed d falls back to link 1 via p2.
  bgp::Configuration config;
  config.announcements.push_back({0, 0, {}, {kA, kD}});
  config.announcements.push_back({1, 0, {}, {}});
  const auto outcome = engine_.run(origin_, config);

  EXPECT_EQ(test::path_of(outcome, id(kP1)),
            (std::vector<topology::Asn>{kOrigin}));  // p1 keeps its seed
  EXPECT_FALSE(outcome.best[id(kA)].valid());
  EXPECT_EQ(catchment_of(outcome, config, kA), bgp::kNoCatchment);
  ASSERT_TRUE(outcome.best[id(kD)].valid());
  EXPECT_EQ(catchment_of(outcome, config, kD), 1u);
}

TEST_F(CommunityTest, FilterDoesNotApplyWhenBestRouteIsAnotherAnnouncement) {
  // Poisoning p1 on its own link makes p1 reject its seed (its ASN is in
  // the path), so p1's best route carries link 1's announcement instead.
  // Its seed's no-export list must NOT withhold that different-announcement
  // route from a.
  bgp::Configuration config;
  config.announcements.push_back({0, 0, {kP1}, {kA}});
  config.announcements.push_back({1, 0, {}, {}});
  const auto outcome = engine_.run(origin_, config);

  // p1 is seeded on link 0 but holds link 1's announcement via its
  // provider t1.
  ASSERT_TRUE(outcome.best[id(kP1)].valid());
  EXPECT_EQ(outcome.best[id(kP1)].ann, 1u);
  EXPECT_EQ(outcome.best[id(kP1)].learned_from, topology::Rel::kProvider);

  // a (on the announcement-0 blocked list) still hears p1's route.
  ASSERT_TRUE(outcome.best[id(kA)].valid());
  EXPECT_EQ(outcome.best[id(kA)].ann, 1u);
  EXPECT_EQ(catchment_of(outcome, config, kA), 1u);
}

TEST_F(CommunityTest, ValidationCapsAndSelfTargets) {
  bgp::Configuration config;
  bgp::AnnouncementSpec spec{0, 0, {}, {}};
  for (topology::Asn asn = 1; asn <= bgp::kMaxNoExportPerAnnouncement + 1;
       ++asn) {
    spec.no_export_to.push_back(asn);
  }
  config.announcements.push_back(spec);
  EXPECT_THROW(bgp::validate(config, origin_), std::invalid_argument);

  bgp::Configuration self;
  self.announcements.push_back({0, 0, {}, {origin_.asn}});
  EXPECT_THROW(bgp::validate(self, origin_), std::invalid_argument);
}

TEST_F(CommunityTest, GeneratorCommunityPhase) {
  core::GeneratorOptions options;
  options.max_removals = 1;
  options.max_community_configs = 4;
  const core::ConfigGenerator gen(origin_, options);
  const auto configs = gen.community_phase(graph_);
  ASSERT_EQ(configs.size(), 4u);
  for (const auto& config : configs) {
    EXPECT_EQ(config.announcements.size(), 2u);
    std::size_t targeted = 0;
    for (const auto& spec : config.announcements) {
      targeted += spec.no_export_to.size();
      EXPECT_TRUE(spec.poisoned.empty());
    }
    EXPECT_EQ(targeted, 1u);
    EXPECT_NO_THROW(bgp::validate(config, origin_));
  }
  // The phase is disabled by default.
  core::GeneratorOptions defaults;
  defaults.max_removals = 1;
  EXPECT_TRUE(core::ConfigGenerator(origin_, defaults)
                  .community_phase(graph_)
                  .empty());
}

TEST_F(CommunityTest, FullPlanIncludesCommunitiesWhenEnabled) {
  core::GeneratorOptions options;
  options.max_removals = 1;
  options.max_poison_configs = 2;
  options.max_community_configs = 2;
  const core::ConfigGenerator gen(origin_, options);
  const auto plan = gen.full_plan(graph_);
  // 3 location + 4 prepend + 2 poison + 2 community.
  EXPECT_EQ(plan.size(), 11u);
}

}  // namespace
}  // namespace spooftrack
