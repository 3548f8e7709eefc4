#include "measure/verfploeter.hpp"

#include <gtest/gtest.h>

#include "bgp/catchment.hpp"
#include "helpers.hpp"

namespace spooftrack::measure {
namespace {

class VerfploeterTest : public ::testing::Test {
 protected:
  VerfploeterTest()
      : graph_(test::small_topology()),
        policy_(graph_, test::clean_policy_config()),
        engine_(graph_, policy_),
        origin_(test::small_origin()),
        plan_(graph_) {}

  VerfploeterOptions lossless() const {
    VerfploeterOptions options;
    options.responsive_prob = 1.0;
    options.loss_prob = 0.0;
    return options;
  }

  topology::AsGraph graph_;
  bgp::RoutingPolicy policy_;
  bgp::Engine engine_;
  bgp::OriginSpec origin_;
  AddressPlan plan_;
};

TEST_F(VerfploeterTest, LosslessProbeMatchesGroundTruth) {
  const VerfploeterProber prober(graph_, plan_, lossless());
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  const auto truth = bgp::extract_catchments(outcome, config);
  const auto result =
      prober.probe(outcome, config, *graph_.id_of(test::kOrigin), 0);

  EXPECT_EQ(result.covered_count, graph_.size() - 1);
  EXPECT_EQ(result.multi_catchment_fraction, 0.0);
  for (topology::AsId id = 0; id < graph_.size(); ++id) {
    if (id == *graph_.id_of(test::kOrigin)) {
      EXPECT_EQ(result.catchments.link_of[id], bgp::kNoCatchment);
      continue;
    }
    EXPECT_NE(result.catchments.link_of[id], bgp::kNoCatchment);
    EXPECT_EQ(result.catchments.link_of[id], truth[id]);
  }
}

TEST_F(VerfploeterTest, UnresponsiveAsesStayUnobserved) {
  VerfploeterOptions options = lossless();
  options.responsive_prob = 0.0;
  const VerfploeterProber prober(graph_, plan_, options);
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  const auto result =
      prober.probe(outcome, config, *graph_.id_of(test::kOrigin), 0);
  EXPECT_EQ(result.covered_count, 0u);
}

TEST_F(VerfploeterTest, ResponsivenessIsPersistentPerSeed) {
  VerfploeterOptions options;
  options.responsive_prob = 0.5;
  const VerfploeterProber a(graph_, plan_, options);
  const VerfploeterProber b(graph_, plan_, options);
  for (topology::AsId id = 0; id < graph_.size(); ++id) {
    EXPECT_EQ(a.responsive(id), b.responsive(id));
  }
  options.seed ^= 1;
  const VerfploeterProber c(graph_, plan_, options);
  bool differs = false;
  for (topology::AsId id = 0; id < graph_.size(); ++id) {
    differs |= a.responsive(id) != c.responsive(id);
  }
  EXPECT_TRUE(differs);
}

TEST_F(VerfploeterTest, RetriesRecoverTransientLoss) {
  VerfploeterOptions options = lossless();
  options.loss_prob = 0.5;
  options.rounds = 12;  // (1/2)^12 residual loss: negligible here
  const VerfploeterProber prober(graph_, plan_, options);
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  const auto result =
      prober.probe(outcome, config, *graph_.id_of(test::kOrigin), 0);
  EXPECT_GE(result.covered_count, graph_.size() - 2);
}

TEST_F(VerfploeterTest, ZeroRoundsClampedToOneRound) {
  // rounds == 0 would silently probe nothing and report zero coverage for
  // every deployment; the prober clamps it to a single round instead.
  VerfploeterOptions options = lossless();
  options.rounds = 0;
  const VerfploeterProber prober(graph_, plan_, options);
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  const auto result =
      prober.probe(outcome, config, *graph_.id_of(test::kOrigin), 0);
  EXPECT_EQ(result.covered_count, graph_.size() - 1);
}

TEST_F(VerfploeterTest, OutOfRangeProbabilitiesClamped) {
  VerfploeterOptions options;
  options.responsive_prob = 1.7;  // clamped to 1.0: everyone responds
  options.loss_prob = -0.3;       // clamped to 0.0: nothing is lost
  options.rounds = 1;
  const VerfploeterProber prober(graph_, plan_, options);
  for (topology::AsId id = 0; id < graph_.size(); ++id) {
    EXPECT_TRUE(prober.responsive(id));
  }
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  const auto result =
      prober.probe(outcome, config, *graph_.id_of(test::kOrigin), 0);
  EXPECT_EQ(result.covered_count, graph_.size() - 1);
}

TEST_F(VerfploeterTest, UnroutedTargetsCannotReply) {
  const VerfploeterProber prober(graph_, plan_, lossless());
  bgp::Configuration config;
  config.announcements.push_back({0, 0, {}, {}});
  auto outcome = engine_.run(origin_, config);
  // Sever b's route artificially: no reply possible.
  outcome.best[*graph_.id_of(test::kB)] = bgp::Route{};
  const auto result =
      prober.probe(outcome, config, *graph_.id_of(test::kOrigin), 0);
  EXPECT_EQ(result.catchments.link_of[*graph_.id_of(test::kB)],
            bgp::kNoCatchment);
}

}  // namespace
}  // namespace spooftrack::measure
