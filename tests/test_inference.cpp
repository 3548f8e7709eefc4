#include "measure/inference.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace spooftrack::measure {
namespace {

class InferenceTest : public ::testing::Test {
 protected:
  InferenceTest()
      : graph_(test::small_topology()),
        origin_(test::small_origin()),
        inference_(graph_, origin_) {}

  topology::AsId id(topology::Asn asn) const { return *graph_.id_of(asn); }

  topology::AsGraph graph_;
  bgp::OriginSpec origin_;
  CatchmentInference inference_;
};

TEST_F(InferenceTest, LinkFromPlainPath) {
  const std::vector<topology::Asn> path = {test::kC, test::kT1, test::kP1,
                                           test::kOrigin};
  EXPECT_EQ(link_from_as_path(path, origin_), 0u);
}

TEST_F(InferenceTest, LinkFromPrependedPath) {
  const std::vector<topology::Asn> path = {test::kB, test::kP2, test::kOrigin,
                                           test::kOrigin, test::kOrigin};
  EXPECT_EQ(link_from_as_path(path, origin_), 1u);
}

TEST_F(InferenceTest, LinkFromPoisonSandwichPath) {
  const std::vector<topology::Asn> path = {test::kB, test::kP2, test::kOrigin,
                                           test::kT2, test::kOrigin};
  EXPECT_EQ(link_from_as_path(path, origin_), 1u);
}

TEST_F(InferenceTest, NoLinkWhenPathMissesOrigin) {
  const std::vector<topology::Asn> path = {test::kC, test::kT1};
  EXPECT_FALSE(link_from_as_path(path, origin_).has_value());
}

TEST_F(InferenceTest, NoLinkWhenProviderUnknown) {
  const std::vector<topology::Asn> path = {test::kC, test::kT1,
                                           test::kOrigin};
  // t1 is not a peering-link provider.
  EXPECT_FALSE(link_from_as_path(path, origin_).has_value());
}

TEST_F(InferenceTest, FeedVotesCoverIntermediateAses) {
  FeedEntry feed;
  feed.peer = id(test::kC);
  feed.as_path = {test::kC, test::kT1, test::kP1, test::kOrigin};
  const auto result = test::infer(inference_, std::vector<FeedEntry>{feed}, {});
  // c, t1 and p1 are all observed and assigned to link 0.
  for (topology::Asn asn : {test::kC, test::kT1, test::kP1}) {
    EXPECT_EQ(result.catchments[id(asn)], 0u) << asn;
  }
  EXPECT_EQ(result.covered_count, 3u);
  EXPECT_EQ(result.catchments[id(test::kB)], bgp::kNoCatchment);
}

TEST_F(InferenceTest, BgpVotesOutrankTraceroutes) {
  // One BGP vote for link 0; two traceroute votes for link 1. BGP wins.
  FeedEntry feed;
  feed.peer = id(test::kC);
  feed.as_path = {test::kC, test::kT1, test::kP1, test::kOrigin};

  AsLevelPath trace;
  trace.probe = id(test::kC);
  trace.path = {test::kC, test::kT2, test::kP2, test::kOrigin};
  trace.complete = true;

  const auto result =
      test::infer(inference_, std::vector<FeedEntry>{feed},
                  std::vector<AsLevelPath>{trace, trace});
  EXPECT_EQ(result.catchments[id(test::kC)], 0u);
  // The conflict is recorded in the multi-catchment statistic.
  EXPECT_GT(result.multi_catchment_fraction, 0.0);
}

TEST_F(InferenceTest, MajorityWithinTypeWins) {
  AsLevelPath via_p1;
  via_p1.probe = id(test::kC);
  via_p1.path = {test::kC, test::kT1, test::kP1, test::kOrigin};
  via_p1.complete = true;
  AsLevelPath via_p2 = via_p1;
  via_p2.path = {test::kC, test::kT2, test::kP2, test::kOrigin};

  const auto result = test::infer(
      inference_, {}, std::vector<AsLevelPath>{via_p2, via_p1, via_p2});
  EXPECT_EQ(result.catchments[id(test::kC)], 1u);
}

TEST_F(InferenceTest, IncompleteTraceroutesIgnored) {
  AsLevelPath incomplete;
  incomplete.probe = id(test::kC);
  incomplete.path = {test::kC, test::kT1};
  incomplete.complete = false;
  const auto result =
      test::infer(inference_, {}, std::vector<AsLevelPath>{incomplete});
  EXPECT_EQ(result.covered_count, 0u);
}

TEST_F(InferenceTest, MultiCatchmentFractionCounts) {
  // c votes for both links (conflicting traces); t1 only for link 0.
  AsLevelPath via_p1;
  via_p1.probe = id(test::kC);
  via_p1.path = {test::kC, test::kT1, test::kP1, test::kOrigin};
  via_p1.complete = true;
  AsLevelPath via_p2;
  via_p2.probe = id(test::kC);
  via_p2.path = {test::kC, test::kT2, test::kP2, test::kOrigin};
  via_p2.complete = true;

  const auto result =
      test::infer(inference_, {}, std::vector<AsLevelPath>{via_p1, via_p2});
  // Observed: c, t1, p1, t2, p2 = 5; only c conflicts.
  EXPECT_EQ(result.covered_count, 5u);
  EXPECT_NEAR(result.multi_catchment_fraction, 0.2, 1e-9);
}

}  // namespace
}  // namespace spooftrack::measure
