#include "bgp/catchment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "helpers.hpp"
#include "util/rng.hpp"

namespace spooftrack::bgp {
namespace {

class CatchmentTest : public ::testing::Test {
 protected:
  CatchmentTest()
      : graph_(test::small_topology()),
        policy_(graph_, test::clean_policy_config()),
        engine_(graph_, policy_),
        origin_(test::small_origin()) {}

  topology::AsGraph graph_;
  RoutingPolicy policy_;
  Engine engine_;
  OriginSpec origin_;
};

TEST_F(CatchmentTest, PartitionCoversAllRoutedAses) {
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  const auto map = extract_catchments(outcome, config);
  // Everything except the origin is routed.
  EXPECT_EQ(map.routed_count(), graph_.size() - 1);
  EXPECT_EQ(map.count(0) + map.count(1), map.routed_count());
  EXPECT_EQ(map[*graph_.id_of(test::kOrigin)], kNoCatchment);
}

TEST_F(CatchmentTest, MembersMatchCounts) {
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  const auto map = extract_catchments(outcome, config);
  for (LinkId link : {0u, 1u}) {
    EXPECT_EQ(map.members(link).size(), map.count(link));
    for (topology::AsId id : map.members(link)) {
      EXPECT_EQ(map[id], link);
    }
  }
}

TEST_F(CatchmentTest, CountsMatchesPerLinkScan) {
  const auto config = test::announce_all(2);
  const auto outcome = engine_.run(origin_, config);
  const auto map = extract_catchments(outcome, config);

  // The one-pass totals equal a links x count(link) scan, and missing
  // cells never count towards any link.
  const auto totals = map.counts(kMaxCatchmentLinks);
  ASSERT_EQ(totals.size(), kMaxCatchmentLinks);
  std::size_t sum = 0;
  for (LinkId link = 0; link < kMaxCatchmentLinks; ++link) {
    EXPECT_EQ(totals[link], map.count(link)) << "link " << link;
    sum += totals[link];
  }
  EXPECT_EQ(sum, map.routed_count());

  // A shorter horizon just truncates; links beyond it are ignored.
  const auto narrow = map.counts(1);
  ASSERT_EQ(narrow.size(), 1u);
  EXPECT_EQ(narrow[0], map.count(0));
}

TEST_F(CatchmentTest, SingleLinkCatchmentIsEverything) {
  Configuration config;
  config.announcements.push_back({0, 0, {}, {}});
  const auto outcome = engine_.run(origin_, config);
  const auto map = extract_catchments(outcome, config);
  EXPECT_EQ(map.count(0), graph_.size() - 1);
  EXPECT_EQ(map.count(1), 0u);
}

TEST_F(CatchmentTest, CatchmentIdentifiesLinkNotAnnouncementIndex) {
  // Announce only link 1: announcement index 0 maps to link 1.
  Configuration config;
  config.announcements.push_back({1, 0, {}, {}});
  const auto outcome = engine_.run(origin_, config);
  const auto map = extract_catchments(outcome, config);
  EXPECT_EQ(map[*graph_.id_of(test::kB)], 1u);
}

// --- One byte per AS -----------------------------------------------------

TEST(CatchmentMapCells, EveryLinkIdAndNoCatchmentRoundTrip) {
  CatchmentMap map(kMaxCatchmentLinks + 1);
  for (LinkId link = 0; link < kMaxCatchmentLinks; ++link) map.set(link, link);
  map.set(kMaxCatchmentLinks, kNoCatchment);
  for (LinkId link = 0; link < kMaxCatchmentLinks; ++link) {
    EXPECT_EQ(map[link], link);
    EXPECT_EQ(map.cells()[link], link);
  }
  EXPECT_EQ(map[kMaxCatchmentLinks], kNoCatchment);
  EXPECT_EQ(map.cells()[kMaxCatchmentLinks], kNoCatchment8);
  // A routed AS can lose its route again.
  map.set(5, kNoCatchment);
  EXPECT_EQ(map[5], kNoCatchment);
  // A fresh map routes nothing.
  const CatchmentMap empty(3);
  for (topology::AsId id = 0; id < 3; ++id) EXPECT_EQ(empty[id], kNoCatchment);
}

TEST(CatchmentMapCells, LinksNoByteHoldsThrow) {
  CatchmentMap map(1);
  map.set(0, 7);
  for (const LinkId link : {62u, 63u, 254u, 255u, 256u, 0xFFFFFFFEu}) {
    EXPECT_THROW(map.set(0, link), std::out_of_range) << link;
    EXPECT_EQ(map[0], 7u) << "a rejected write leaves the cell alone";
  }
  // Adopted cells are checked the same way.
  EXPECT_THROW(CatchmentMap(std::vector<std::uint8_t>{0, 62}),
               std::out_of_range);
  EXPECT_THROW(CatchmentMap(std::vector<std::uint8_t>{0xFE}),
               std::out_of_range);
  const CatchmentMap adopted(std::vector<std::uint8_t>{0, 61, kNoCatchment8});
  EXPECT_EQ(adopted[0], 0u);
  EXPECT_EQ(adopted[1], 61u);
  EXPECT_EQ(adopted[2], kNoCatchment);
}

TEST(CatchmentMapCells, QueriesAgreeWithALinkIdReference) {
  util::Rng rng(0xCA7C);
  for (const std::uint32_t links : {1u, 7u, kMaxCatchmentLinks}) {
    SCOPED_TRACE(links);
    std::vector<LinkId> reference(997);
    for (LinkId& link : reference) {
      link = rng.chance(0.2) ? kNoCatchment
                             : static_cast<LinkId>(rng.next_below(links));
    }
    const CatchmentMap map = test::catchment_map(reference);
    ASSERT_EQ(map.size(), reference.size());

    std::vector<LinkId> queries{kNoCatchment, kMaxCatchmentLinks, 255, 256};
    for (LinkId link = 0; link < links; ++link) queries.push_back(link);
    for (const LinkId link : queries) {
      EXPECT_EQ(map.count(link),
                static_cast<std::size_t>(
                    std::count(reference.begin(), reference.end(), link)))
          << "link " << link;
      std::vector<topology::AsId> members;
      for (topology::AsId id = 0; id < reference.size(); ++id) {
        if (reference[id] == link) members.push_back(id);
      }
      EXPECT_EQ(map.members(link), members) << "link " << link;
    }
    for (const std::size_t link_count : {0u, 1u, 7u, 62u, 300u}) {
      std::vector<std::size_t> totals(link_count, 0);
      for (const LinkId link : reference) {
        if (link < link_count) ++totals[link];
      }
      EXPECT_EQ(map.counts(link_count), totals) << "horizon " << link_count;
    }
    EXPECT_EQ(map.routed_count(),
              reference.size() - static_cast<std::size_t>(std::count(
                                     reference.begin(), reference.end(),
                                     kNoCatchment)));
  }
}

}  // namespace
}  // namespace spooftrack::bgp
