#include "core/hijack.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace spooftrack::core {
namespace {

using test::catchment_map;

TEST(Hijack, EnumeratesNonDegenerateMasks) {
  const auto config = test::announce_all(2);
  const auto scenarios =
      hijack_coverage(catchment_map({0, 0, 1, 1}), config);
  // 2^2 - 2 = 2 scenarios (mask 01 and 10).
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].hijacker_mask, 1u);
  EXPECT_EQ(scenarios[1].hijacker_mask, 2u);
}

TEST(Hijack, CapturedFractionMatchesCatchments) {
  const auto config = test::announce_all(2);
  const auto scenarios =
      hijack_coverage(catchment_map({0, 0, 0, 1, bgp::kNoCatchment}), config);
  // 4 routed ASes: 3 on link 0, 1 on link 1.
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_DOUBLE_EQ(scenarios[0].captured_fraction, 0.75);  // hijacker = l0
  EXPECT_DOUBLE_EQ(scenarios[1].captured_fraction, 0.25);  // hijacker = l1
  EXPECT_EQ(scenarios[0].hijacker_announcements, 1u);
}

TEST(Hijack, ComplementaryMasksSumToOne) {
  bgp::Configuration config;
  for (bgp::LinkId l = 0; l < 3; ++l) config.announcements.push_back({l, 0, {}, {}});
  const auto scenarios =
      hijack_coverage(catchment_map({0, 1, 2, 0, 1, 2, 0}), config);
  ASSERT_EQ(scenarios.size(), 6u);
  for (const auto& s : scenarios) {
    const std::uint32_t complement = 0b111u ^ s.hijacker_mask;
    for (const auto& other : scenarios) {
      if (other.hijacker_mask == complement) {
        EXPECT_NEAR(s.captured_fraction + other.captured_fraction, 1.0, 1e-9);
      }
    }
  }
}

TEST(Hijack, NoRoutedAsesYieldsEmpty) {
  const auto config = test::announce_all(2);
  EXPECT_TRUE(
      hijack_coverage(
          catchment_map({bgp::kNoCatchment, bgp::kNoCatchment}), config)
          .empty());
}

TEST(Hijack, RejectsDegenerateConfigs) {
  bgp::Configuration empty;
  EXPECT_THROW(hijack_coverage(catchment_map({0}), empty),
               std::invalid_argument);
  bgp::Configuration huge;
  for (bgp::LinkId l = 0; l < 21; ++l) huge.announcements.push_back({l, 0, {}, {}});
  EXPECT_THROW(hijack_coverage(catchment_map({0}), huge),
               std::invalid_argument);
}

}  // namespace
}  // namespace spooftrack::core
