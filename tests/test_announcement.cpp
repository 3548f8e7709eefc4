#include "bgp/announcement.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace spooftrack::bgp {
namespace {

TEST(Announcement, SeedPathPlain) {
  AnnouncementSpec spec{0, 0, {}, {}};
  EXPECT_EQ(seed_path(47065, spec), (std::vector<topology::Asn>{47065}));
}

TEST(Announcement, SeedPathPrepended) {
  AnnouncementSpec spec{0, 4, {}};
  EXPECT_EQ(seed_path(47065, spec),
            (std::vector<topology::Asn>{47065, 47065, 47065, 47065, 47065}));
}

TEST(Announcement, SeedPathPoisonSandwich) {
  AnnouncementSpec spec{0, 0, {3356, 174}};
  EXPECT_EQ(seed_path(47065, spec),
            (std::vector<topology::Asn>{47065, 3356, 47065, 174, 47065}));
}

TEST(Announcement, SeedPathPrependAndPoisonCompose) {
  AnnouncementSpec spec{0, 2, {99}};
  EXPECT_EQ(seed_path(1, spec),
            (std::vector<topology::Asn>{1, 1, 1, 99, 1}));
}

TEST(Announcement, ConfigurationQueries) {
  Configuration config;
  config.announcements.push_back({2, 0, {}, {}});
  config.announcements.push_back({0, 4, {}});
  EXPECT_TRUE(config.announces(0));
  EXPECT_TRUE(config.announces(2));
  EXPECT_FALSE(config.announces(1));
  ASSERT_NE(config.spec_for(0), nullptr);
  EXPECT_EQ(config.spec_for(0)->prepend, 4u);
}

TEST(Announcement, OriginLinkLookup) {
  const OriginSpec origin = test::small_origin();
  ASSERT_NE(origin.link_by_provider(test::kP1), nullptr);
  EXPECT_EQ(origin.link_by_provider(test::kP1)->id, 0u);
  EXPECT_EQ(origin.link_by_provider(424242), nullptr);
}

class AnnouncementValidation : public ::testing::Test {
 protected:
  OriginSpec origin_ = test::small_origin();
};

TEST_F(AnnouncementValidation, AcceptsWellFormed) {
  Configuration config;
  config.announcements.push_back({0, 4, {}});
  config.announcements.push_back({1, 0, {111, 222}});
  EXPECT_NO_THROW(validate(config, origin_));
}

TEST_F(AnnouncementValidation, RejectsEmpty) {
  Configuration config;
  EXPECT_THROW(validate(config, origin_), std::invalid_argument);
}

TEST_F(AnnouncementValidation, RejectsUnknownLink) {
  Configuration config;
  config.announcements.push_back({7, 0, {}, {}});
  EXPECT_THROW(validate(config, origin_), std::invalid_argument);
}

TEST_F(AnnouncementValidation, RejectsDuplicateLink) {
  Configuration config;
  config.announcements.push_back({0, 0, {}, {}});
  config.announcements.push_back({0, 4, {}});
  EXPECT_THROW(validate(config, origin_), std::invalid_argument);
}

TEST_F(AnnouncementValidation, EnforcesPeeringPoisonCap) {
  Configuration config;
  config.announcements.push_back({0, 0, {1, 2, 3}});
  EXPECT_THROW(validate(config, origin_), std::invalid_argument);
}

TEST_F(AnnouncementValidation, RejectsSelfPoison) {
  Configuration config;
  config.announcements.push_back({0, 0, {origin_.asn}});
  EXPECT_THROW(validate(config, origin_), std::invalid_argument);
}

TEST_F(AnnouncementValidation, RejectsExcessivePrepend) {
  Configuration config;
  config.announcements.push_back({0, kMaxPrepend + 1, {}});
  EXPECT_THROW(validate(config, origin_), std::invalid_argument);
}

}  // namespace
}  // namespace spooftrack::bgp
