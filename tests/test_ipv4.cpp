#include "netcore/ipv4.hpp"

#include <gtest/gtest.h>

namespace spooftrack::netcore {
namespace {

TEST(Ipv4Addr, RoundTripsDottedQuad) {
  const auto addr = Ipv4Addr::parse("192.168.1.42");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->to_string(), "192.168.1.42");
  EXPECT_EQ(addr->value(), 0xC0A8012Au);
}

TEST(Ipv4Addr, OctetAccessors) {
  const Ipv4Addr addr{10, 20, 30, 40};
  EXPECT_EQ(addr.octet(0), 10);
  EXPECT_EQ(addr.octet(1), 20);
  EXPECT_EQ(addr.octet(2), 30);
  EXPECT_EQ(addr.octet(3), 40);
}

TEST(Ipv4Addr, ParsesBoundaryValues) {
  EXPECT_EQ(Ipv4Addr::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(Ipv4Addr::parse("255.255.255.255")->value(), 0xFFFFFFFFu);
}

struct BadInput {
  const char* label;  // names the case in the ctest name
  const char* text;
};

// Without this, gtest prints a BadInput as the bytes of its pointers, which
// move with every run under ASLR, so the discovered ctest names would too.
void PrintTo(const BadInput& in, std::ostream* os) { *os << in.label; }

class Ipv4ParseRejects : public ::testing::TestWithParam<BadInput> {};

TEST_P(Ipv4ParseRejects, Rejects) {
  EXPECT_FALSE(Ipv4Addr::parse(GetParam().text).has_value())
      << "accepted: " << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, Ipv4ParseRejects,
    ::testing::Values(BadInput{"Empty", ""},
                      BadInput{"ThreeOctets", "1.2.3"},
                      BadInput{"FiveOctets", "1.2.3.4.5"},
                      BadInput{"FirstOctetOver255", "256.1.1.1"},
                      BadInput{"LastOctetOver255", "1.2.3.999"},
                      BadInput{"LeadingZero", "01.2.3.4"},
                      BadInput{"TrailingSpace", "1.2.3.4 "},
                      BadInput{"LeadingSpace", " 1.2.3.4"},
                      BadInput{"Letters", "a.b.c.d"},
                      BadInput{"EmptyOctet", "1..2.3"},
                      BadInput{"NegativeOctet", "1.2.3.-4"},
                      BadInput{"PrefixLength", "1.2.3.4/8"}));

TEST(Ipv4Addr, ClassifiesSpecialRanges) {
  EXPECT_TRUE(Ipv4Addr(10, 0, 0, 1).is_private());
  EXPECT_TRUE(Ipv4Addr(172, 16, 0, 1).is_private());
  EXPECT_TRUE(Ipv4Addr(172, 31, 255, 255).is_private());
  EXPECT_FALSE(Ipv4Addr(172, 32, 0, 1).is_private());
  EXPECT_TRUE(Ipv4Addr(192, 168, 5, 5).is_private());
  EXPECT_FALSE(Ipv4Addr(192, 169, 5, 5).is_private());
  EXPECT_TRUE(Ipv4Addr(127, 0, 0, 1).is_loopback());
  EXPECT_TRUE(Ipv4Addr(224, 0, 0, 1).is_multicast());
  EXPECT_TRUE(Ipv4Addr(239, 255, 255, 255).is_multicast());
  EXPECT_FALSE(Ipv4Addr(8, 8, 8, 8).is_private());
}

TEST(Ipv4Addr, OrdersNumerically) {
  EXPECT_LT(Ipv4Addr(1, 2, 3, 4), Ipv4Addr(1, 2, 3, 5));
  EXPECT_LT(Ipv4Addr(9, 255, 255, 255), Ipv4Addr(10, 0, 0, 0));
}

}  // namespace
}  // namespace spooftrack::netcore
