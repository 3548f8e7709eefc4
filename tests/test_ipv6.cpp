#include "netcore/ipv6.hpp"

#include <gtest/gtest.h>

namespace spooftrack::netcore {
namespace {

TEST(Ipv6Addr, ParsesFullForm) {
  const auto addr =
      Ipv6Addr::parse("2001:0db8:0000:0000:0000:ff00:0042:8329");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->group(0), 0x2001);
  EXPECT_EQ(addr->group(1), 0x0db8);
  EXPECT_EQ(addr->group(5), 0xff00);
  EXPECT_EQ(addr->group(7), 0x8329);
}

TEST(Ipv6Addr, ParsesCompressedForms) {
  EXPECT_EQ(Ipv6Addr::parse("::")->to_string(), "::");
  EXPECT_EQ(Ipv6Addr::parse("::1")->to_string(), "::1");
  EXPECT_EQ(Ipv6Addr::parse("2001:db8::1")->group(7), 1);
  EXPECT_EQ(Ipv6Addr::parse("fe80::")->group(0), 0xfe80);
  EXPECT_EQ(Ipv6Addr::parse("2001:db8::ff00:42:8329")->group(5), 0xff00);
}

TEST(Ipv6Addr, ParsesEmbeddedIpv4Tail) {
  const auto addr = Ipv6Addr::parse("::ffff:192.0.2.1");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->group(5), 0xffff);
  EXPECT_EQ(addr->group(6), 0xc000);
  EXPECT_EQ(addr->group(7), 0x0201);
}

struct BadV6 {
  const char* label;  // names the case in the ctest name
  const char* text;
};

// Without this, gtest prints a BadV6 as the bytes of its pointers, which move
// with every run under ASLR, so the discovered ctest names would too.
void PrintTo(const BadV6& in, std::ostream* os) { *os << in.label; }

class Ipv6ParseRejects : public ::testing::TestWithParam<BadV6> {};

TEST_P(Ipv6ParseRejects, Rejects) {
  EXPECT_FALSE(Ipv6Addr::parse(GetParam().text).has_value())
      << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, Ipv6ParseRejects,
    ::testing::Values(BadV6{"Empty", ""}, BadV6{"LoneColon", ":"},
                      BadV6{"TripleColon", ":::"},
                      BadV6{"TwoDoubleColons", "1::2::3"},
                      BadV6{"TwoGroups", "2001:db8"},
                      BadV6{"NineGroups", "1:2:3:4:5:6:7:8:9"},
                      BadV6{"SevenGroups", "1:2:3:4:5:6:7"},
                      BadV6{"FiveDigitGroup", "12345::"},
                      BadV6{"NonHexDigit", "g::1"},
                      BadV6{"SecondDoubleColonAtEnd", "2001:db8::1::"},
                      BadV6{"EightGroupsThenDoubleColon", "1:2:3:4:5:6:7:8::"},
                      BadV6{"BadEmbeddedIpv4", "::192.0.2.999"},
                      BadV6{"TrailingColon", "2001:db8:"}));

TEST(Ipv6Addr, CanonicalFormattingRfc5952) {
  // Longest zero run compressed; leftmost on ties; no single-group "::".
  EXPECT_EQ(Ipv6Addr::parse("2001:0db8:0:0:0:0:2:1")->to_string(),
            "2001:db8::2:1");
  EXPECT_EQ(Ipv6Addr::parse("2001:db8:0:1:1:1:1:1")->to_string(),
            "2001:db8:0:1:1:1:1:1");
  EXPECT_EQ(Ipv6Addr::parse("2001:0:0:1:0:0:0:1")->to_string(),
            "2001:0:0:1::1");
  EXPECT_EQ(Ipv6Addr::parse("1:0:0:2:0:0:0:3")->to_string(), "1:0:0:2::3");
  EXPECT_EQ(Ipv6Addr::parse("0:0:1::")->to_string(), "0:0:1::");
  // "::1:0:0:0:0:0" is the same address; the longer zero run wins.
  EXPECT_EQ(Ipv6Addr::parse("::1:0:0:0:0:0")->to_string(), "0:0:1::");
}

TEST(Ipv6Addr, RoundTripsCanonicalText) {
  for (const char* text :
       {"::", "::1", "2001:db8::2:1", "fe80::1234:5678:9abc:def0",
        "ff02::fb", "2001:db8:0:1:1:1:1:1"}) {
    const auto addr = Ipv6Addr::parse(text);
    ASSERT_TRUE(addr.has_value()) << text;
    EXPECT_EQ(addr->to_string(), text);
    EXPECT_EQ(Ipv6Addr::parse(addr->to_string()), addr);
  }
}

TEST(Ipv6Addr, Classification) {
  EXPECT_TRUE(Ipv6Addr::parse("::1")->is_loopback());
  EXPECT_TRUE(Ipv6Addr::parse("::")->is_unspecified());
  EXPECT_TRUE(Ipv6Addr::parse("fe80::1")->is_link_local());
  EXPECT_FALSE(Ipv6Addr::parse("fec0::1")->is_link_local());
  EXPECT_TRUE(Ipv6Addr::parse("ff02::1")->is_multicast());
  EXPECT_TRUE(Ipv6Addr::parse("2001:db8::5")->is_documentation());
  EXPECT_FALSE(Ipv6Addr::parse("2001:db9::5")->is_documentation());
}

TEST(Ipv6Addr, BitAccessor) {
  const auto addr = *Ipv6Addr::parse("8000::1");
  EXPECT_EQ(addr.bit(0), 1);
  EXPECT_EQ(addr.bit(1), 0);
  EXPECT_EQ(addr.bit(127), 1);
}

TEST(Ipv6Prefix, CanonicalisesHostBits) {
  const auto prefix =
      Ipv6Prefix::make(*Ipv6Addr::parse("2001:db8::ffff"), 48);
  EXPECT_EQ(prefix.to_string(), "2001:db8::/48");
}

TEST(Ipv6Prefix, ParseAndContainment) {
  const auto p48 = Ipv6Prefix::parse("2001:db8:42::/48");
  ASSERT_TRUE(p48.has_value());
  EXPECT_TRUE(p48->contains(*Ipv6Addr::parse("2001:db8:42::1")));
  EXPECT_TRUE(p48->contains(*Ipv6Addr::parse("2001:db8:42:ffff::1")));
  EXPECT_FALSE(p48->contains(*Ipv6Addr::parse("2001:db8:43::1")));

  // The paper's SVI scenario: a /48 inside a /32 — longest prefix wins.
  const auto p32 = *Ipv6Prefix::parse("2001:db8::/32");
  EXPECT_TRUE(p32.contains(*p48));
  EXPECT_FALSE(p48->contains(p32));
}

TEST(Ipv6Prefix, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv6Prefix::parse("2001:db8::/129").has_value());
  EXPECT_FALSE(Ipv6Prefix::parse("2001:db8::/").has_value());
  EXPECT_FALSE(Ipv6Prefix::parse("nonsense/48").has_value());
  // A bare address is a /128.
  EXPECT_EQ(Ipv6Prefix::parse("::1")->length(), 128);
}

TEST(Ipv6Prefix, ZeroLengthCoversEverything) {
  const auto all = Ipv6Prefix::make(Ipv6Addr{}, 0);
  EXPECT_TRUE(all.contains(*Ipv6Addr::parse("ff02::1")));
  EXPECT_TRUE(all.contains(*Ipv6Addr::parse("::")));
}

class Ipv6PrefixLengthSweep : public ::testing::TestWithParam<int> {};

TEST_P(Ipv6PrefixLengthSweep, BaseSurvivesMasking) {
  const auto len = static_cast<std::uint8_t>(GetParam());
  const auto addr = *Ipv6Addr::parse("2001:db8:cafe:f00d::42");
  const auto prefix = Ipv6Prefix::make(addr, len);
  EXPECT_TRUE(prefix.contains(prefix.base()));
  EXPECT_TRUE(prefix.contains(addr));
  // Host bits are zero: re-masking is idempotent.
  EXPECT_EQ(Ipv6Prefix::make(prefix.base(), len), prefix);
}

INSTANTIATE_TEST_SUITE_P(Lengths, Ipv6PrefixLengthSweep,
                         ::testing::Values(0, 1, 7, 32, 48, 64, 127, 128));

}  // namespace
}  // namespace spooftrack::netcore
