#include "netcore/icmp.hpp"

#include <gtest/gtest.h>

#include "measure/address_plan.hpp"
#include "measure/verfploeter.hpp"
#include "helpers.hpp"

namespace spooftrack::netcore {
namespace {

const Ipv4Addr kSrc{184, 164, 224, 1};
const Ipv4Addr kDst{20, 0, 0, 16};

TEST(IcmpEcho, RequestRoundTrips) {
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  const auto d = make_icmp_echo(kSrc, kDst, false, 0xBEEF, 7, payload);
  const auto ip = d.ip();
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->protocol, kProtoIcmp);
  EXPECT_EQ(ip->source, kSrc);
  EXPECT_EQ(ip->destination, kDst);

  const auto echo = parse_icmp_echo(d);
  ASSERT_TRUE(echo.has_value());
  EXPECT_FALSE(echo->is_reply);
  EXPECT_EQ(echo->identifier, 0xBEEF);
  EXPECT_EQ(echo->sequence, 7);
}

TEST(IcmpEcho, ChecksumCoversPayload) {
  const std::vector<std::uint8_t> payload{9, 9, 9};
  auto d = make_icmp_echo(kSrc, kDst, false, 1, 2, payload);
  // parse_icmp_echo verifies the ICMP checksum; corrupt a payload byte via
  // a rebuilt datagram with a mismatched checksum.
  std::vector<std::uint8_t> bytes(d.bytes().begin(), d.bytes().end());
  bytes[kIpv4HeaderBytes + kIcmpEchoHeaderBytes] ^= 0xFF;
  // Rebuild a datagram from the corrupted bytes through the raw maker
  // (keeping the IPv4 header valid, the ICMP checksum now stale).
  const auto corrupted = Datagram::make_raw(
      kSrc, kDst, kProtoIcmp,
      std::span<const std::uint8_t>(bytes).subspan(kIpv4HeaderBytes));
  EXPECT_FALSE(parse_icmp_echo(corrupted).has_value());
}

TEST(IcmpEcho, RejectsNonEchoAndNonIcmp) {
  const auto udp = Datagram::make_udp(kSrc, kDst, 1, 2, {});
  EXPECT_FALSE(parse_icmp_echo(udp).has_value());
  // Type 3 (unreachable) is not an echo message.
  std::vector<std::uint8_t> body(kIcmpEchoHeaderBytes, 0);
  body[0] = 3;
  const auto other = Datagram::make_raw(kSrc, kDst, kProtoIcmp, body);
  EXPECT_FALSE(parse_icmp_echo(other).has_value());
}

TEST(IcmpEcho, ReplySwapsAddressesAndEchoesIds) {
  const std::vector<std::uint8_t> payload{5, 6};
  const auto request = make_icmp_echo(kSrc, kDst, false, 42, 3, payload);
  const auto reply = icmp_echo_reply_for(request);
  ASSERT_TRUE(reply.has_value());
  const auto ip = reply->ip();
  EXPECT_EQ(ip->source, kDst);
  EXPECT_EQ(ip->destination, kSrc);
  const auto echo = parse_icmp_echo(*reply);
  ASSERT_TRUE(echo.has_value());
  EXPECT_TRUE(echo->is_reply);
  EXPECT_EQ(echo->identifier, 42);
  EXPECT_EQ(echo->sequence, 3);
  // A reply has no reply.
  EXPECT_FALSE(icmp_echo_reply_for(*reply).has_value());
}

TEST(IcmpEcho, VerfploeterProbeLifecycle) {
  const auto graph = test::small_topology();
  const measure::AddressPlan plan(graph);
  measure::VerfploeterOptions options;
  const measure::VerfploeterProber prober(graph, plan, options);

  const auto probe = prober.make_probe(2, 17);
  const auto ip = probe.ip();
  ASSERT_TRUE(ip.has_value());
  // Probes originate inside the anycast prefix (that is the whole trick).
  EXPECT_EQ(ip->source, measure::AddressPlan::experiment_target());

  const auto reply = icmp_echo_reply_for(probe);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(prober.is_probe_reply(*reply));
  // A reply from a different session is not ours.
  measure::VerfploeterOptions other_options;
  other_options.seed ^= 0x123456;
  const measure::VerfploeterProber other(graph, plan, other_options);
  EXPECT_FALSE(other.is_probe_reply(*reply));
  // The request itself is not a reply.
  EXPECT_FALSE(prober.is_probe_reply(probe));
}

}  // namespace
}  // namespace spooftrack::netcore
