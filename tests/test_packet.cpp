#include "netcore/packet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "measure/address_plan.hpp"
#include "traffic/amplification.hpp"

namespace spooftrack::netcore {
namespace {

const Ipv4Addr kSrc{192, 0, 2, 1};
const Ipv4Addr kDst{198, 51, 100, 7};

std::vector<std::uint8_t> payload_bytes() { return {0xde, 0xad, 0xbe, 0xef}; }

TEST(Datagram, BuildsValidUdpPacket) {
  const auto payload = payload_bytes();
  const auto d = Datagram::make_udp(kSrc, kDst, 1234, 53, payload);
  EXPECT_EQ(d.bytes().size(),
            kIpv4HeaderBytes + kUdpHeaderBytes + payload.size());

  const auto ip = d.ip();
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->source, kSrc);
  EXPECT_EQ(ip->destination, kDst);
  EXPECT_EQ(ip->protocol, kProtoUdp);
  EXPECT_EQ(ip->total_length, d.bytes().size());

  const auto udp = d.udp();
  ASSERT_TRUE(udp.has_value());
  EXPECT_EQ(udp->source_port, 1234);
  EXPECT_EQ(udp->destination_port, 53);
  EXPECT_EQ(udp->length, kUdpHeaderBytes + payload.size());
}

TEST(Datagram, PayloadRoundTrips) {
  const auto payload = payload_bytes();
  const auto d = Datagram::make_udp(kSrc, kDst, 1, 2, payload);
  const auto view = d.payload();
  ASSERT_EQ(view.size(), payload.size());
  EXPECT_TRUE(std::equal(view.begin(), view.end(), payload.begin()));
}

TEST(Datagram, UdpChecksumVerifies) {
  const auto payload = payload_bytes();
  const auto d = Datagram::make_udp(kSrc, kDst, 1234, 53, payload);
  const auto udp_bytes =
      std::span<const std::uint8_t>(d.bytes()).subspan(kIpv4HeaderBytes);
  EXPECT_TRUE(UdpHeader::verify(udp_bytes, kSrc, kDst));
  // Verification against the wrong pseudo-header (spoof check) fails.
  EXPECT_FALSE(UdpHeader::verify(udp_bytes, Ipv4Addr{1, 2, 3, 4}, kDst));
}

TEST(Ipv4HeaderTest, CorruptionIsDetected) {
  const auto d = Datagram::make_udp(kSrc, kDst, 1, 2, payload_bytes());
  std::vector<std::uint8_t> bytes(d.bytes().begin(), d.bytes().end());
  bytes[13] ^= 0x40;  // flip a source-address bit
  EXPECT_FALSE(Ipv4Header::parse(bytes).has_value());
}

TEST(Ipv4HeaderTest, RejectsTruncatedAndNonV4) {
  std::vector<std::uint8_t> short_buf(10, 0);
  EXPECT_FALSE(Ipv4Header::parse(short_buf).has_value());
  auto d = Datagram::make_udp(kSrc, kDst, 1, 2, payload_bytes());
  std::vector<std::uint8_t> bytes(d.bytes().begin(), d.bytes().end());
  bytes[0] = 0x65;  // version 6
  EXPECT_FALSE(Ipv4Header::parse(bytes).has_value());
}

TEST(Datagram, ForwardHopDecrementsTtlAndKeepsChecksumValid) {
  auto d = Datagram::make_udp(kSrc, kDst, 1, 2, payload_bytes(), 3);
  ASSERT_TRUE(d.ip().has_value());
  EXPECT_EQ(d.ip()->ttl, 3);
  EXPECT_TRUE(d.forward_hop());
  ASSERT_TRUE(d.ip().has_value()) << "checksum must be re-valid after hop";
  EXPECT_EQ(d.ip()->ttl, 2);
  EXPECT_TRUE(d.forward_hop());
  EXPECT_EQ(d.ip()->ttl, 1);
  // TTL 1 cannot be forwarded further.
  EXPECT_FALSE(d.forward_hop());
  EXPECT_EQ(d.ip()->ttl, 1);
}

TEST(Datagram, EmptyPayloadSupported) {
  const auto d = Datagram::make_udp(kSrc, kDst, 9, 9, {});
  ASSERT_TRUE(d.udp().has_value());
  EXPECT_EQ(d.udp()->length, kUdpHeaderBytes);
  EXPECT_TRUE(d.payload().empty());
  const auto udp_bytes =
      std::span<const std::uint8_t>(d.bytes()).subspan(kIpv4HeaderBytes);
  EXPECT_TRUE(UdpHeader::verify(udp_bytes, kSrc, kDst));
}

TEST(UdpHeaderTest, RejectsBadLengths) {
  std::vector<std::uint8_t> buf(8, 0);
  buf[4] = 0;
  buf[5] = 4;  // length 4 < header size
  EXPECT_FALSE(UdpHeader::parse(buf).has_value());
  buf[5] = 200;  // length beyond buffer
  EXPECT_FALSE(UdpHeader::parse(buf).has_value());
}

// Every source port of every amplification query: the template's copy
// and patch equals a full make_udp, including the one port per template
// whose sum folds to zero and is sent as 0xFFFF (RFC 768). For the DNS
// query from victim 192.0.2.1 to the experiment target that port, 63605,
// lies outside the 1024-61023 range the spoofer draws from, so only an
// all-ports sweep reaches it.
TEST(UdpTemplate, MatchesMakeUdpOnEveryPortAndProtocol) {
  const Ipv4Addr victim{192, 0, 2, 1};
  const Ipv4Addr target = measure::AddressPlan::experiment_target();
  for (const auto& protocol : traffic::amplification_table()) {
    const auto payload = traffic::make_query_payload(protocol.protocol);
    const UdpTemplate packets(victim, target, protocol.udp_port, payload);
    std::vector<std::uint32_t> zero_sum_ports;
    for (std::uint32_t port = 0; port <= 0xFFFF; ++port) {
      const auto p = static_cast<std::uint16_t>(port);
      const Datagram made = packets.make(p);
      const Datagram full =
          Datagram::make_udp(victim, target, p, protocol.udp_port, payload);
      ASSERT_TRUE(std::ranges::equal(made.bytes(), full.bytes()))
          << protocol.name << " port " << port;
      if (made.udp()->checksum == 0xFFFF) zero_sum_ports.push_back(port);
    }
    ASSERT_EQ(zero_sum_ports.size(), 1u) << protocol.name;
    const Datagram folded =
        packets.make(static_cast<std::uint16_t>(zero_sum_ports[0]));
    EXPECT_TRUE(UdpHeader::verify(folded.bytes().subspan(kIpv4HeaderBytes),
                                  victim, target))
        << protocol.name;
    if (protocol.protocol == traffic::AmpProtocol::kDnsAny) {
      EXPECT_EQ(zero_sum_ports[0], 63605u);
    }
  }
}

// Datagrams of up to Datagram::kInlineBytes live inline, larger ones on
// the heap: both sides of the boundary round-trip, copy, move and forward.
TEST(Datagram, InlineAndHeapSizesRoundTrip) {
  for (const std::size_t size : {127u, 128u, 129u, 1400u}) {
    SCOPED_TRACE(size);
    std::vector<std::uint8_t> body(size - kIpv4HeaderBytes);
    for (std::size_t i = 0; i < body.size(); ++i) {
      body[i] = static_cast<std::uint8_t>(i * 7 + 1);
    }
    const auto d = Datagram::make_raw(kSrc, kDst, 99, body, 9);
    ASSERT_EQ(d.bytes().size(), size);
    ASSERT_TRUE(d.ip().has_value());
    EXPECT_EQ(d.ip()->total_length, size);
    EXPECT_EQ(d.ip()->protocol, 99);
    EXPECT_TRUE(std::ranges::equal(d.ip_payload(), body));

    Datagram copy = d;
    EXPECT_TRUE(std::ranges::equal(copy.bytes(), d.bytes()));
    EXPECT_NE(copy.bytes().data(), d.bytes().data());
    Datagram moved = std::move(copy);
    EXPECT_TRUE(std::ranges::equal(moved.bytes(), d.bytes()));
    EXPECT_TRUE(std::ranges::equal(moved.ip_payload(), body));
    Datagram assigned;
    assigned = moved;
    EXPECT_TRUE(std::ranges::equal(assigned.bytes(), d.bytes()));

    ASSERT_TRUE(moved.forward_hop());
    ASSERT_TRUE(moved.ip().has_value()) << "checksum must be re-valid";
    EXPECT_EQ(moved.ip()->ttl, 8);
    EXPECT_TRUE(std::ranges::equal(moved.ip_payload(), body));
    // The copies share no bytes.
    EXPECT_EQ(d.ip()->ttl, 9);
    EXPECT_EQ(assigned.ip()->ttl, 9);
  }
}

}  // namespace
}  // namespace spooftrack::netcore
