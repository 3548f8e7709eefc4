#include "traffic/honeypot.hpp"

#include <gtest/gtest.h>

#include "measure/address_plan.hpp"
#include "netcore/icmp.hpp"
#include "traffic/spoofer.hpp"

namespace spooftrack::traffic {
namespace {

netcore::Datagram query(netcore::Ipv4Addr victim,
                        AmpProtocol protocol = AmpProtocol::kDnsAny) {
  const auto payload = make_query_payload(protocol);
  return netcore::Datagram::make_udp(
      victim, measure::AddressPlan::experiment_target(), 4242,
      info(protocol).udp_port, payload);
}

const netcore::Ipv4Addr kVictimA{203, 0, 113, 1};
const netcore::Ipv4Addr kVictimB{203, 0, 113, 2};

TEST(Honeypot, CountsPerLink) {
  AmpPotHoneypot pot(3);
  pot.receive(0, query(kVictimA), 0.0);
  pot.receive(0, query(kVictimA), 0.1);
  pot.receive(2, query(kVictimB), 0.2);
  EXPECT_EQ(pot.packets_on(0), 2u);
  EXPECT_EQ(pot.packets_on(1), 0u);
  EXPECT_EQ(pot.packets_on(2), 1u);
  EXPECT_EQ(pot.total_packets(), 3u);
  EXPECT_GT(pot.bytes_on(0), pot.bytes_on(2));
}

TEST(Honeypot, VolumeSharesSumToOne) {
  AmpPotHoneypot pot(2);
  for (int i = 0; i < 3; ++i) pot.receive(0, query(kVictimA), i * 0.01);
  pot.receive(1, query(kVictimB), 0.5);
  const auto shares = pot.volume_by_link();
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_DOUBLE_EQ(shares[0], 0.75);
  EXPECT_DOUBLE_EQ(shares[1], 0.25);
}

TEST(Honeypot, EmptyVolumeIsZero) {
  AmpPotHoneypot pot(2);
  const auto shares = pot.volume_by_link();
  EXPECT_EQ(shares, (std::vector<double>{0.0, 0.0}));
}

TEST(Honeypot, MalformedPacketsRejected) {
  AmpPotHoneypot pot(1);
  const auto bad = query(kVictimA);
  // A link id outside the honeypot's range counts as malformed input.
  pot.receive(7, bad, 0.0);
  EXPECT_EQ(pot.total_packets(), 0u);
  EXPECT_EQ(pot.malformed_packets(), 1u);
}

// Packets the one-parse ingest must still refuse: not UDP at all, a UDP
// body too short for its header, and a UDP length past the datagram. The
// echo's identifier, 8, sits where a UDP length would, so only the
// protocol check refuses it.
TEST(Honeypot, NonUdpAndTruncatedUdpAreMalformed) {
  const auto target = measure::AddressPlan::experiment_target();
  const std::vector<std::uint8_t> short_body{0x10, 0x92, 0, 53, 0};
  std::vector<std::uint8_t> long_length(12, 0);
  long_length[5] = 40;  // a 40-byte UDP datagram in a 12-byte body
  const std::vector<netcore::Datagram> bad{
      netcore::make_icmp_echo(kVictimA, target, false, 8, 2, {}),
      netcore::Datagram::make_raw(kVictimA, target, netcore::kProtoUdp,
                                  short_body),
      netcore::Datagram::make_raw(kVictimA, target, netcore::kProtoUdp,
                                  long_length)};
  HoneypotOptions options;
  options.attack_min_packets = 1;
  AmpPotHoneypot pot(1, options);
  for (const auto& datagram : bad) {
    ASSERT_TRUE(datagram.ip().has_value());
    pot.receive(0, datagram, 0.0);
  }
  EXPECT_EQ(pot.malformed_packets(), 3u);
  EXPECT_EQ(pot.total_packets(), 0u);
  EXPECT_EQ(pot.bytes_on(0), 0u);
  EXPECT_EQ(pot.responses_sent() + pot.responses_suppressed(), 0u);
  EXPECT_TRUE(pot.attacks().empty());
}

TEST(Honeypot, ResponseRateLimiting) {
  HoneypotOptions options;
  options.response_rate_limit_pps = 2.0;
  AmpPotHoneypot pot(1, options);
  // 100 packets in one second: at most ~2 + initial bucket responses.
  for (int i = 0; i < 100; ++i) {
    pot.receive(0, query(kVictimA), static_cast<double>(i) / 100.0);
  }
  EXPECT_LE(pot.responses_sent(), 5u);
  EXPECT_GE(pot.responses_suppressed(), 95u);
  EXPECT_GT(pot.reflection_bytes_avoided(), 0u);
}

TEST(Honeypot, AttackDetectionThreshold) {
  HoneypotOptions options;
  options.attack_min_packets = 10;
  AmpPotHoneypot pot(1, options);
  for (int i = 0; i < 15; ++i) {
    pot.receive(0, query(kVictimA), i * 0.1);
  }
  for (int i = 0; i < 3; ++i) {
    pot.receive(0, query(kVictimB), i * 0.1);  // scanner-like
  }
  const auto attacks = pot.attacks();
  ASSERT_EQ(attacks.size(), 1u);
  EXPECT_EQ(attacks[0].victim, kVictimA);
  EXPECT_EQ(attacks[0].packets, 15u);
  EXPECT_DOUBLE_EQ(attacks[0].first_seen, 0.0);
  EXPECT_DOUBLE_EQ(attacks[0].last_seen, 1.4);
}

TEST(Honeypot, OutOfOrderTimestampsMergeVictimWindow) {
  HoneypotOptions options;
  options.attack_min_packets = 1;
  AmpPotHoneypot pot(1, options);
  pot.receive(0, query(kVictimA), 5.0);
  pot.receive(0, query(kVictimA), 2.0);  // late delivery from another tap
  pot.receive(0, query(kVictimA), 9.0);
  EXPECT_EQ(pot.out_of_order_packets(), 1u);
  const auto attacks = pot.attacks();
  ASSERT_EQ(attacks.size(), 1u);
  EXPECT_EQ(attacks[0].packets, 3u);
  EXPECT_DOUBLE_EQ(attacks[0].first_seen, 2.0);
  EXPECT_DOUBLE_EQ(attacks[0].last_seen, 9.0);
}

TEST(Honeypot, OutOfOrderTimestampDoesNotRewindTokenBucket) {
  HoneypotOptions options;
  options.response_rate_limit_pps = 1.0;  // bucket starts with one token
  AmpPotHoneypot pot(1, options);
  pot.receive(0, query(kVictimA), 10.0);  // spends the token
  EXPECT_EQ(pot.responses_sent(), 1u);
  // An out-of-order packet must neither crash nor re-grant tokens by
  // rewinding the refill clock.
  pot.receive(0, query(kVictimA), 0.0);
  EXPECT_EQ(pot.responses_sent(), 1u);
  EXPECT_EQ(pot.responses_suppressed(), 1u);
  EXPECT_EQ(pot.out_of_order_packets(), 1u);
  // Time moving forward refills from the un-rewound clock as usual.
  pot.receive(0, query(kVictimA), 11.0);
  EXPECT_EQ(pot.responses_sent(), 2u);
}

TEST(Honeypot, EqualTimestampsAreNotOutOfOrder) {
  AmpPotHoneypot pot(1);
  pot.receive(0, query(kVictimA), 1.0);
  pot.receive(0, query(kVictimB), 1.0);
  EXPECT_EQ(pot.out_of_order_packets(), 0u);
}

TEST(Honeypot, AttacksSortedByVolume) {
  HoneypotOptions options;
  options.attack_min_packets = 1;
  AmpPotHoneypot pot(1, options);
  for (int i = 0; i < 5; ++i) pot.receive(0, query(kVictimA), 0.0);
  for (int i = 0; i < 9; ++i) pot.receive(0, query(kVictimB), 0.0);
  const auto attacks = pot.attacks();
  ASSERT_EQ(attacks.size(), 2u);
  EXPECT_EQ(attacks[0].victim, kVictimB);
  EXPECT_EQ(attacks[1].victim, kVictimA);
}

}  // namespace
}  // namespace spooftrack::traffic
