#include "traffic/spoofer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "helpers.hpp"

namespace spooftrack::traffic {
namespace {

const netcore::Ipv4Addr kVictim{203, 0, 113, 50};

TEST(Spoofer, FlowsFollowVolumes) {
  SpoofedTrafficGenerator gen(1);
  const std::vector<topology::AsId> sources{0, 1, 2};
  const std::vector<double> volume{0.5, 0.0, 0.5};
  const auto flows = gen.flows(sources, volume, kVictim,
                               AmpProtocol::kDnsAny, 1000.0);
  ASSERT_EQ(flows.size(), 2u);  // zero-volume source skipped
  EXPECT_EQ(flows[0].source_as, 0u);
  EXPECT_DOUBLE_EQ(flows[0].packets_per_second, 500.0);
  EXPECT_EQ(flows[1].source_as, 2u);
}

TEST(Spoofer, PacketsCarrySpoofedSource) {
  SpoofedTrafficGenerator gen(2);
  SpoofedFlow flow;
  flow.source_as = 0;
  flow.victim = kVictim;
  flow.protocol = AmpProtocol::kNtpMonlist;
  const auto packet = gen.make_packet(flow, 4444);
  const auto ip = packet.ip();
  ASSERT_TRUE(ip.has_value());
  // The source address is the victim — that is the spoof.
  EXPECT_EQ(ip->source, kVictim);
  EXPECT_EQ(ip->destination, measure::AddressPlan::experiment_target());
  const auto udp = packet.udp();
  ASSERT_TRUE(udp.has_value());
  EXPECT_EQ(udp->destination_port, info(AmpProtocol::kNtpMonlist).udp_port);
  EXPECT_EQ(udp->source_port, 4444);
  EXPECT_EQ(packet.payload().size(),
            info(AmpProtocol::kNtpMonlist).request_bytes);
}

TEST(Spoofer, DeliveryFollowsCatchments) {
  SpoofedTrafficGenerator gen(3);
  const bgp::CatchmentMap catchments =
      test::catchment_map({0, 1, bgp::kNoCatchment});

  std::vector<SpoofedFlow> flows(3);
  for (std::size_t i = 0; i < 3; ++i) {
    flows[i].source_as = static_cast<topology::AsId>(i);
    flows[i].victim = kVictim;
    flows[i].packets_per_second = 100.0;
  }
  const auto arrivals = gen.deliver(flows, catchments, 1.0);
  ASSERT_FALSE(arrivals.empty());
  std::size_t on_link0 = 0, on_link1 = 0;
  for (const auto& a : arrivals) {
    ASSERT_NE(a.true_source, 2u) << "unrouted source delivered traffic";
    if (a.link == 0) {
      EXPECT_EQ(a.true_source, 0u);
      ++on_link0;
    } else {
      EXPECT_EQ(a.link, 1u);
      EXPECT_EQ(a.true_source, 1u);
      ++on_link1;
    }
  }
  // ~100 packets per routed flow.
  EXPECT_NEAR(static_cast<double>(on_link0), 100.0, 2.0);
  EXPECT_NEAR(static_cast<double>(on_link1), 100.0, 2.0);
}

TEST(Spoofer, ArrivalsSortedByTime) {
  SpoofedTrafficGenerator gen(4);
  const bgp::CatchmentMap catchments = test::catchment_map({0});
  std::vector<SpoofedFlow> flows(1);
  flows[0].source_as = 0;
  flows[0].victim = kVictim;
  flows[0].packets_per_second = 200.0;
  const auto arrivals = gen.deliver(flows, catchments, 2.0);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LE(arrivals[i - 1].timestamp, arrivals[i].timestamp);
  }
  for (const auto& a : arrivals) {
    EXPECT_GE(a.timestamp, 0.0);
    EXPECT_LT(a.timestamp, 2.0);
  }
}

TEST(Spoofer, MaxPacketCapRespected) {
  SpoofedTrafficGenerator gen(5);
  const bgp::CatchmentMap catchments = test::catchment_map({0});
  std::vector<SpoofedFlow> flows(1);
  flows[0].source_as = 0;
  flows[0].victim = kVictim;
  flows[0].packets_per_second = 1e9;
  const auto arrivals = gen.deliver(flows, catchments, 10.0, 500);
  EXPECT_EQ(arrivals.size(), 500u);
}

// Flows over all six protocols: two routed at ordinary rates, one at a
// rate the caps bind, one at zero rate, one unrouted and one whose source
// lies past the catchment map.
std::vector<SpoofedFlow> mixed_flows(AmpProtocol protocol) {
  const std::vector<std::pair<topology::AsId, double>> sources{
      {0, 40.0}, {4, 50.0}, {1, 0.0}, {99, 30.0}, {2, 13.5}, {3, 2000.0}};
  std::vector<SpoofedFlow> flows;
  for (const auto& [as, pps] : sources) {
    SpoofedFlow flow;
    flow.source_as = as;
    flow.victim = kVictim;
    flow.protocol = protocol;
    flow.packets_per_second = pps;
    flows.push_back(flow);
  }
  return flows;
}

const bgp::CatchmentMap& mixed_catchments() {
  static const bgp::CatchmentMap map =
      test::catchment_map({0, 2, 1, 2, bgp::kNoCatchment});
  return map;
}

// A digest of every arrival (count, link, true source, timestamp bits and
// datagram bytes) over protocols x durations x caps, recorded before
// deliver built datagrams from per-flow templates and sorted keys. The
// last calls per protocol send capped floods over a zero or subnormal
// duration, so nearly every timestamp ties and the digest pins the order
// std::sort leaves ties in.
TEST(Spoofer, DeliverDigestIsPinned) {
  test::Fnv1a digest;
  auto add = [&](const std::vector<ArrivedPacket>& arrivals) {
    const std::uint64_t count = arrivals.size();
    digest.bytes(&count, sizeof count);
    for (const auto& a : arrivals) {
      digest.bytes(&a.link, sizeof a.link);
      digest.bytes(&a.true_source, sizeof a.true_source);
      digest.bytes(&a.timestamp, sizeof a.timestamp);
      digest.bytes(a.datagram.bytes().data(), a.datagram.bytes().size());
    }
  };
  SpoofedTrafficGenerator gen(2024);
  for (const auto& protocol : amplification_table()) {
    auto flows = mixed_flows(protocol.protocol);
    for (const double duration : {0.5, 1.0, 3.0}) {
      for (const double cap : {50000.0, 17.0, 0.0}) {
        add(gen.deliver(flows, mixed_catchments(), duration, cap));
      }
    }
    for (auto& flow : flows) {
      flow.packets_per_second = std::numeric_limits<double>::infinity();
    }
    for (const double duration : {0.0, 5e-324}) {
      add(gen.deliver(flows, mixed_catchments(), duration, 60.0));
    }
  }
  EXPECT_EQ(digest.hex(), "87bdaebf497bf5fd");
}

TEST(Spoofer, DeliverMatchesMakePacket) {
  for (const auto& protocol : amplification_table()) {
    SpoofedTrafficGenerator gen(7);
    const auto flows = mixed_flows(protocol.protocol);
    const auto arrivals = gen.deliver(flows, mixed_catchments(), 1.0);
    ASSERT_FALSE(arrivals.empty());
    for (const auto& a : arrivals) {
      const auto flow = std::find_if(
          flows.begin(), flows.end(),
          [&](const SpoofedFlow& f) { return f.source_as == a.true_source; });
      ASSERT_NE(flow, flows.end());
      EXPECT_EQ(a.link, mixed_catchments()[a.true_source]);
      const auto udp = a.datagram.udp();
      ASSERT_TRUE(udp.has_value());
      EXPECT_GE(udp->source_port, 1024);
      EXPECT_LT(udp->source_port, 1024 + 60000);
      const auto expected = gen.make_packet(*flow, udp->source_port);
      ASSERT_TRUE(std::ranges::equal(a.datagram.bytes(), expected.bytes()))
          << protocol.name << " port " << udp->source_port;
      // make_packet copies the flow's template: both equal a datagram
      // built field by field.
      const auto reference = netcore::Datagram::make_udp(
          kVictim, measure::AddressPlan::experiment_target(),
          udp->source_port, protocol.udp_port,
          make_query_payload(protocol.protocol));
      ASSERT_TRUE(std::ranges::equal(expected.bytes(), reference.bytes()))
          << protocol.name << " port " << udp->source_port;
    }
  }
}

TEST(Spoofer, RejectsNegativeAndNonFiniteInputs) {
  const bgp::CatchmentMap catchments = test::catchment_map({0});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<SpoofedFlow> flows(1);
  flows[0].source_as = 0;
  flows[0].victim = kVictim;
  flows[0].packets_per_second = 100.0;

  SpoofedTrafficGenerator gen(6);
  for (const double duration : {-1.0, nan, inf, -inf}) {
    EXPECT_THROW(gen.deliver(flows, catchments, duration),
                 std::invalid_argument)
        << duration;
  }
  for (const double cap : {-1.0, nan, -inf}) {
    EXPECT_THROW(gen.deliver(flows, catchments, 1.0, cap),
                 std::invalid_argument)
        << cap;
  }
  // flows() turns a negative total rate into negative flow rates.
  const auto negative = gen.flows({0}, {1.0}, kVictim, AmpProtocol::kDnsAny,
                                  -5.0);
  ASSERT_EQ(negative.size(), 1u);
  EXPECT_THROW(gen.deliver(negative, catchments, 1.0), std::invalid_argument);
  for (const double pps : {-5.0, nan, -inf}) {
    flows[0].packets_per_second = pps;
    EXPECT_THROW(gen.deliver(flows, catchments, 1.0), std::invalid_argument)
        << pps;
  }
  // An infinite rate is bounded by a finite cap, never by an infinite one.
  flows[0].packets_per_second = inf;
  EXPECT_THROW(gen.deliver(flows, catchments, 1.0, inf),
               std::invalid_argument);
  EXPECT_EQ(gen.deliver(flows, catchments, 1.0, 3).size(), 3u);
  // An unrouted flow's rate is never read.
  flows[0].packets_per_second = -5.0;
  EXPECT_TRUE(
      gen.deliver(flows, test::catchment_map({bgp::kNoCatchment}), 1.0)
          .empty());

  // Rejected calls draw nothing: the stream continues where it was.
  SpoofedTrafficGenerator fresh(6);
  SpoofedTrafficGenerator rejected(6);
  flows[0].packets_per_second = 100.0;
  EXPECT_THROW(rejected.deliver(flows, catchments, nan),
               std::invalid_argument);
  const auto a = fresh.deliver(flows, catchments, 1.0);
  const auto b = rejected.deliver(flows, catchments, 1.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp, b[i].timestamp);
    EXPECT_TRUE(std::ranges::equal(a[i].datagram.bytes(),
                                   b[i].datagram.bytes()));
  }
}

}  // namespace
}  // namespace spooftrack::traffic
