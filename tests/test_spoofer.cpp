#include "traffic/spoofer.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace spooftrack::traffic
