// Spoofed traffic generation: attacker hosts inside source ASes emit
// amplification queries whose IPv4 source address is forged to the victim.
// Packets are real datagrams (netcore::Datagram); delivery to the origin's
// peering links follows the data plane computed by the routing engine.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/catchment.hpp"
#include "measure/address_plan.hpp"
#include "netcore/packet.hpp"
#include "topology/as_graph.hpp"
#include "traffic/amplification.hpp"
#include "util/rng.hpp"

namespace spooftrack::traffic {

/// One attacker's sustained stream of spoofed queries.
struct SpoofedFlow {
  topology::AsId source_as = topology::kInvalidAsId;
  netcore::Ipv4Addr victim;       // forged source address
  AmpProtocol protocol = AmpProtocol::kDnsAny;
  double packets_per_second = 0;
};

/// A packet as it arrives at the origin: the datagram plus the peering
/// link it ingressed on and the true source AS (ground truth available
/// only to the simulator, never to the inference code).
struct ArrivedPacket {
  bgp::LinkId link = bgp::kNoCatchment;
  topology::AsId true_source = topology::kInvalidAsId;
  double timestamp = 0;
  netcore::Datagram datagram;
};

class SpoofedTrafficGenerator {
 public:
  explicit SpoofedTrafficGenerator(std::uint64_t seed) : rng_(seed) {}

  /// Builds flows for a placement: `sources[i]` sends volume[i] fraction
  /// of `total_pps`. Zero-volume sources yield no flow.
  std::vector<SpoofedFlow> flows(
      const std::vector<topology::AsId>& sources,
      const std::vector<double>& volume, netcore::Ipv4Addr victim,
      AmpProtocol protocol, double total_pps) const;

  /// One spoofed query datagram for a flow.
  netcore::Datagram make_packet(const SpoofedFlow& flow,
                                std::uint16_t src_port) const;

  /// Simulates `duration` seconds of the flows arriving at the origin:
  /// each flow's packets ingress on the link of its source AS's catchment.
  /// Flows whose source AS has no catchment are dropped (no route). A flow
  /// sends floor(rate * duration + u) packets (u uniform in [0, 1)), at
  /// most `max_packets`, each with a uniform timestamp and then a uniform
  /// source port; arrivals come back sorted by timestamp. Each datagram
  /// equals make_packet(flow, port) byte for byte: it is copied from one
  /// template per flow, and only the drawn (timestamp, flow, port) keys are
  /// sorted. Throws std::invalid_argument, before any draw, on a negative
  /// or non-finite `duration`, a negative or NaN `max_packets`, or a routed
  /// flow whose rate is negative or NaN or whose packet count could reach
  /// 2^64.
  std::vector<ArrivedPacket> deliver(const std::vector<SpoofedFlow>& flows,
                                     const bgp::CatchmentMap& catchments,
                                     double duration,
                                     double max_packets = 50000);

 private:
  util::Rng rng_;
};

}  // namespace spooftrack::traffic
