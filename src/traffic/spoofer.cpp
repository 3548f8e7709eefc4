#include "traffic/spoofer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"

namespace spooftrack::traffic {

std::vector<SpoofedFlow> SpoofedTrafficGenerator::flows(
    const std::vector<topology::AsId>& sources,
    const std::vector<double>& volume, netcore::Ipv4Addr victim,
    AmpProtocol protocol, double total_pps) const {
  std::vector<SpoofedFlow> out;
  const std::size_t n = std::min(sources.size(), volume.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (volume[i] <= 0.0) continue;
    SpoofedFlow flow;
    flow.source_as = sources[i];
    flow.victim = victim;
    flow.protocol = protocol;
    flow.packets_per_second = volume[i] * total_pps;
    out.push_back(flow);
  }
  return out;
}

namespace {

// A drawn packet before it is built: sorting these 16-byte keys instead of
// built packets leaves the datagrams where they are constructed.
struct ArrivalKey {
  double timestamp;
  std::uint32_t flow;  // index into the routed flows
  std::uint16_t port;
};

// Every query datagram of `flow`, source ports aside.
netcore::UdpTemplate query_template(const SpoofedFlow& flow) {
  const auto payload = make_query_payload(flow.protocol);
  return {flow.victim, measure::AddressPlan::experiment_target(),
          info(flow.protocol).udp_port, payload};
}

}  // namespace

std::vector<ArrivedPacket> SpoofedTrafficGenerator::deliver(
    const std::vector<SpoofedFlow>& flows,
    const bgp::CatchmentMap& catchments, double duration,
    double max_packets) {
  OBS_TIMER("traffic.deliver_ns");
  // Validated before any draw, so a rejected call leaves the generator's
  // stream where it was. Each bound keeps a flow's packet count a finite,
  // non-negative double below 2^64 before it is cast.
  if (!(duration >= 0.0) || std::isinf(duration)) {
    throw std::invalid_argument("deliver: duration must be finite and >= 0");
  }
  if (!(max_packets >= 0.0)) {
    throw std::invalid_argument("deliver: max_packets must be >= 0");
  }
  auto routed_link = [&](const SpoofedFlow& flow) {
    return flow.source_as < catchments.size() ? catchments[flow.source_as]
                                              : bgp::kNoCatchment;
  };
  for (const SpoofedFlow& flow : flows) {
    if (routed_link(flow) == bgp::kNoCatchment) continue;
    if (!(flow.packets_per_second >= 0.0)) {
      throw std::invalid_argument(
          "deliver: packets_per_second must be >= 0");
    }
    if (!(std::min(max_packets, flow.packets_per_second * duration + 1.0) <
          0x1p64)) {
      throw std::invalid_argument(
          "deliver: a flow's packet count must stay below 2^64");
    }
  }

  // Draw every packet's timestamp, then its port, flow by flow (the order
  // the datagrams' bytes depend on); build each routed flow's datagram
  // once as a template.
  struct Routed {
    bgp::LinkId link;
    topology::AsId source;
    netcore::UdpTemplate packets;
  };
  std::vector<Routed> routed;
  std::vector<ArrivalKey> keys;
  for (const SpoofedFlow& flow : flows) {
    const bgp::LinkId link = routed_link(flow);
    if (link == bgp::kNoCatchment) continue;  // source has no route

    const double expected = flow.packets_per_second * duration;
    const auto count = static_cast<std::uint64_t>(
        std::min(max_packets, std::floor(expected + rng_.uniform01())));
    const auto index = static_cast<std::uint32_t>(routed.size());
    routed.push_back({link, flow.source_as, query_template(flow)});
    for (std::uint64_t k = 0; k < count; ++k) {
      const double timestamp = rng_.uniform(0.0, duration);
      const auto port =
          static_cast<std::uint16_t>(1024 + rng_.next_below(60000));
      keys.push_back({timestamp, index, port});
    }
  }
  OBS_COUNT("traffic.spoofed_packets", keys.size());
  // std::sort's permutation depends only on its comparison results, so
  // sorting the keys orders ties exactly as sorting the packets would.
  std::sort(keys.begin(), keys.end(),
            [](const ArrivalKey& a, const ArrivalKey& b) {
              return a.timestamp < b.timestamp;
            });

  std::vector<ArrivedPacket> arrivals;
  arrivals.reserve(keys.size());
  for (const ArrivalKey& key : keys) {
    const Routed& r = routed[key.flow];
    arrivals.push_back(
        {r.link, r.source, key.timestamp, r.packets.make(key.port)});
  }
  return arrivals;
}

}  // namespace spooftrack::traffic
