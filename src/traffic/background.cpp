#include "traffic/background.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace spooftrack::traffic {

BackgroundTrafficModel::BackgroundTrafficModel(
    const topology::AsGraph& graph, const measure::AddressPlan& plan,
    const BackgroundOptions& options)
    : graph_(graph), plan_(plan), options_(options) {
  // generate() casts floor(packets_per_as + u) to an integer count.
  if (!(options_.packets_per_as >= 0.0)) {
    throw std::invalid_argument(
        "background packets_per_as must be a non-negative number");
  }
}

bool BackgroundTrafficModel::active(topology::AsId id) const noexcept {
  return util::unit_hash(options_.seed, 0xBA5E, id) <
         options_.active_fraction;
}

std::size_t BackgroundTrafficModel::active_count() const noexcept {
  std::size_t count = 0;
  for (topology::AsId id = 0; id < graph_.size(); ++id) {
    count += active(id);
  }
  return count;
}

netcore::Ipv4Addr BackgroundTrafficModel::client_address(
    topology::AsId id, std::uint32_t host) const noexcept {
  // Clients live above the router block of the AS prefix.
  return plan_.prefix_of(id).nth(2048 + host % 1024);
}

std::vector<ArrivedPacket> BackgroundTrafficModel::generate(
    const bgp::CatchmentMap& catchments, std::uint64_t salt) const {
  std::vector<ArrivedPacket> arrivals;
  util::Rng rng{util::hash_combine(options_.seed, salt)};
  for (topology::AsId id = 0; id < graph_.size() && id < catchments.size();
       ++id) {
    if (!active(id)) continue;
    const bgp::LinkId link = catchments[id];
    if (link == bgp::kNoCatchment) continue;

    const auto count = static_cast<std::uint32_t>(std::min(
        64.0, std::floor(options_.packets_per_as + rng.uniform01())));
    for (std::uint32_t k = 0; k < count; ++k) {
      const std::uint32_t host =
          static_cast<std::uint32_t>(rng.next_below(
              std::max<std::uint32_t>(options_.hosts_per_as, 1)));
      ArrivedPacket packet;
      packet.link = link;
      packet.true_source = id;
      packet.timestamp = rng.uniform01();
      packet.datagram = netcore::Datagram::make_udp(
          client_address(id, host),
          measure::AddressPlan::experiment_target(),
          static_cast<std::uint16_t>(1024 + rng.next_below(60000)), 443, {});
      arrivals.push_back(std::move(packet));
    }
  }
  return arrivals;
}

void BackgroundTrafficModel::train(
    ValidSourceInference& inference,
    const bgp::CatchmentMap& catchments) const {
  for (topology::AsId id = 0; id < graph_.size() && id < catchments.size();
       ++id) {
    if (!active(id)) continue;
    const bgp::LinkId link = catchments[id];
    if (link == bgp::kNoCatchment) continue;
    for (std::uint32_t host = 0; host < options_.hosts_per_as; ++host) {
      inference.learn(link, client_address(id, host));
    }
  }
}

}  // namespace spooftrack::traffic
