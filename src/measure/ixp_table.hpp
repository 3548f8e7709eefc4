// IXP fabric model (PeeringDB stand-in): a set of IXP LAN prefixes and an
// assignment of peer-peer AS edges to IXPs. Traceroute hops crossing an
// IXP-assigned edge respond with an address from the IXP LAN, which maps to
// no AS — exactly the artifact the paper handles with PeeringDB data.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netcore/ipv4.hpp"
#include "netcore/prefix.hpp"
#include "topology/as_graph.hpp"
#include "util/flat_map.hpp"

namespace spooftrack::measure {

class IxpTable {
 public:
  /// Creates `ixp_count` IXPs with /22 LAN prefixes and assigns each
  /// peer-peer edge of `graph` to a random IXP with probability
  /// `edge_fraction`. Deterministic in `seed`.
  IxpTable(const topology::AsGraph& graph, std::uint32_t ixp_count,
           double edge_fraction, std::uint64_t seed);

  std::uint32_t ixp_count() const noexcept {
    return static_cast<std::uint32_t>(prefixes_.size());
  }
  const netcore::Ipv4Prefix& prefix(std::uint32_t ixp) const noexcept {
    return prefixes_[ixp];
  }

  /// IXP the edge (a, b) crosses, if any (order-insensitive).
  std::optional<std::uint32_t> ixp_of_edge(topology::AsId a,
                                           topology::AsId b) const noexcept;

  /// True when the address belongs to an IXP LAN.
  bool is_ixp_address(netcore::Ipv4Addr addr) const noexcept;

  /// An address for member `as` on the given IXP LAN.
  netcore::Ipv4Addr member_address(std::uint32_t ixp,
                                   topology::AsId as) const noexcept;

 private:
  static std::uint64_t key(topology::AsId a, topology::AsId b) noexcept;

  std::vector<netcore::Ipv4Prefix> prefixes_;
  util::FlatMap<std::uint64_t, std::uint32_t> edge_ixp_;
};

}  // namespace spooftrack::measure
