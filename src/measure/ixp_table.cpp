#include "measure/ixp_table.hpp"

#include "util/rng.hpp"

namespace spooftrack::measure {

namespace {
// IXP LANs carved from 185.1.0.0/16, one /22 each (matches the flavour of
// real European IXP allocations).
netcore::Ipv4Prefix ixp_prefix(std::uint32_t index) {
  const std::uint32_t base =
      (185u << 24) | (1u << 16) | (index << 10);
  return netcore::Ipv4Prefix::make(netcore::Ipv4Addr{base}, 22);
}
}  // namespace

IxpTable::IxpTable(const topology::AsGraph& graph, std::uint32_t ixp_count,
                   double edge_fraction, std::uint64_t seed) {
  if (ixp_count > 64) ixp_count = 64;  // keep LANs inside 185.1.0.0/16
  prefixes_.reserve(ixp_count);
  for (std::uint32_t i = 0; i < ixp_count; ++i) {
    prefixes_.push_back(ixp_prefix(i));
  }
  if (ixp_count == 0) return;

  util::Rng rng{seed};
  for (topology::AsId a = 0; a < graph.size(); ++a) {
    for (const topology::Neighbor& n : graph.neighbors(a)) {
      if (n.rel != topology::Rel::kPeer || n.id < a) continue;
      if (!rng.chance(edge_fraction)) continue;
      edge_ixp_.try_emplace(
          key(a, n.id), static_cast<std::uint32_t>(rng.next_below(ixp_count)));
    }
  }
}

std::uint64_t IxpTable::key(topology::AsId a, topology::AsId b) noexcept {
  if (a > b) std::swap(a, b);
  return (std::uint64_t{a} << 32) | b;
}

std::optional<std::uint32_t> IxpTable::ixp_of_edge(
    topology::AsId a, topology::AsId b) const noexcept {
  const std::uint32_t* ixp = edge_ixp_.find(key(a, b));
  if (ixp == nullptr) return std::nullopt;
  return *ixp;
}

bool IxpTable::is_ixp_address(netcore::Ipv4Addr addr) const noexcept {
  for (const auto& prefix : prefixes_) {
    if (prefix.contains(addr)) return true;
  }
  return false;
}

netcore::Ipv4Addr IxpTable::member_address(std::uint32_t ixp,
                                           topology::AsId as) const noexcept {
  const auto& lan = prefixes_[ixp];
  // Stable member address: hash the AS into the LAN, away from .0/.1.
  const std::uint64_t slot =
      2 + util::hash_combine(ixp, as) % (lan.size() - 4);
  return lan.nth(slot);
}

}  // namespace spooftrack::measure
