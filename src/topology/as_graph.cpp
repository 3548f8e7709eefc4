#include "topology/as_graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace spooftrack::topology {

const char* to_string(Rel rel) noexcept {
  switch (rel) {
    case Rel::kCustomer: return "customer";
    case Rel::kPeer: return "peer";
    case Rel::kProvider: return "provider";
  }
  return "?";
}

AsId AsGraph::add_as(Asn asn) {
  assert(!frozen_);
  const auto [id, inserted] =
      index_.try_emplace(asn, static_cast<AsId>(asns_.size()));
  if (inserted) {
    asns_.push_back(asn);
    adjacency_.emplace_back();
  }
  return *id;
}

void AsGraph::add_p2c(Asn provider, Asn customer) {
  assert(!frozen_);
  if (provider == customer) {
    throw std::invalid_argument("self-loop p2c edge for AS " +
                                std::to_string(provider));
  }
  const AsId p = add_as(provider);
  const AsId c = add_as(customer);
  adjacency_[p].push_back({c, Rel::kCustomer});
  adjacency_[c].push_back({p, Rel::kProvider});
}

void AsGraph::add_p2p(Asn a, Asn b) {
  assert(!frozen_);
  if (a == b) {
    throw std::invalid_argument("self-loop p2p edge for AS " +
                                std::to_string(a));
  }
  const AsId ia = add_as(a);
  const AsId ib = add_as(b);
  adjacency_[ia].push_back({ib, Rel::kPeer});
  adjacency_[ib].push_back({ia, Rel::kPeer});
}

void AsGraph::freeze() {
  if (frozen_) return;
  for (AsId id = 0; id < adjacency_.size(); ++id) {
    auto& list = adjacency_[id];
    std::sort(list.begin(), list.end(),
              [](const Neighbor& x, const Neighbor& y) {
                if (x.id != y.id) return x.id < y.id;
                return static_cast<int>(x.rel) < static_cast<int>(y.rel);
              });
    // Exact duplicates merge; same neighbor under two relationships is a
    // data error (CAIDA serial-1 never contains both for one pair).
    auto last = std::unique(list.begin(), list.end());
    list.erase(last, list.end());
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (list[i].id == list[i - 1].id) {
        throw std::invalid_argument(
            "conflicting relationships between AS " +
            std::to_string(asns_[id]) + " and AS " +
            std::to_string(asns_[list[i].id]));
      }
    }
  }
  frozen_ = true;
}

std::size_t AsGraph::edge_count() const noexcept {
  std::size_t half_edges = 0;
  for (const auto& list : adjacency_) half_edges += list.size();
  return half_edges / 2;
}

std::span<const Neighbor> AsGraph::neighbors(AsId id) const noexcept {
  require_frozen();
  return adjacency_[id];
}

std::vector<AsId> AsGraph::neighbors_with(AsId id, Rel rel) const {
  require_frozen();
  std::vector<AsId> out;
  for (const Neighbor& n : adjacency_[id]) {
    if (n.rel == rel) out.push_back(n.id);
  }
  return out;
}

std::optional<Rel> AsGraph::relationship(AsId from, AsId to) const noexcept {
  require_frozen();
  const auto& list = adjacency_[from];
  const auto it = std::lower_bound(
      list.begin(), list.end(), to,
      [](const Neighbor& n, AsId target) { return n.id < target; });
  if (it == list.end() || it->id != to) return std::nullopt;
  return it->rel;
}

bool AsGraph::is_provider_free(AsId id) const noexcept {
  require_frozen();
  for (const Neighbor& n : adjacency_[id]) {
    if (n.rel == Rel::kProvider) return false;
  }
  return true;
}

void AsGraph::require_frozen() const noexcept {
  assert(frozen_ && "AsGraph must be frozen before queries");
}

}  // namespace spooftrack::topology
