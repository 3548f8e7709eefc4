// AS-level Internet topology: autonomous systems and their business
// relationships (customer-provider and peer-peer, per Gao's model).
//
// ASes are identified externally by ASN and internally by a dense AsId so
// that per-AS state in the routing engine lives in flat arrays.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/flat_map.hpp"

namespace spooftrack::topology {

using Asn = std::uint32_t;
using AsId = std::uint32_t;

inline constexpr AsId kInvalidAsId = std::numeric_limits<AsId>::max();

/// Relationship of a neighbor as seen from the local AS.
enum class Rel : std::uint8_t {
  kCustomer = 0,  // the neighbor pays us
  kPeer = 1,      // settlement-free
  kProvider = 2,  // we pay the neighbor
};

/// The mirrored relationship (my customer sees me as its provider).
constexpr Rel reverse(Rel rel) noexcept {
  switch (rel) {
    case Rel::kCustomer: return Rel::kProvider;
    case Rel::kProvider: return Rel::kCustomer;
    case Rel::kPeer: return Rel::kPeer;
  }
  return Rel::kPeer;
}

const char* to_string(Rel rel) noexcept;

struct Neighbor {
  AsId id = kInvalidAsId;
  Rel rel = Rel::kPeer;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// Immutable-after-freeze AS graph.
///
/// Usage: add_as / add_p2c / add_p2p during construction, then freeze().
/// Query methods require a frozen graph (checked by assertions).
class AsGraph {
 public:
  /// Registers an AS (idempotent) and returns its dense id.
  AsId add_as(Asn asn);

  /// Adds a customer-provider edge: `provider` transits for `customer`.
  /// Both ASes are registered on demand. Duplicate edges are merged at
  /// freeze(); conflicting duplicate relationships throw there.
  void add_p2c(Asn provider, Asn customer);

  /// Adds a settlement-free peering edge.
  void add_p2p(Asn a, Asn b);

  /// Sorts and deduplicates adjacency lists; validates that no AS pair has
  /// two different relationships. Throws std::invalid_argument on conflict
  /// or self-loop.
  void freeze();

  bool frozen() const noexcept { return frozen_; }
  std::size_t size() const noexcept { return asns_.size(); }
  std::size_t edge_count() const noexcept;

  Asn asn_of(AsId id) const noexcept { return asns_[id]; }
  std::optional<AsId> id_of(Asn asn) const noexcept {
    const AsId* id = index_.find(asn);
    if (id == nullptr) return std::nullopt;
    return *id;
  }
  bool contains(Asn asn) const noexcept { return id_of(asn).has_value(); }

  std::span<const Neighbor> neighbors(AsId id) const noexcept;
  std::vector<AsId> neighbors_with(AsId id, Rel rel) const;
  std::optional<Rel> relationship(AsId from, AsId to) const noexcept;

  std::size_t degree(AsId id) const noexcept { return adjacency_[id].size(); }

  /// True when the AS has no providers (candidate tier-1 / clique member).
  bool is_provider_free(AsId id) const noexcept;

 private:
  void require_frozen() const noexcept;

  std::vector<Asn> asns_;
  util::FlatMap<Asn, AsId> index_;
  std::vector<std::vector<Neighbor>> adjacency_;
  bool frozen_ = false;
};

}  // namespace spooftrack::topology
