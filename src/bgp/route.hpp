// BGP route state held by an AS for the experiment prefix.
#pragma once

#include <cstdint>

#include "bgp/announcement.hpp"
#include "bgp/path_arena.hpp"
#include "topology/as_graph.hpp"

namespace spooftrack::bgp {

/// Canonical Gao-Rexford local-preference values: routes through customers
/// beat routes through peers beat routes through providers. Individual ASes
/// may deviate (see RoutingPolicy::local_pref), which is how the library
/// models the policy violations Figure 9 measures.
inline constexpr std::uint8_t kPrefProvider = 0;
inline constexpr std::uint8_t kPrefPeer = 1;
inline constexpr std::uint8_t kPrefCustomer = 2;

std::uint8_t canonical_pref(topology::Rel rel_of_sender) noexcept;

/// The route an AS currently uses toward the experiment prefix.
///
/// `path` identifies the AS-path exactly as received in the PathArena the
/// outcome owns (RoutingOutcome::paths): the path's head is the neighbor
/// the route was learned from and its back is the origin. Prepended and
/// poisoned (sandwiched) ASNs inserted by the origin appear verbatim, so
/// the arena length is the length BGP compares. The struct is POD — copies
/// and comparisons never touch the heap.
struct Route {
  std::uint32_t ann = kNoAnnouncement;  // announcement id in the configuration
  /// AS-path id in the owning outcome's arena (kEmptyPath when invalid).
  PathId path = kEmptyPath;
  /// Relationship of the neighbor the route was learned from; drives the
  /// valley-free export rule.
  topology::Rel learned_from = topology::Rel::kProvider;
  /// LocalPref assigned by the holder; drives best-route selection.
  std::uint8_t local_pref = kPrefProvider;

  bool valid() const noexcept { return ann != kNoAnnouncement; }

  /// Memberwise equality. Hash-consing makes `path` comparison exact for
  /// routes of one outcome (or of an outcome and its copy); across
  /// separate runs use PathArena::equal or routes_equal on the outcomes.
  friend bool operator==(const Route&, const Route&) = default;
};

}  // namespace spooftrack::bgp
