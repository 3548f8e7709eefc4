// BGP announcement configurations, the paper's §III primitive:
//
//   c = <A; P; Q>
//
// where A is the set of peering links announcing the prefix, P ⊆ A the set
// announced with AS-path prepending, and Q maps links to poisoned AS sets.
// We flatten the triple into one AnnouncementSpec per active link.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/as_graph.hpp"

namespace spooftrack::bgp {

using LinkId = std::uint32_t;

/// A peering link of the origin AS: one point of presence connected to one
/// transit provider (the Table I setup: one provider per PEERING mux).
struct PeeringLink {
  LinkId id = 0;
  std::string pop_name;
  topology::Asn provider = 0;
};

/// Per-link announcement parameters for one configuration.
struct AnnouncementSpec {
  AnnouncementSpec() = default;
  AnnouncementSpec(LinkId link_id, std::uint32_t prepend_count,
                   std::vector<topology::Asn> poison = {},
                   std::vector<topology::Asn> no_export = {})
      : link(link_id),
        prepend(prepend_count),
        poisoned(std::move(poison)),
        no_export_to(std::move(no_export)) {}

  LinkId link = 0;
  /// Extra times the origin prepends its own ASN (the paper uses 4, making
  /// the AS-path longer than most Internet paths).
  std::uint32_t prepend = 0;
  /// ASes poisoned on this link's announcement. Encoded PEERING-style: each
  /// poisoned ASN is sandwiched between occurrences of the origin ASN.
  std::vector<topology::Asn> poisoned;
  /// BGP-community-style export control (the paper's §VIII future work):
  /// the link's provider honours a "do not export to AS X" community on the
  /// origin's announcement. Unlike poisoning, this works even against ASes
  /// that disable loop prevention and never trips tier-1 route-leak
  /// filters, but it requires the direct provider to support the community.
  std::vector<topology::Asn> no_export_to;

  friend bool operator==(const AnnouncementSpec&,
                         const AnnouncementSpec&) = default;
};

/// One announcement configuration. The index of an AnnouncementSpec inside
/// `announcements` is the "announcement id" used by routes and catchments.
struct Configuration {
  std::string label;
  std::vector<AnnouncementSpec> announcements;

  bool announces(LinkId link) const noexcept;

  friend bool operator==(const Configuration&, const Configuration&) = default;

  const AnnouncementSpec* spec_for(LinkId link) const noexcept;
};

inline constexpr std::uint32_t kNoAnnouncement =
    std::numeric_limits<std::uint32_t>::max();

/// PEERING's operational cap: at most two poisoned ASes per announcement.
inline constexpr std::size_t kMaxPoisonedPerAnnouncement = 2;
/// Sanity cap on prepending (real announcements rarely exceed this).
inline constexpr std::uint32_t kMaxPrepend = 16;
/// Cap on no-export community targets per announcement.
inline constexpr std::size_t kMaxNoExportPerAnnouncement = 8;

/// The origin network deploying the configurations.
struct OriginSpec {
  topology::Asn asn = 47065;  // PEERING's ASN by default
  std::vector<PeeringLink> links;

  const PeeringLink* link_by_provider(topology::Asn provider) const noexcept;
};

/// Builds the AS-path the named provider receives from the origin:
/// origin repeated (1 + prepend) times, then each poisoned AS sandwiched
/// with the origin ASN (PEERING's attribution-friendly encoding).
std::vector<topology::Asn> seed_path(topology::Asn origin,
                                     const AnnouncementSpec& spec);

/// Validates a configuration against an origin: links must exist, appear at
/// most once, respect prepend/poison caps, and not poison the origin
/// itself. Throws std::invalid_argument describing the first violation.
void validate(const Configuration& config, const OriginSpec& origin);

}  // namespace spooftrack::bgp
