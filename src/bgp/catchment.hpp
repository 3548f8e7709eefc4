// Catchments: the partition of sources induced by one announcement
// configuration. Each routed AS belongs to exactly one peering link's
// catchment — the link whose announcement its best route descends from.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/announcement.hpp"
#include "bgp/engine.hpp"

namespace spooftrack::bgp {

inline constexpr LinkId kNoCatchment = std::numeric_limits<LinkId>::max();

/// Byte-wide missing sentinel used by CatchmentMap, the columnar catchment
/// store, journal rows and the artifact serialization format.
inline constexpr std::uint8_t kNoCatchment8 = 0xFF;

/// Maximum number of distinct peering links the analysis pipeline tracks.
/// The cluster refinement folds catchment values into 6-bit slots (64, one
/// reserved for "missing"), and catchment cells take one byte; link ids
/// must stay below this bound or encoding raises.
inline constexpr std::uint32_t kMaxCatchmentLinks = 62;

/// Throws the std::out_of_range encode_catchment raises for `link`.
[[noreturn]] void throw_link_out_of_range(LinkId link);

/// The one-byte cell encoding: a link id below kMaxCatchmentLinks stays
/// itself, kNoCatchment becomes kNoCatchment8. Throws std::out_of_range for
/// any other link.
inline std::uint8_t encode_catchment(LinkId link) {
  if (link == kNoCatchment) return kNoCatchment8;
  if (link >= kMaxCatchmentLinks) throw_link_out_of_range(link);
  return static_cast<std::uint8_t>(link);
}
/// Inverse of encode_catchment.
constexpr LinkId decode_catchment(std::uint8_t cell) noexcept {
  return cell == kNoCatchment8 ? kNoCatchment : cell;
}

/// Catchment membership for one configuration, one byte per AS in the
/// encode_catchment encoding (the bytes a journal row carries). The ground
/// truth of a 705-configuration campaign over 66.5k ASes takes 47 MB this
/// way, against 188 MB as LinkIds.
class CatchmentMap {
 public:
  CatchmentMap() = default;
  /// `size` ASes, none routed.
  explicit CatchmentMap(std::size_t size) : cells_(size, kNoCatchment8) {}
  /// Adopts encoded cells; throws std::out_of_range on a byte that is
  /// neither a link id below kMaxCatchmentLinks nor kNoCatchment8.
  explicit CatchmentMap(std::vector<std::uint8_t> cells);

  /// The peering link whose catchment AS `id` belongs to, or kNoCatchment
  /// when the AS has no route under this configuration.
  LinkId operator[](topology::AsId id) const noexcept {
    return decode_catchment(cells_[id]);
  }
  /// Routes AS `id` to `link` (kNoCatchment: no route); throws
  /// std::out_of_range as encode_catchment does.
  void set(topology::AsId id, LinkId link) {
    cells_[id] = encode_catchment(link);
  }
  std::size_t size() const noexcept { return cells_.size(); }
  /// The encoded cells, one per AS.
  std::span<const std::uint8_t> cells() const noexcept { return cells_; }

  /// Number of ASes routed to `link`.
  std::size_t count(LinkId link) const noexcept;
  /// AsIds routed to `link`.
  std::vector<topology::AsId> members(LinkId link) const;
  /// One-pass per-link totals: element l is the number of ASes routed to
  /// link l. Links >= link_count are ignored (missing cells always are).
  /// Replaces links x count(link) scan loops, which are O(links * N).
  std::vector<std::size_t> counts(std::size_t link_count) const;
  /// Number of ASes with any catchment.
  std::size_t routed_count() const noexcept;

  friend bool operator==(const CatchmentMap&, const CatchmentMap&) = default;

 private:
  std::vector<std::uint8_t> cells_;
};

/// Ground-truth catchments from a routing outcome.
CatchmentMap extract_catchments(const RoutingOutcome& outcome,
                                const Configuration& config);

}  // namespace spooftrack::bgp
