// Shared catchment-slot constants for the cluster refinement machinery.
//
// Cluster refinement (cluster.cpp) and schedule evaluation (scheduler.cpp)
// both fold catchment values into 6-bit slots per (cluster, catchment)
// bucket. The constants and the folding rule used to be duplicated in both
// translation units — and silently saturated any link id beyond the slot
// range into the last usable slot, aliasing distinct links into one cluster
// bucket. This header is the single definition; out-of-range links throw.
#pragma once

#include <cstdint>

#include "bgp/catchment.hpp"

namespace spooftrack::core {

inline constexpr std::uint32_t kSlotBits = 6;
inline constexpr std::uint32_t kSlots = 1u << kSlotBits;   // 64
inline constexpr std::uint32_t kMissingSlot = kSlots - 1;  // 63
static_assert(bgp::kMaxCatchmentLinks < kMissingSlot,
              "valid links plus the missing sentinel must fit the slots");

/// Slot of an encoded CatchmentStore cell (byte, 0xFF missing).
inline std::uint32_t slot_of(std::uint8_t cell) {
  if (cell == bgp::kNoCatchment8) return kMissingSlot;
  if (cell >= bgp::kMaxCatchmentLinks) bgp::throw_link_out_of_range(cell);
  return cell;
}

}  // namespace spooftrack::core
