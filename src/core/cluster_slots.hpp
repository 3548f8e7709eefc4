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
#include <stdexcept>
#include <string>

#include "bgp/catchment.hpp"

namespace spooftrack::core {

inline constexpr std::uint32_t kSlotBits = 6;
inline constexpr std::uint32_t kSlots = 1u << kSlotBits;   // 64
inline constexpr std::uint32_t kMissingSlot = kSlots - 1;  // 63
static_assert(bgp::kMaxCatchmentLinks < kMissingSlot,
              "valid links plus the missing sentinel must fit the slots");

[[noreturn]] inline void throw_slot_out_of_range(std::uint32_t link) {
  throw std::out_of_range(
      "link id " + std::to_string(link) + " exceeds the " +
      std::to_string(bgp::kMaxCatchmentLinks) +
      "-link analysis limit (would alias in the 6-bit cluster slots)");
}

/// Slot of an encoded CatchmentStore cell (byte, 0xFF missing).
inline std::uint32_t slot_of(std::uint8_t cell) {
  if (cell == bgp::kNoCatchment8) return kMissingSlot;
  if (cell >= bgp::kMaxCatchmentLinks) throw_slot_out_of_range(cell);
  return cell;
}

}  // namespace spooftrack::core
