// Bit-sliced mirror of the catchment matrix.
//
// CatchmentStore proves every cell fits 6 bits (62 link ids + the 0xFF
// missing sentinel). BitplaneStore transposes each row into bit planes:
// plane b holds bit b of every cell's 6-bit slot, packed 64 sources per
// 64-bit word, so a row decodes back to its cell bytes with 8x8 bit
// transposes (decode_row) — the word-parallel path of
// core::cluster_sources. A seventh plane marks the missing sentinel
// explicitly; missing cells additionally read as slot 63 (all six value
// bits set) in the value planes — exactly the slot core::slot_of assigns
// them.
//
// Layout: row-major blocks of kPlanes contiguous plane arrays, each
// words() u64s (7 × ceil(sources/64) words per row). Built once from a
// CatchmentStore with full validation (cells other than 0..61 / 0xFF
// throw) and a validated round trip back (to_store()). The build is one
// portable u64 kernel: eight cells per 64-bit load, each value plane's
// octet gathered with a multiply.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "measure/catchment_store.hpp"

namespace spooftrack::measure {

class BitplaneStore {
 public:
  /// Planes 0..5 hold the cell slot bits; plane 6 marks missing cells.
  static constexpr std::size_t kValuePlanes = 6;
  static constexpr std::size_t kMissingPlane = 6;
  static constexpr std::size_t kPlanes = 7;

  BitplaneStore() = default;

  /// Builds (and validates) the bit-sliced mirror of `store`. Throws
  /// std::out_of_range on any cell byte that is neither a valid link id
  /// (< bgp::kMaxCatchmentLinks) nor the 0xFF missing sentinel.
  explicit BitplaneStore(const CatchmentStore& store);

  std::size_t configs() const noexcept { return rows_; }
  std::size_t sources() const noexcept { return cols_; }
  /// Words per plane row: ceil(sources / 64). Padding lanes beyond
  /// sources() are zero in every plane.
  std::size_t words() const noexcept { return words_; }
  bool empty() const noexcept { return rows_ == 0; }
  std::size_t size_bytes() const noexcept {
    return bits_.size() * sizeof(std::uint64_t);
  }

  /// One configuration's plane block: kPlanes contiguous plane arrays of
  /// words() u64s each (value planes first, missing plane last).
  const std::uint64_t* row_planes(std::size_t config) const noexcept {
    return bits_.data() + config * kPlanes * words_;
  }
  const std::uint64_t* plane(std::size_t config,
                             std::size_t plane_index) const noexcept {
    return row_planes(config) + plane_index * words_;
  }

  /// Reassembled 6-bit slot of one cell (63 = missing), as
  /// core::slot_of would fold it.
  std::uint32_t slot_at(std::size_t config, std::size_t source) const noexcept {
    const std::uint64_t* planes = row_planes(config);
    const std::size_t word = source >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (source & 63);
    std::uint32_t slot = 0;
    for (std::size_t b = 0; b < kValuePlanes; ++b) {
      slot |= ((planes[b * words_ + word] & bit) != 0 ? 1u : 0u) << b;
    }
    return slot;
  }

  bool missing_at(std::size_t config, std::size_t source) const noexcept {
    const std::uint64_t bit = std::uint64_t{1} << (source & 63);
    return (plane(config, kMissingPlane)[source >> 6] & bit) != 0;
  }

  /// Reassembled encoded cell byte (0xFF missing), as CatchmentStore
  /// stores it.
  std::uint8_t cell(std::size_t config, std::size_t source) const noexcept {
    if (missing_at(config, source)) return kNoCatchment8;
    return static_cast<std::uint8_t>(slot_at(config, source));
  }

  /// Word-parallel decode of one configuration row back to its encoded
  /// cell bytes (0xFF missing), via 8x8 bit transposes — the exact byte
  /// row the source CatchmentStore holds. `out` must have room for
  /// sources() bytes.
  void decode_row(std::size_t config, std::uint8_t* out) const noexcept;

  /// Exact round trip back to the byte layout.
  CatchmentStore to_store() const;

  friend bool operator==(const BitplaneStore&,
                         const BitplaneStore&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;  // rows × kPlanes × words
};

}  // namespace spooftrack::measure
