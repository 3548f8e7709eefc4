// Columnar catchment storage.
//
// The analysis half of the pipeline — clustering, scheduling, attribution,
// prediction — iterates catchment matrices of up to 705 configurations x
// thousands of sources over and over (greedy scheduling alone scans every
// remaining row once per step). A vector-of-vectors of 32-bit LinkIds
// pointer-chases one heap allocation per row and wastes 4 bytes per cell;
// CatchmentStore packs the same matrix into a single row-major buffer of
// one byte per cell. Link ids fit losslessly: the cluster refinement folds
// catchments into 6-bit slots (bgp::kMaxCatchmentLinks == 62), so a byte
// with a 0xFF missing sentinel (bgp::kNoCatchment8 — the exact encoding the
// artifact format already uses on disk) covers the full value range.
//
// Rows are contiguous spans with O(1) stride; columns are read through the
// tiled gather_columns. Every write validates its link id — out-of-range
// values throw instead of silently aliasing into the last cluster slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bgp/catchment.hpp"

namespace spooftrack::measure {

using bgp::kNoCatchment8;

/// Flat row-major catchment matrix with one byte per cell.
class CatchmentStore {
 public:
  /// Forward iterator over rows, yielding std::span<const std::uint8_t>.
  class RowIterator {
   public:
    using value_type = std::span<const std::uint8_t>;

    RowIterator(const CatchmentStore* store, std::size_t row) noexcept
        : store_(store), row_(row) {}

    value_type operator*() const noexcept { return store_->row(row_); }
    RowIterator& operator++() noexcept {
      ++row_;
      return *this;
    }
    friend bool operator==(const RowIterator&, const RowIterator&) = default;

   private:
    const CatchmentStore* store_;
    std::size_t row_;
  };

  CatchmentStore() = default;

  /// configs x sources matrix with every cell missing.
  CatchmentStore(std::size_t configs, std::size_t sources);

  /// Encodes one LinkId into a cell byte (bgp::encode_catchment); throws
  /// std::out_of_range for links >= bgp::kMaxCatchmentLinks (other than
  /// kNoCatchment).
  static std::uint8_t encode(bgp::LinkId link) {
    return bgp::encode_catchment(link);
  }
  /// Decodes one cell byte back into a LinkId.
  static bgp::LinkId decode(std::uint8_t cell) noexcept {
    return bgp::decode_catchment(cell);
  }

  /// Number of rows (configurations). `size()` mirrors the legacy
  /// vector-of-rows spelling.
  std::size_t size() const noexcept { return rows_; }
  std::size_t configs() const noexcept { return rows_; }
  /// Number of columns (sources); the row stride.
  std::size_t sources() const noexcept { return cols_; }
  bool empty() const noexcept { return rows_ == 0; }
  std::size_t size_bytes() const noexcept { return cells_.size(); }

  std::span<const std::uint8_t> row(std::size_t config) const noexcept {
    return {cells_.data() + config * cols_, cols_};
  }
  std::span<std::uint8_t> row(std::size_t config) noexcept {
    return {cells_.data() + config * cols_, cols_};
  }
  std::span<const std::uint8_t> operator[](std::size_t config) const noexcept {
    return row(config);
  }

  std::uint8_t cell(std::size_t config, std::size_t source) const noexcept {
    return cells_[config * cols_ + source];
  }
  /// Decoded cell.
  bgp::LinkId link_at(std::size_t config, std::size_t source) const noexcept {
    return decode(cell(config, source));
  }
  /// Encodes (validating) and stores one cell.
  void set(std::size_t config, std::size_t source, bgp::LinkId link) {
    cells_[config * cols_ + source] = encode(link);
  }

  /// Appends one row of LinkIds (validating each). The first row fixes the
  /// column count; later rows must match it; throws std::invalid_argument
  /// on a width mismatch and std::out_of_range on link ids
  /// >= bgp::kMaxCatchmentLinks. The one LinkId row entry point: decoded
  /// rows such as CatchmentPredictor::predict_row output (the prediction
  /// ablation builds its predicted matrix this way) append without an
  /// encode loop at the call site.
  void append_row(std::span<const bgp::LinkId> links);
  /// Appends one row of already-encoded cells (validating each).
  void append_row(std::span<const std::uint8_t> cells);

  /// Resets to configs x sources, every cell missing.
  void assign(std::size_t configs, std::size_t sources);

  /// Tiled word-gather of columns (source trajectories):
  /// out[j * configs() + c] = cell(c, sources[j]). Walks the matrix in
  /// 64-row tiles, packing 8 cells per column into one u64 store, so the
  /// matrix rows are streamed with cache reuse across columns instead of
  /// one cache-hostile strided walk per column.
  void gather_columns(std::span<const std::uint32_t> sources,
                      std::uint8_t* out) const;

  /// Whole-buffer access for bulk serialization. Cells are stored exactly
  /// as the artifact format writes them (encoded bytes, 0xFF missing).
  const std::uint8_t* data() const noexcept { return cells_.data(); }
  std::uint8_t* data() noexcept { return cells_.data(); }

  RowIterator begin() const noexcept { return {this, 0}; }
  RowIterator end() const noexcept { return {this, rows_}; }

  friend bool operator==(const CatchmentStore&,
                         const CatchmentStore&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint8_t> cells_;
};

}  // namespace spooftrack::measure
