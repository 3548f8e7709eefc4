#include "measure/catchment_store.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/obs.hpp"

namespace spooftrack::measure {

CatchmentStore::CatchmentStore(std::size_t configs, std::size_t sources)
    : rows_(configs),
      cols_(sources),
      cells_(configs * sources, kNoCatchment8) {}

void CatchmentStore::append_row(std::span<const bgp::LinkId> links) {
  if (rows_ == 0) {
    cols_ = links.size();
  } else if (links.size() != cols_) {
    throw std::invalid_argument("catchment row width does not match matrix");
  }
  for (bgp::LinkId link : links) cells_.push_back(encode(link));
  ++rows_;
}

void CatchmentStore::append_row(std::span<const std::uint8_t> cells) {
  if (rows_ == 0) {
    cols_ = cells.size();
  } else if (cells.size() != cols_) {
    throw std::invalid_argument("catchment row width does not match matrix");
  }
  // Re-encoding validates: a byte no link id encodes to throws.
  for (std::uint8_t cell : cells) cells_.push_back(encode(decode(cell)));
  ++rows_;
}

void CatchmentStore::assign(std::size_t configs, std::size_t sources) {
  rows_ = configs;
  cols_ = sources;
  cells_.assign(configs * sources, kNoCatchment8);
}

void CatchmentStore::gather_columns(std::span<const std::uint32_t> sources,
                                    std::uint8_t* out) const {
  OBS_TIMER("analysis.kernel.gather_ns");
  constexpr std::size_t kTile = 64;
  for (std::size_t c0 = 0; c0 < rows_; c0 += kTile) {
    const std::size_t c1 = std::min(rows_, c0 + kTile);
    for (std::size_t j = 0; j < sources.size(); ++j) {
      const std::uint8_t* base = cells_.data() + sources[j];
      std::uint8_t* dst = out + j * rows_ + c0;
      std::size_t c = c0;
      for (; c + 8 <= c1; c += 8) {
        std::uint64_t pack = 0;
        for (std::size_t k = 0; k < 8; ++k) {
          pack |= static_cast<std::uint64_t>(base[(c + k) * cols_]) << (8 * k);
        }
        std::memcpy(dst + (c - c0), &pack, 8);
      }
      for (; c < c1; ++c) dst[c - c0] = base[c * cols_];
    }
  }
}

}  // namespace spooftrack::measure
