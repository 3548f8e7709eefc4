#include "measure/bitplane_store.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"

namespace spooftrack::measure {

namespace {

constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
constexpr std::uint64_t kLsb = 0x0101010101010101ULL;

// Packs the LSB of each of 8 bytes into 8 consecutive bits (byte 0 -> bit
// 0). The multiply shifts each lane's LSB to a distinct bit of the top
// byte; lanes are single bits so no two products carry into each other.
inline std::uint64_t gather_lsb(std::uint64_t bytes) noexcept {
  return ((bytes & kLsb) * 0x0102040810204080ULL) >> 56;
}

[[noreturn]] void throw_bad_cell(std::size_t config, std::size_t source,
                                 std::uint8_t value) {
  throw std::out_of_range(
      "BitplaneStore: cell (" + std::to_string(config) + ", " +
      std::to_string(source) + ") holds " + std::to_string(value) +
      ", not a valid catchment slot or the missing sentinel");
}

// Validates 8 cells at once: bytes with the high bit set must be exactly
// 0xFF (the missing sentinel), the rest must be < kMaxCatchmentLinks.
// `lanes` < 8 means the tail was zero-padded (padding passes as cell 0).
inline void validate_word(std::uint64_t x, std::size_t config,
                          std::size_t base_source, std::size_t lanes) {
  const std::uint64_t himask = ((x & kHigh) >> 7) * 0xFF;
  // byte + 0x42 overflows past 0x80 exactly when byte >= 0x3E (62); the
  // inputs have their high bit clear so the adds never cross lanes.
  const std::uint64_t low_bad =
      (((x & ~himask) + 0x4242424242424242ULL) & kHigh & ~himask);
  const bool ok = ((x & himask) == himask) && low_bad == 0;
  if (ok) [[likely]] {
    return;
  }
  for (std::size_t i = 0; i < lanes; ++i) {
    const auto byte = static_cast<std::uint8_t>(x >> (8 * i));
    if (byte != kNoCatchment8 && byte >= bgp::kMaxCatchmentLinks) {
      throw_bad_cell(config, base_source + i, byte);
    }
  }
}

// Builds one configuration row: 8 cells per iteration, bit-gather per
// value plane via multiply. `dst` points at the row's 7-plane block.
void build_row(const std::uint8_t* src, std::size_t cols, std::size_t words,
               std::uint64_t* dst, std::size_t config) {
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t lanes = std::min<std::size_t>(64, cols - w * 64);
    std::uint64_t planes[BitplaneStore::kPlanes] = {};
    for (std::size_t k = 0; k * 8 < lanes; ++k) {
      const std::size_t nb = std::min<std::size_t>(8, lanes - k * 8);
      std::uint64_t x = 0;
      std::memcpy(&x, src + w * 64 + k * 8, nb);
      validate_word(x, config, w * 64 + k * 8, nb);
      const unsigned shift = static_cast<unsigned>(8 * k);
      for (std::size_t b = 0; b < BitplaneStore::kValuePlanes; ++b) {
        planes[b] |= gather_lsb(x >> b) << shift;
      }
      planes[BitplaneStore::kMissingPlane] |= gather_lsb(x >> 7) << shift;
    }
    for (std::size_t p = 0; p < BitplaneStore::kPlanes; ++p) {
      dst[p * words + w] = planes[p];
    }
  }
}

}  // namespace

BitplaneStore::BitplaneStore(const CatchmentStore& store)
    : rows_(store.configs()),
      cols_(store.sources()),
      words_((store.sources() + 63) / 64),
      bits_(rows_ * kPlanes * words_, 0) {
  OBS_TIMER("analysis.kernel.bitplane_build_ns");
  for (std::size_t r = 0; r < rows_; ++r) {
    build_row(store.row(r).data(), cols_, words_,
              bits_.data() + r * kPlanes * words_, r);
  }
  OBS_GAUGE("analysis.kernel.bitplane_bytes", size_bytes());
}

void BitplaneStore::decode_row(std::size_t config,
                               std::uint8_t* out) const noexcept {
  const std::uint64_t* planes = row_planes(config);
  for (std::size_t w = 0; w < words_; ++w) {
    const std::size_t lanes = std::min<std::size_t>(64, cols_ - w * 64);
    for (std::size_t k = 0; k * 8 < lanes; ++k) {
      // Pack plane b's octet into byte b; an 8x8 bit transpose then drops
      // each lane's 6 value bits into its own output byte. The missing
      // octet rides in bytes 6 and 7, so missing lanes (slot 63 = 0x3F)
      // come out with bits 6 and 7 set too: exactly 0xFF.
      std::uint64_t x = 0;
      for (std::size_t b = 0; b < kValuePlanes; ++b) {
        x |= ((planes[b * words_ + w] >> (8 * k)) & 0xFF) << (8 * b);
      }
      const std::uint64_t miss =
          (planes[kMissingPlane * words_ + w] >> (8 * k)) & 0xFF;
      x |= (miss << 48) | (miss << 56);
      std::uint64_t t;
      t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
      x ^= t ^ (t << 7);
      t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
      x ^= t ^ (t << 14);
      t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
      x ^= t ^ (t << 28);
      const std::size_t nb = std::min<std::size_t>(8, lanes - k * 8);
      std::memcpy(out + w * 64 + k * 8, &x, nb);
    }
  }
}

CatchmentStore BitplaneStore::to_store() const {
  CatchmentStore store(0, cols_);
  std::vector<std::uint8_t> row(cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    decode_row(r, row.data());
    store.append_row(row);
  }
  return store;
}

}  // namespace spooftrack::measure
