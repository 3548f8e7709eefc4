#include "measure/bitplane_store.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "util/simd.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define SPOOFTRACK_BITPLANE_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define SPOOFTRACK_BITPLANE_NEON 1
#include <arm_neon.h>
#endif

namespace spooftrack::measure {

namespace {

constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
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

// Portable build kernel for one configuration row: 8 cells per iteration,
// bit-gather per value plane via multiply. `dst` points at the row's
// 7-plane block (already zeroed).
void build_row_scalar(const std::uint8_t* src, std::size_t cols,
                      std::size_t words, std::uint64_t* dst,
                      std::size_t config) {
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

#if defined(SPOOFTRACK_BITPLANE_X86)

// AVX2 build kernel: 32 cells per iteration. Plane bits come from the byte
// sign after shifting bit b to bit 7; _mm256_slli_epi16 shifts across the
// whole 16-bit lane but the contaminating bits come from the *same* byte
// pair's low byte, whose bit (8 - shift + b) lands on that byte's own sign
// position only when it is the byte's bit b — i.e. movemask still reads
// each byte's bit b. The missing plane is the raw sign bit (only 0xFF has
// it after validation).
__attribute__((target("avx2"))) void build_row_avx2(const std::uint8_t* src,
                                                    std::size_t cols,
                                                    std::size_t words,
                                                    std::uint64_t* dst,
                                                    std::size_t config) {
  const __m256i all_ff = _mm256_set1_epi8(static_cast<char>(0xFF));
  const __m256i minus_one = _mm256_set1_epi8(-1);
  const __m256i limit = _mm256_set1_epi8(
      static_cast<char>(bgp::kMaxCatchmentLinks));
  const std::size_t full = cols / 32;
  for (std::size_t k = 0; k < full; ++k) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src + k * 32));
    // Valid cells are 0..61 (signed non-negative below the limit) or 0xFF.
    const __m256i is_missing = _mm256_cmpeq_epi8(v, all_ff);
    const __m256i in_range = _mm256_and_si256(
        _mm256_cmpgt_epi8(v, minus_one), _mm256_cmpgt_epi8(limit, v));
    const __m256i valid = _mm256_or_si256(is_missing, in_range);
    if (_mm256_movemask_epi8(valid) != -1) [[unlikely]] {
      for (std::size_t i = 0; i < 32; ++i) {
        const std::uint8_t byte = src[k * 32 + i];
        if (byte != kNoCatchment8 && byte >= bgp::kMaxCatchmentLinks) {
          throw_bad_cell(config, k * 32 + i, byte);
        }
      }
    }
    const std::size_t w = k >> 1;
    const unsigned off = (k & 1) ? 32u : 0u;
    for (std::size_t b = 0; b < BitplaneStore::kValuePlanes; ++b) {
      const int bits = _mm256_movemask_epi8(
          _mm256_slli_epi16(v, static_cast<int>(7 - b)));
      dst[b * words + w] |=
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(bits)) << off;
    }
    const int miss = _mm256_movemask_epi8(v);
    dst[BitplaneStore::kMissingPlane * words + w] |=
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(miss)) << off;
  }
  // Tail cells fall back to the portable 8-at-a-time path.
  for (std::size_t s = full * 32; s < cols; s += 8) {
    const std::size_t nb = std::min<std::size_t>(8, cols - s);
    std::uint64_t x = 0;
    std::memcpy(&x, src + s, nb);
    validate_word(x, config, s, nb);
    const std::size_t w = s >> 6;
    const unsigned shift = static_cast<unsigned>(s & 63);
    for (std::size_t b = 0; b < BitplaneStore::kValuePlanes; ++b) {
      dst[b * words + w] |= gather_lsb(x >> b) << shift;
    }
    dst[BitplaneStore::kMissingPlane * words + w] |= gather_lsb(x >> 7)
                                                     << shift;
  }
}

#elif defined(SPOOFTRACK_BITPLANE_NEON)

// NEON lacks movemask; sum lanes pre-masked with distinct powers of two
// (vaddv over 8 disjoint single-bit bytes is an OR).
inline std::uint16_t neon_bitmask(uint8x16_t selected) noexcept {
  static const std::uint8_t kPow2[16] = {1, 2, 4, 8, 16, 32, 64, 128,
                                         1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t weighted = vandq_u8(selected, vld1q_u8(kPow2));
  const std::uint16_t lo = vaddv_u8(vget_low_u8(weighted));
  const std::uint16_t hi = vaddv_u8(vget_high_u8(weighted));
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

void build_row_neon(const std::uint8_t* src, std::size_t cols,
                    std::size_t words, std::uint64_t* dst,
                    std::size_t config) {
  const uint8x16_t all_ff = vdupq_n_u8(0xFF);
  const uint8x16_t limit = vdupq_n_u8(bgp::kMaxCatchmentLinks);
  const std::size_t full = cols / 16;
  for (std::size_t k = 0; k < full; ++k) {
    const uint8x16_t v = vld1q_u8(src + k * 16);
    const uint8x16_t valid =
        vorrq_u8(vcltq_u8(v, limit), vceqq_u8(v, all_ff));
    if (vminvq_u8(valid) == 0) [[unlikely]] {
      for (std::size_t i = 0; i < 16; ++i) {
        const std::uint8_t byte = src[k * 16 + i];
        if (byte != kNoCatchment8 && byte >= bgp::kMaxCatchmentLinks) {
          throw_bad_cell(config, k * 16 + i, byte);
        }
      }
    }
    const std::size_t w = k >> 2;
    const unsigned off = static_cast<unsigned>((k & 3) * 16);
    for (std::size_t b = 0; b < BitplaneStore::kValuePlanes; ++b) {
      const uint8x16_t has_bit =
          vtstq_u8(v, vdupq_n_u8(static_cast<std::uint8_t>(1u << b)));
      dst[b * words + w] |= static_cast<std::uint64_t>(neon_bitmask(has_bit))
                            << off;
    }
    const uint8x16_t missing = vtstq_u8(v, vdupq_n_u8(0x80));
    dst[BitplaneStore::kMissingPlane * words + w] |=
        static_cast<std::uint64_t>(neon_bitmask(missing)) << off;
  }
  for (std::size_t s = full * 16; s < cols; s += 8) {
    const std::size_t nb = std::min<std::size_t>(8, cols - s);
    std::uint64_t x = 0;
    std::memcpy(&x, src + s, nb);
    validate_word(x, config, s, nb);
    const std::size_t w = s >> 6;
    const unsigned shift = static_cast<unsigned>(s & 63);
    for (std::size_t b = 0; b < BitplaneStore::kValuePlanes; ++b) {
      dst[b * words + w] |= gather_lsb(x >> b) << shift;
    }
    dst[BitplaneStore::kMissingPlane * words + w] |= gather_lsb(x >> 7)
                                                     << shift;
  }
}

#endif

}  // namespace

BitplaneStore::BitplaneStore(const CatchmentStore& store)
    : rows_(store.configs()),
      cols_(store.sources()),
      words_((store.sources() + 63) / 64),
      bits_(rows_ * kPlanes * words_, 0) {
  OBS_TIMER("analysis.kernel.bitplane_build_ns");
  const bool wide = util::active_simd_level() == util::SimdLevel::kWide;
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::uint8_t* src = store.row(r).data();
    std::uint64_t* dst = bits_.data() + r * kPlanes * words_;
#if defined(SPOOFTRACK_BITPLANE_X86)
    if (wide) {
      build_row_avx2(src, cols_, words_, dst, r);
      continue;
    }
#elif defined(SPOOFTRACK_BITPLANE_NEON)
    if (wide) {
      build_row_neon(src, cols_, words_, dst, r);
      continue;
    }
#endif
    build_row_scalar(src, cols_, words_, dst, r);
  }
  (void)wide;
  OBS_GAUGE("analysis.kernel.bitplane_bytes", size_bytes());
  OBS_GAUGE("analysis.kernel.wide_simd", wide ? 1 : 0);
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
