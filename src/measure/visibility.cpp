#include "measure/visibility.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

namespace spooftrack::measure {

std::vector<topology::AsId> baseline_sources(const InferenceResult& first) {
  std::vector<topology::AsId> sources;
  for (topology::AsId id = 0; id < first.catchments.size(); ++id) {
    if (first.catchments[id] != bgp::kNoCatchment) sources.push_back(id);
  }
  return sources;
}

namespace {

constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;

/// 0x80 in every byte lane of `v` that is zero; exact per lane (the
/// (v & 0x7F) + 0x7F add cannot carry across lanes).
inline std::uint64_t zero_byte_mask(std::uint64_t v) noexcept {
  return ~(((v & kLow7) + kLow7) | v | kLow7);
}

/// Number of configurations where both sources were observed in the same
/// catchment, over contiguous (pre-gathered) columns: eight cells per
/// iteration via SWAR equality + missing masks.
std::uint32_t co_catchment_count(const std::uint8_t* a, const std::uint8_t* b,
                                 std::size_t configs) {
  std::uint32_t count = 0;
  std::size_t c = 0;
  for (; c + 8 <= configs; c += 8) {
    std::uint64_t x;
    std::uint64_t y;
    std::memcpy(&x, a + c, sizeof x);
    std::memcpy(&y, b + c, sizeof y);
    const std::uint64_t equal = zero_byte_mask(x ^ y);
    const std::uint64_t missing = zero_byte_mask(~x);
    count += static_cast<std::uint32_t>(std::popcount(equal & ~missing));
  }
  for (; c < configs; ++c) {
    if (a[c] != kNoCatchment8 && a[c] == b[c]) ++count;
  }
  return count;
}

}  // namespace

void impute_missing(CatchmentStore& matrix) {
  if (matrix.empty()) return;
  const std::size_t source_count = matrix.sources();
  const std::size_t configs = matrix.size();

  // Columns gathered contiguous once (tiled word-gather) and kept in sync
  // with every fill below — the second pass must see the first pass's
  // imputed values, exactly as the strided in-place walk did.
  std::vector<std::uint32_t> all_sources(source_count);
  std::iota(all_sources.begin(), all_sources.end(), 0u);
  std::vector<std::uint8_t> cols(source_count * configs);
  matrix.gather_columns(all_sources, cols.data());
  const auto col = [&](std::size_t s) { return cols.data() + s * configs; };

  // Sources with at least one missing cell.
  std::vector<std::size_t> incomplete;
  for (std::size_t s = 0; s < source_count; ++s) {
    if (std::memchr(col(s), kNoCatchment8, configs) != nullptr) {
      incomplete.push_back(s);
    }
  }
  if (incomplete.empty()) return;

  // Two passes: the second can read values the first filled in.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t s : incomplete) {
      // s_max: the other source most frequently sharing s's catchment.
      std::size_t smax = source_count;
      std::uint32_t best = 0;
      for (std::size_t t = 0; t < source_count; ++t) {
        if (t == s) continue;
        const std::uint32_t count = co_catchment_count(col(s), col(t),
                                                       configs);
        if (count > best) {
          best = count;
          smax = t;
        }
      }
      if (smax == source_count) continue;  // never co-observed with anyone
      for (std::size_t c = 0; c < configs; ++c) {
        const std::uint8_t donor = col(smax)[c];
        if (col(s)[c] == kNoCatchment8 && donor != kNoCatchment8) {
          matrix.row(c)[s] = donor;
          col(s)[c] = donor;
        }
      }
    }
  }
}

}  // namespace spooftrack::measure
