// Runtime SIMD dispatch for the bit-plane build (measure::BitplaneStore).
//
// The build ships a portable u64 baseline; hosts with a wide vector unit
// (AVX2 on x86-64, NEON on aarch64) get an optional wide path selected
// once at startup. Both paths are bit-identical by contract (enforced by
// the SimdLevels gates in tests/test_bitplane_store.cpp), so dispatch is
// purely a throughput decision.
//
// The resolved level honours the environment variable SPOOFTRACK_SIMD:
//   "scalar" forces the portable path, "wide" requests the vector path
//   (clamped to what the CPU actually supports), anything else / unset is
//   "auto" (use the widest supported). CI builds one leg with the wide
//   path forced on (-march=x86-64-v3) and one with it forced off.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace spooftrack::util {

enum class SimdLevel : std::uint8_t {
  kScalar = 0,  // portable u64 kernel
  kWide = 1,    // AVX2 / NEON kernel
};

/// Widest level this binary + CPU can execute (independent of overrides).
SimdLevel detected_simd_level() noexcept;

/// The level the build dispatches on: detected level clamped by the
/// SPOOFTRACK_SIMD override (or force_simd_level). Cached after the first
/// call; cheap enough for per-call dispatch.
SimdLevel active_simd_level() noexcept;

/// "scalar" / "wide".
std::string_view simd_level_name(SimdLevel level) noexcept;

/// Test/bench hook: pin the active level (clamped to the detected level),
/// or std::nullopt to restore SPOOFTRACK_SIMD/auto resolution.
void force_simd_level(std::optional<SimdLevel> level) noexcept;

}  // namespace spooftrack::util
