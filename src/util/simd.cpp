#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define SPOOFTRACK_SIMD_X86 1
#elif defined(__aarch64__)
#define SPOOFTRACK_SIMD_NEON 1
#endif

namespace spooftrack::util {

namespace {

SimdLevel detect() noexcept {
#if defined(SPOOFTRACK_SIMD_X86)
  return __builtin_cpu_supports("avx2") ? SimdLevel::kWide
                                        : SimdLevel::kScalar;
#elif defined(SPOOFTRACK_SIMD_NEON)
  return SimdLevel::kWide;  // NEON is architectural on aarch64.
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel resolve() noexcept {
  const SimdLevel detected = detected_simd_level();
  const char* env = std::getenv("SPOOFTRACK_SIMD");
  if (env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) return SimdLevel::kScalar;
    // "wide" is a request, clamped to hardware; anything else is auto.
  }
  return detected;
}

// -1 = unresolved, otherwise a SimdLevel. A separate forced slot (offset
// by 2) lets force_simd_level(nullopt) fall back to env/auto resolution.
std::atomic<int> g_active{-1};
std::atomic<int> g_forced{-1};

}  // namespace

SimdLevel detected_simd_level() noexcept {
  static const SimdLevel level = detect();
  return level;
}

SimdLevel active_simd_level() noexcept {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SimdLevel>(forced);
  int active = g_active.load(std::memory_order_relaxed);
  if (active < 0) {
    active = static_cast<int>(resolve());
    g_active.store(active, std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(active);
}

std::string_view simd_level_name(SimdLevel level) noexcept {
  return level == SimdLevel::kWide ? "wide" : "scalar";
}

void force_simd_level(std::optional<SimdLevel> level) noexcept {
  if (!level.has_value()) {
    g_forced.store(-1, std::memory_order_relaxed);
    return;
  }
  SimdLevel clamped = *level;
  if (clamped == SimdLevel::kWide &&
      detected_simd_level() != SimdLevel::kWide) {
    clamped = SimdLevel::kScalar;
  }
  g_forced.store(static_cast<int>(clamped), std::memory_order_relaxed);
}

}  // namespace spooftrack::util
