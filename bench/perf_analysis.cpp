// Analysis-pipeline throughput: the columnar CatchmentStore acceptance
// bench. For each matrix size it generates a deterministic synthetic
// catchment matrix (hidden source groups plus measurement noise, so
// clusters split gradually instead of saturating on the first row) and
// measures, best-of-N:
//
//   * store build from LinkId rows, and the bit-sliced BitplaneStore
//     mirror build (with a scalar-vs-wide dispatch gate),
//   * cluster refinement: the reference u32 LinkId-row tracker vs
//     ClusterTracker on encoded u8 rows vs clustering from the decoded
//     bit planes,
//   * greedy scheduling: the reference serial rescan vs
//     core::greedy_schedule's maintained counts single-threaded (the
//     speedup_serial acceptance number), plus a worker sweep,
//   * online cluster attribution on the store (tiled column gather).
//
// The references are the plain algorithms of tests/oracles.hpp (same
// epoch-stamped bucket tables, same first-touch dense ids, same
// lowest-index-max tie break) over std::vector<std::vector<bgp::LinkId>>,
// without the u8 layout, the bit planes, the singleton word-skip or the
// maintained counts — so every speedup is attributable to the store and
// its kernels, and equivalence can be asserted bit-for-bit: cluster ids,
// greedy orders, parallel-vs-serial orders and scalar-vs-wide plane
// builds must all match or the bench exits non-zero.
//
// Usage: perf_analysis [--seed=N] [--obs-report=PATH] [--quick]
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bgp/catchment.hpp"
#include "common.hpp"
#include "core/attribution.hpp"
#include "core/cluster.hpp"
#include "core/scheduler.hpp"
#include "measure/bitplane_store.hpp"
#include "measure/catchment_store.hpp"
#include "obs/obs.hpp"
#include "oracles.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

namespace {

using namespace spooftrack;

constexpr std::uint32_t kLinkCount = 7;

struct Size {
  const char* name;
  std::size_t configs, sources, steps;
  std::uint32_t repeats;
};

constexpr Size kSizes[] = {
    {"small", 100, 500, 40, 7},
    {"medium", 300, 1500, 60, 5},
    {"large", 705, 3000, 60, 3},
};
constexpr Size kQuickSizes[] = {{"quick", 20, 100, 10, 1}};

constexpr std::uint32_t kWorkerCounts[] = {1, 2, 4, 8};
constexpr std::uint32_t kQuickWorkerCounts[] = {1};

// Deterministic synthetic matrix as LinkId rows. Sources belong to hidden
// groups sharing a per-config prototype catchment; a small flip/missing
// noise rate makes refinement split clusters gradually, the regime the
// greedy scheduler actually runs in.
test::LinkRows synth_matrix(const Size& size, std::uint64_t seed) {
  util::Rng rng(seed ^ 0xA11A);
  const std::size_t groups = std::max<std::size_t>(8, size.sources / 6);
  std::vector<std::size_t> group_of(size.sources);
  for (auto& g : group_of) g = rng.next_below(groups);

  test::LinkRows matrix(size.configs);
  std::vector<bgp::LinkId> prototype(groups);
  for (auto& row : matrix) {
    for (auto& p : prototype) {
      p = static_cast<bgp::LinkId>(rng.next_below(kLinkCount));
    }
    row.resize(size.sources);
    for (std::size_t s = 0; s < size.sources; ++s) {
      if (rng.chance(0.02)) {
        row[s] = bgp::kNoCatchment;
      } else if (rng.chance(0.02)) {
        row[s] = static_cast<bgp::LinkId>(rng.next_below(kLinkCount));
      } else {
        row[s] = prototype[group_of[s]];
      }
    }
  }
  return matrix;
}

template <typename Fn>
double best_of(std::uint32_t repeats, Fn&& fn) {
  double best_ms = 0.0;
  for (std::uint32_t rep = 0; rep < repeats; ++rep) {
    const obs::Stopwatch watch;
    fn();
    const double ms = watch.elapsed_ms();
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms;
}

/// Per-config per-link spoofed volumes for the attribution stage: Pareto
/// source volumes accumulated onto each configuration's catchment links.
std::vector<std::vector<double>> synth_volumes(
    const measure::CatchmentStore& matrix, std::uint64_t seed) {
  util::Rng rng(seed ^ 0xB01);
  std::vector<double> volume(matrix.sources());
  for (auto& v : volume) v = rng.pareto(1.2);
  std::vector<std::vector<double>> per_config(
      matrix.configs(), std::vector<double>(kLinkCount, 0.0));
  for (std::size_t c = 0; c < matrix.configs(); ++c) {
    const auto row = matrix.row(c);
    for (std::size_t s = 0; s < matrix.sources(); ++s) {
      if (row[s] != bgp::kNoCatchment8 && row[s] < kLinkCount) {
        per_config[c][row[s]] += volume[s];
      }
    }
  }
  return per_config;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);

  const std::span<const Size> sizes =
      options.quick ? std::span<const Size>(kQuickSizes)
                    : std::span<const Size>(kSizes);
  const std::span<const std::uint32_t> worker_counts =
      options.quick ? std::span<const std::uint32_t>(kQuickWorkerCounts)
                    : std::span<const std::uint32_t>(kWorkerCounts);

  std::cout << "{\n  \"bench\": \"perf_analysis\",\n"
            << "  \"hardware_concurrency\": "
            << std::thread::hardware_concurrency() << ",\n  \"sizes\": [\n";

  bool equivalent = true;
  double speedup_serial_last = 0.0;
  bool first_size = true;
  for (const Size& size : sizes) {
    const auto legacy_matrix = synth_matrix(size, options.seed);

    // Store build (LinkId rows -> columnar).
    measure::CatchmentStore matrix;
    const double build_ms = best_of(size.repeats, [&] {
      matrix = test::store_of(legacy_matrix);
    });
    OBS_GAUGE("analysis.matrix_bytes", matrix.size_bytes());

    // Bit-sliced mirror build, plus the dispatch gate: the scalar and wide
    // builders must agree bit for bit and the round trip must reproduce the
    // byte store exactly. The gate runs in --quick too, so CI's bench-smoke
    // exercises both SIMD paths on every change.
    measure::BitplaneStore planes;
    const double bitplane_build_ms = best_of(size.repeats, [&] {
      planes = measure::BitplaneStore(matrix);
    });
    {
      util::force_simd_level(util::SimdLevel::kScalar);
      const measure::BitplaneStore scalar_planes(matrix);
      util::force_simd_level(util::SimdLevel::kWide);
      const measure::BitplaneStore wide_planes(matrix);
      util::force_simd_level(std::nullopt);
      if (!(scalar_planes == wide_planes)) {
        equivalent = false;
        std::cerr << "FAIL[" << size.name
                  << "]: scalar and wide bitplane builds diverge\n";
      }
      if (planes.to_store() != matrix) {
        equivalent = false;
        std::cerr << "FAIL[" << size.name
                  << "]: bitplane round trip loses cells\n";
      }
    }

    // Refinement: u32 reference vs ClusterTracker on u8 rows.
    test::LegacyTracker legacy_tracker(size.sources);
    const double legacy_refine_ms = best_of(size.repeats, [&] {
      legacy_tracker = test::LegacyTracker(size.sources);
      for (const auto& row : legacy_matrix) legacy_tracker.refine(row);
    });
    core::Clustering clustering;
    const double store_refine_ms = best_of(size.repeats, [&] {
      clustering = core::cluster_sources(matrix);
    });
    if (clustering.cluster_of != legacy_tracker.cluster_of() ||
        clustering.cluster_count != legacy_tracker.cluster_count()) {
      equivalent = false;
      std::cerr << "FAIL[" << size.name
                << "]: store clustering diverges from legacy reference\n";
    }
    core::Clustering bitplane_clustering;
    const double bitplane_refine_ms = best_of(size.repeats, [&] {
      bitplane_clustering = core::cluster_sources(planes);
    });
    if (bitplane_clustering.cluster_of != clustering.cluster_of ||
        bitplane_clustering.cluster_count != clustering.cluster_count) {
      equivalent = false;
      std::cerr << "FAIL[" << size.name
                << "]: bitplane clustering diverges from byte store\n";
    }

    // Greedy scheduling: serial reference vs store, then the worker sweep
    // (all orders must be bit-identical).
    std::vector<std::size_t> legacy_order;
    const double legacy_greedy_ms = best_of(size.repeats, [&] {
      legacy_order = test::legacy_greedy(legacy_matrix, size.steps).order;
    });

    double serial_ms = 0.0;
    std::vector<std::size_t> serial_order;
    std::vector<std::pair<std::uint32_t, double>> worker_ms;
    for (std::uint32_t workers : worker_counts) {
      core::ScheduleTrace trace;
      const double ms = best_of(size.repeats, [&] {
        trace = core::greedy_schedule(matrix, size.steps, workers);
      });
      worker_ms.emplace_back(workers, ms);
      if (workers == 1) {
        serial_ms = ms;
        serial_order = trace.order;
        if (trace.order != legacy_order) {
          equivalent = false;
          std::cerr << "FAIL[" << size.name
                    << "]: store greedy order diverges from legacy\n";
        }
      } else if (trace.order != serial_order) {
        equivalent = false;
        std::cerr << "FAIL[" << size.name << "]: greedy order at "
                  << workers << " workers diverges from serial\n";
      }
    }
    const double speedup_serial =
        serial_ms > 0.0 ? legacy_greedy_ms / serial_ms : 0.0;
    speedup_serial_last = speedup_serial;

    // Attribution on the store (timed; equivalence with the legacy path is
    // covered bit-for-bit by tests/test_catchment_store.cpp).
    const auto volumes = synth_volumes(matrix, options.seed);
    core::AttributionResult attribution;
    const double attribution_ms = best_of(size.repeats, [&] {
      attribution = core::attribute_clusters(matrix, clustering, volumes);
    });
    if (attribution.ranking.size() != clustering.cluster_count) {
      equivalent = false;
      std::cerr << "FAIL[" << size.name << "]: attribution ranking size\n";
    }

    if (!first_size) std::cout << ",\n";
    first_size = false;
    std::cout << "    {\"name\": \"" << size.name
              << "\", \"configs\": " << size.configs
              << ", \"sources\": " << size.sources
              << ", \"steps\": " << size.steps
              << ", \"matrix_bytes\": " << matrix.size_bytes()
              << ",\n     \"build_ms\": " << util::fmt_double(build_ms, 3)
              << ", \"bitplane_build_ms\": "
              << util::fmt_double(bitplane_build_ms, 3)
              << ", \"bitplane_bytes\": " << planes.size_bytes()
              << ",\n     \"legacy_refine_ms\": "
              << util::fmt_double(legacy_refine_ms, 3)
              << ", \"store_refine_ms\": "
              << util::fmt_double(store_refine_ms, 3)
              << ", \"bitplane_refine_ms\": "
              << util::fmt_double(bitplane_refine_ms, 3)
              << ", \"refine_speedup\": "
              << util::fmt_double(
                     store_refine_ms > 0.0 ? legacy_refine_ms / store_refine_ms
                                           : 0.0,
                     2)
              << ",\n     \"legacy_greedy_ms\": "
              << util::fmt_double(legacy_greedy_ms, 2)
              << ", \"store_greedy_ms\": " << util::fmt_double(serial_ms, 2)
              << ", \"speedup_serial\": "
              << util::fmt_double(speedup_serial, 2)
              << ", \"attribution_ms\": "
              << util::fmt_double(attribution_ms, 3)
              << ",\n     \"workers\": {";
    bool first_cell = true;
    for (const auto& [workers, ms] : worker_ms) {
      if (!first_cell) std::cout << ", ";
      first_cell = false;
      std::cout << "\"" << workers << "\": {\"ms\": "
                << util::fmt_double(ms, 2) << ", \"speedup\": "
                << util::fmt_double(ms > 0.0 ? serial_ms / ms : 0.0, 2)
                << "}";
    }
    std::cout << "}}";
  }
  std::cout << "\n  ],\n  \"simd\": \""
            << util::simd_level_name(util::active_simd_level())
            << "\",\n  \"equivalent\": " << (equivalent ? "true" : "false")
            << ",\n  \"speedup_serial\": "
            << util::fmt_double(speedup_serial_last, 2) << "\n}\n";

  const int report_rc =
      bench::finish(options, "perf_analysis", [&](obs::RunReport& report) {
        report.label("equivalent", equivalent ? "true" : "false")
            .label("simd", util::simd_level_name(util::active_simd_level()))
            .value("speedup_serial", speedup_serial_last);
      });

  if (!equivalent) {
    std::cerr << "FAIL: columnar analysis diverges from the reference\n";
    return 1;
  }
  return report_rc;
}
