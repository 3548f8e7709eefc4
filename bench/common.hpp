// Shared infrastructure for the evaluation benches.
//
// Every figure of the paper's §V is derived from one "standard deployment":
// the 705-configuration plan (64 location + 294 prepend + 347 poison)
// deployed on the PeeringTestbed with the measured §IV pipeline. The
// deployment is expensive relative to the per-figure analysis, so benches
// share it through a binary cache file keyed by the generation options —
// the first bench pays, the rest load in milliseconds.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "core/policy_audit.hpp"
#include "measure/catchment_store.hpp"
#include "obs/report.hpp"

namespace spooftrack::bench {

struct BenchOptions {
  std::uint64_t seed = 42;
  std::uint32_t tier1 = 8;
  std::uint32_t transit = 150;
  std::uint32_t stubs = 2500;
  std::uint32_t probes = 800;
  std::uint32_t rounds = 2;      // traceroute rounds per configuration
  bool measured = true;          // §IV pipeline vs ground truth
  std::uint32_t sequences = 300; // Figure 8 random schedules
  std::uint32_t placements = 1000;  // Figure 10 source placements
  std::uint32_t greedy_steps = 100; // Figure 8 greedy horizon
  std::string cache_dir = "bench_cache";
  bool no_cache = false;
  std::string obs_report;  // --obs-report=PATH: write a JSON RunReport here
  bool quick = false;      // --quick: smoke-test sizes, single worker

  /// Parses the flags with util::FlagSet. An unknown flag, a non-flag
  /// argument or a malformed or out-of-range value prints usage and exits
  /// 2.
  static BenchOptions parse(int argc, char** argv);

  core::TestbedConfig testbed_config() const;
};

/// Standard bench epilogue: when --obs-report was given, captures the
/// merged obs registry plus process wall time into a RunReport named
/// `bench_name` and writes it as JSON. Every report also records the
/// machine context (`hardware_concurrency`, the resolved `workers` count)
/// so single-core numbers explain themselves. `decorate`, when given, runs
/// on the report before it is written — benches add their own labels and
/// values there instead of hand-rolling reports. Returns the process exit
/// code, so benches end with `return bench::finish(options, "fig3");`
int finish(const BenchOptions& options, std::string_view bench_name,
           const std::function<void(obs::RunReport&)>& decorate = {});

enum class Phase : std::uint8_t { kLocation = 0, kPrepend = 1, kPoison = 2 };

struct ConfigMeta {
  Phase phase = Phase::kLocation;
  std::uint32_t active_mask = 0;    // bit i: link i announced
  std::uint32_t prepend_mask = 0;   // bit i: link i prepended
  std::uint32_t poison_link = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t poison_asn = 0;
};

struct StandardDeployment {
  std::vector<ConfigMeta> configs;
  std::size_t location_end = 0;  // index one past the location phase (64)
  std::size_t prepend_end = 0;   // index one past the prepending phase (358)

  measure::CatchmentStore matrix;             // rows = configs, cols = sources
  std::vector<std::uint32_t> source_distance; // min AS-hops per source
  std::vector<core::ComplianceStats> compliance;  // per config
  double mean_multi_catchment = 0.0;
  double mean_coverage = 0.0;
  std::size_t as_count = 0;
  std::size_t link_count = 7;

  std::size_t source_count() const { return matrix.sources(); }
};

/// Runs (or loads from cache) the standard deployment for the options.
StandardDeployment run_standard(const BenchOptions& options);

/// Mean-cluster-size trajectory over a row subset of the matrix, refined in
/// the given order.
std::vector<double> trajectory(const measure::CatchmentStore& matrix,
                               const std::vector<std::size_t>& rows);

/// Log-spaced sample indices over [1, n] (inclusive), always containing 1,
/// n and the provided anchors.
std::vector<std::size_t> log_samples(std::size_t n,
                                     std::vector<std::size_t> anchors = {});

}  // namespace spooftrack::bench
