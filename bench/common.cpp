#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <thread>

#include "core/config_gen.hpp"
#include "core/io.hpp"
#include "obs/obs.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace spooftrack::bench {

namespace {

// Started at static initialization: finish() reports wall time for the
// whole process, which is what you want to compare across bench runs.
const obs::Stopwatch process_watch;

[[noreturn]] void usage_error(const std::string& message,
                              const util::FlagSet& flags) {
  std::cerr << message << "\nflags:\n" << flags.usage();
  std::exit(2);
}

}  // namespace

BenchOptions BenchOptions::parse(int argc, char** argv) {
  BenchOptions options;
  util::FlagSet flags;
  flags.define("seed", "deterministic seed", std::to_string(options.seed))
      .define("tier1", "tier-1 clique size", std::to_string(options.tier1))
      .define("transit", "transit AS count", std::to_string(options.transit))
      .define("stubs", "stub AS count", std::to_string(options.stubs))
      .define("probes", "RIPE-Atlas-style probe ASes",
              std::to_string(options.probes))
      .define("rounds", "traceroute rounds per configuration",
              std::to_string(options.rounds))
      .define("sequences", "Figure 8 random schedules",
              std::to_string(options.sequences))
      .define("placements", "Figure 10 source placements",
              std::to_string(options.placements))
      .define("greedy-steps", "Figure 8 greedy horizon",
              std::to_string(options.greedy_steps))
      .define_switch("ground-truth",
                     "use routing ground truth instead of the measured "
                     "pipeline")
      .define("cache-dir", "standard deployment cache directory",
              options.cache_dir)
      .define_switch("no-cache", "neither load nor write the cache")
      .define("obs-report", "write a JSON RunReport here", "")
      .define_switch("quick", "smoke-test sizes, single worker");
  if (!flags.parse(argc, argv)) usage_error(flags.error(), flags);
  if (!flags.positionals().empty()) {
    usage_error("unexpected argument: " + flags.positionals().front(), flags);
  }
  const auto number = [&flags](const char* name, std::uint64_t hi) {
    const auto value = flags.get_u64(name, 0, hi);
    if (!value) {
      usage_error(std::string("--") + name + "=" + flags.get(name) +
                      ": expected an integer in [0, " + std::to_string(hi) +
                      "]",
                  flags);
    }
    return *value;
  };
  const auto u32 = [&number](const char* name) {
    return static_cast<std::uint32_t>(
        number(name, std::numeric_limits<std::uint32_t>::max()));
  };
  options.seed = number("seed", std::numeric_limits<std::uint64_t>::max());
  options.tier1 = u32("tier1");
  options.transit = u32("transit");
  options.stubs = u32("stubs");
  options.probes = u32("probes");
  options.rounds = u32("rounds");
  options.sequences = u32("sequences");
  options.placements = u32("placements");
  options.greedy_steps = u32("greedy-steps");
  options.measured = !flags.get_switch("ground-truth");
  options.cache_dir = flags.get("cache-dir");
  options.no_cache = flags.get_switch("no-cache");
  options.obs_report = flags.get("obs-report");
  options.quick = flags.get_switch("quick");
  return options;
}

int finish(const BenchOptions& options, std::string_view bench_name,
           const std::function<void(obs::RunReport&)>& decorate) {
  if (options.obs_report.empty()) return 0;
  obs::RunReport report = obs::RunReport::capture(bench_name);
  report.value("wall_ms", process_watch.elapsed_ms());
  // Machine context: every report says what it ran on, so single-core or
  // oversubscribed numbers need no hand-written explanation.
  const unsigned hardware = std::thread::hardware_concurrency();
  report.value("hardware_concurrency", static_cast<double>(hardware));
  report.value("workers",
               static_cast<double>(util::default_worker_count()));
  if (hardware <= 1) {
    // Parallel speedups measured here are meaningless; flag the report so
    // downstream comparisons can discount them instead of mistaking
    // contention for regression.
    report.label("single_core", "true");
    std::cerr << "[bench] WARNING: single-core host "
              << "(hardware_concurrency <= 1); parallel speedups are not "
              << "meaningful, report flagged single_core=true\n";
  }
  if (decorate) decorate(report);
  try {
    report.save_json_file(options.obs_report);
    std::cerr << "[bench] wrote obs report to " << options.obs_report << "\n";
  } catch (const std::exception& e) {
    std::cerr << "[bench] obs report failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

core::TestbedConfig BenchOptions::testbed_config() const {
  core::TestbedConfig config;
  config.seed = seed;
  config.tier1_count = tier1;
  config.transit_count = transit;
  config.stub_count = stubs;
  config.probe_count = probes;
  config.traceroute_rounds = rounds;
  config.measured_catchments = measured;
  config.audit_policies = true;  // Figure 9 shares the standard deployment
  return config;
}

namespace {

std::uint64_t options_key(const BenchOptions& o) {
  std::uint64_t key = o.seed;
  for (std::uint64_t field :
       {std::uint64_t{o.tier1}, std::uint64_t{o.transit},
        std::uint64_t{o.stubs}, std::uint64_t{o.probes},
        std::uint64_t{o.rounds}, std::uint64_t{o.measured ? 1u : 0u}}) {
    key = util::hash_combine(key, field);
  }
  return key;
}

ConfigMeta meta_of(const bgp::Configuration& config, Phase phase) {
  ConfigMeta meta;
  meta.phase = phase;
  for (const auto& spec : config.announcements) {
    meta.active_mask |= 1u << spec.link;
    if (spec.prepend > 0) meta.prepend_mask |= 1u << spec.link;
    if (!spec.poisoned.empty()) {
      meta.poison_link = spec.link;
      meta.poison_asn = spec.poisoned.front();
    }
  }
  return meta;
}

/// Rebuilds the bench view from a (possibly cached) artifact.
StandardDeployment from_artifact(const core::DeploymentArtifact& artifact) {
  StandardDeployment dep;
  dep.location_end = artifact.annotation("location_end");
  dep.prepend_end = artifact.annotation("prepend_end");
  dep.matrix = artifact.matrix;
  dep.source_distance = artifact.source_distance;
  dep.compliance = artifact.compliance;
  dep.mean_multi_catchment = artifact.mean_multi_catchment;
  dep.mean_coverage = artifact.mean_coverage;
  dep.as_count = artifact.as_count;
  dep.link_count = artifact.link_count;
  dep.configs.reserve(artifact.configs.size());
  for (std::size_t i = 0; i < artifact.configs.size(); ++i) {
    const Phase phase = i < dep.location_end  ? Phase::kLocation
                        : i < dep.prepend_end ? Phase::kPrepend
                                              : Phase::kPoison;
    dep.configs.push_back(meta_of(artifact.configs[i], phase));
  }
  return dep;
}

}  // namespace

StandardDeployment run_standard(const BenchOptions& options) {
  const std::uint64_t key = options_key(options);
  const std::string cache_path =
      options.cache_dir + "/standard-" + std::to_string(key) + ".artifact";

  if (!options.no_cache) {
    try {
      const obs::Stopwatch load_watch;
      auto artifact = core::load_artifact_file(cache_path);
      OBS_COUNT("bench.cache_hits", 1);
      OBS_HIST("bench.cache_load_ns", "ns", load_watch.elapsed_ns());
      std::cerr << "[bench] loaded standard deployment from " << cache_path
                << "\n";
      return from_artifact(artifact);
    } catch (const std::exception&) {
      // Cache miss or corruption: fall through and (re)compute.
    }
  }
  OBS_COUNT("bench.cache_misses", 1);

  std::cerr << "[bench] running standard deployment (seed=" << options.seed
            << ", " << options.stubs << " stubs, "
            << (options.measured ? "measured" : "ground-truth")
            << " catchments)...\n";

  const core::PeeringTestbed testbed(options.testbed_config());
  const core::ConfigGenerator generator = testbed.generator();
  auto location = generator.location_phase();
  const auto prepends = generator.prepend_phase(location);
  const auto poisons = generator.poison_phase(testbed.graph());

  std::vector<bgp::Configuration> plan = location;
  plan.insert(plan.end(), prepends.begin(), prepends.end());
  plan.insert(plan.end(), poisons.begin(), poisons.end());

  const std::size_t location_end = location.size();
  const std::size_t prepend_end = location.size() + prepends.size();

  const auto result = testbed.deploy(std::move(plan));
  auto artifact = core::make_artifact(result, options.seed,
                                      testbed.graph().size(),
                                      testbed.origin().links.size());
  artifact.annotate("location_end", location_end);
  artifact.annotate("prepend_end", prepend_end);

  if (!options.no_cache) {
    std::error_code ec;
    std::filesystem::create_directories(options.cache_dir, ec);
    try {
      core::save_artifact_file(artifact, cache_path);
    } catch (const std::exception& e) {
      std::cerr << "[bench] cache write failed: " << e.what() << "\n";
    }
  }
  return from_artifact(artifact);
}

std::vector<double> trajectory(const measure::CatchmentStore& matrix,
                               const std::vector<std::size_t>& rows) {
  std::vector<double> means;
  if (matrix.empty()) return means;
  core::ClusterTracker tracker(matrix.sources());
  means.reserve(rows.size());
  for (std::size_t row : rows) {
    tracker.refine(matrix.row(row));
    means.push_back(tracker.mean_cluster_size());
  }
  return means;
}

std::vector<std::size_t> log_samples(std::size_t n,
                                     std::vector<std::size_t> anchors) {
  std::vector<std::size_t> samples = std::move(anchors);
  for (double x = 1.0; x <= static_cast<double>(n); x *= 1.25) {
    samples.push_back(static_cast<std::size_t>(std::llround(x)));
  }
  samples.push_back(n);
  std::sort(samples.begin(), samples.end());
  samples.erase(std::unique(samples.begin(), samples.end()), samples.end());
  samples.erase(std::remove_if(samples.begin(), samples.end(),
                               [n](std::size_t s) { return s < 1 || s > n; }),
                samples.end());
  return samples;
}

}  // namespace spooftrack::bench
