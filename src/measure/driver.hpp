// Measurement plane (§IV): runs the per-configuration pipeline — feed
// snapshot -> traceroute batch -> §IV-b repair -> catchment inference — one
// configuration per measure_one call, on a caller-owned Scratch.
//
// Determinism contract: every random draw in the pipeline derives from
// (traceroute seed, salt = hash_combine(config index, round)), so a
// configuration's result depends on nothing but its index and inputs, never
// on which worker or scratch measured it. The deploy's work stage fans
// measure_one out over its workers, one Scratch each, and stays
// byte-identical for any worker count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/engine.hpp"
#include "fault/fault.hpp"
#include "measure/feed.hpp"
#include "measure/inference.hpp"
#include "measure/repair.hpp"
#include "measure/traceroute.hpp"
#include "topology/as_graph.hpp"

namespace spooftrack::measure {

/// Per-probe forwarding paths under one routing outcome, flattened. The
/// snapshot deliberately does not retain the RoutingOutcome: the deploy
/// extracts it at produce, and the chain's next warm run then takes over
/// the outcome's storage while the paths are still being measured; the
/// paths are all the measurement plane needs from it.
struct ProbePathSet {
  std::vector<topology::AsId> flat;
  std::vector<std::uint32_t> offsets;  // probes.size() + 1 fenceposts

  std::span<const topology::AsId> path(std::size_t probe_index) const {
    return std::span(flat).subspan(
        offsets[probe_index], offsets[probe_index + 1] - offsets[probe_index]);
  }

  /// Walks bgp::forwarding_path once per probe, rebuilding `set` in its
  /// existing buffers (the deploy recycles a small pool of path sets
  /// instead of allocating one per configuration). An unrouted probe stores
  /// an empty path, along which TracerouteSim::run_on_path's trace dies at
  /// the probe gateway.
  static void extract_into(const bgp::RoutingOutcome& outcome,
                           std::span<const topology::AsId> probes,
                           topology::AsId origin, ProbePathSet& set);
};

class MeasurementDriver {
 public:
  /// Everything one worker reuses across measure_one calls. Traceroute hop
  /// storage, repair indexes, and inference vote buffers reach a steady
  /// state after the first configuration; reuse never changes results
  /// (every component resets its buffers per call).
  struct Scratch {
    std::vector<Traceroute> traces;
    std::vector<AsLevelPath> repaired;
    PathRepair::Scratch repair;
    CatchmentInference::Scratch inference;
  };

  /// The referenced components and probe list must outlive the driver.
  /// `traceroute_rounds` traceroutes run per probe and configuration
  /// (§IV-b).
  MeasurementDriver(const TracerouteSim& tracer, const PathRepair& repair,
                    const CatchmentInference& inference,
                    std::span<const topology::AsId> probes,
                    topology::AsId origin, std::uint32_t traceroute_rounds);

  /// Runs the full §IV pipeline for one configuration: traceroute batch
  /// (salts derive from `config_index` and the round, nothing else) →
  /// §IV-b repair → catchment inference. One call, one configuration, one
  /// scratch. When `quality` is non-null its feed/trace accounting fields
  /// are filled (feed_faults is the caller's: the driver only sees the
  /// surviving entries); the grade is left untouched.
  InferenceResult measure_one(std::size_t config_index,
                              const std::vector<FeedEntry>& feeds,
                              const ProbePathSet& paths, Scratch& scratch,
                              fault::ConfigQuality* quality = nullptr) const;

 private:
  const TracerouteSim& tracer_;
  const PathRepair& repair_;
  const CatchmentInference& inference_;
  std::span<const topology::AsId> probes_;
  topology::AsId origin_;
  std::uint32_t rounds_;
};

}  // namespace spooftrack::measure
