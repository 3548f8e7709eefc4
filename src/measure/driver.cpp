#include "measure/driver.hpp"

#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace spooftrack::measure {

void ProbePathSet::extract_into(const bgp::RoutingOutcome& outcome,
                                std::span<const topology::AsId> probes,
                                topology::AsId origin, ProbePathSet& set) {
  set.flat.clear();
  set.offsets.clear();
  set.offsets.reserve(probes.size() + 1);
  set.offsets.push_back(0);
  // One recycled walk buffer for every probe: forwarding_path_into clears
  // it per call, so only the first few probes grow it.
  thread_local std::vector<topology::AsId> walk;
  for (topology::AsId probe : probes) {
    bgp::forwarding_path_into(outcome, probe, origin, walk);
    set.flat.insert(set.flat.end(), walk.begin(), walk.end());
    set.offsets.push_back(static_cast<std::uint32_t>(set.flat.size()));
  }
}

MeasurementDriver::MeasurementDriver(const TracerouteSim& tracer,
                                     const PathRepair& repair,
                                     const CatchmentInference& inference,
                                     std::span<const topology::AsId> probes,
                                     topology::AsId origin,
                                     std::uint32_t traceroute_rounds)
    : tracer_(tracer),
      repair_(repair),
      inference_(inference),
      probes_(probes),
      origin_(origin),
      rounds_(traceroute_rounds) {}

InferenceResult MeasurementDriver::measure_one(
    std::size_t config_index, const std::vector<FeedEntry>& feeds,
    const ProbePathSet& paths, Scratch& scratch,
    fault::ConfigQuality* quality) const {
  OBS_TIMER("measure.driver.config_ns");
  const std::size_t probe_count = probes_.size();
  Scratch& s = scratch;
  if (s.traces.size() != probe_count * rounds_) {
    s.traces.resize(probe_count * rounds_);
  }
  std::size_t k = 0;
  for (std::size_t p = 0; p < probe_count; ++p) {
    const auto path = paths.path(p);
    for (std::uint32_t round = 0; round < rounds_; ++round) {
      tracer_.run_on_path(path, probes_[p], origin_,
                          util::hash_combine(config_index, round),
                          s.traces[k++]);
    }
  }
  OBS_COUNT("measure.driver.traceroutes", s.traces.size());
  if (quality != nullptr) {
    quality->feed_entries = static_cast<std::uint32_t>(feeds.size());
    quality->traces = static_cast<std::uint32_t>(s.traces.size());
    for (const Traceroute& trace : s.traces) {
      quality->trace_faults += trace.fault != 0 ? 1u : 0u;
    }
  }
  repair_.repair(s.traces, feeds, s.repair, s.repaired);
  return inference_.infer(feeds, s.repaired, s.inference);
}

}  // namespace spooftrack::measure
