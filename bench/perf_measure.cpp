// Measurement-plane throughput: the MeasurementDriver acceptance bench.
//
// For each topology size it routes a handful of announcement
// configurations (untimed), then measures, best-of-N:
//
//   * the legacy serial pipeline, reimplemented verbatim as it ran inline
//     in PeeringTestbed::deploy before the driver existed: per config,
//     collect feeds, walk the routing outcome once per traceroute round
//     (TracerouteSim::run), repair the batch with owned-vector
//     substitution indexes, infer with a per-call vote buffer;
//   * MeasurementDriver::measure_one per configuration on one scratch, as
//     one deploy worker runs it (feed collection and path extraction into
//     recycled buffers included in the timed region).
//
// The legacy reference allocates exactly where the old code allocated —
// per-pair interior vectors in both substitution indexes, fresh hop and
// mapping buffers per trace, a fresh vote matrix per config — so the
// speedup is attributable to the driver's scratch reuse, slice-pooled
// indexes, and shared per-config forwarding paths. Equivalence is asserted
// bit-for-bit: measure_one must reproduce the legacy InferenceResults
// exactly or the bench exits non-zero. Worker scaling is measured end to
// end by bench/e2e (parallel_speedup).
//
// Usage: perf_measure [--seed=N] [--obs-report=PATH] [--quick]
#include <cstdint>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "core/experiment.hpp"
#include "measure/driver.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace spooftrack;

constexpr std::uint32_t kRounds = 2;

struct Size {
  const char* name;
  std::uint32_t tier1, transit, stubs, probes, feed_peers;
  std::size_t configs;
  std::uint32_t repeats;
};

constexpr Size kSizes[] = {
    {"small", 4, 40, 400, 120, 60, 8, 5},
    {"medium", 6, 80, 1200, 400, 150, 12, 3},
    {"large", 8, 150, 2500, 800, 250, 16, 3},
};
constexpr Size kQuickSizes[] = {{"quick", 4, 16, 120, 40, 30, 3, 1}};

// --- Legacy reference: the pre-driver inline pipeline ---------------------

namespace legacy {

constexpr std::size_t kWindow = measure::PathRepair::kSubstitutionWindow;

std::uint64_t pack(std::uint64_t a, std::uint64_t b) {
  return (a << 32) | (b & 0xFFFFFFFFULL);
}

template <typename T>
struct SeqEntry {
  std::vector<T> seq;
  bool conflict = false;
};

template <typename T>
void record(std::unordered_map<std::uint64_t, SeqEntry<T>>& map,
            std::uint64_t key, const std::vector<T>& interior) {
  const auto it = map.find(key);
  if (it == map.end()) {
    map.emplace(key, SeqEntry<T>{interior});
    return;
  }
  if (!it->second.conflict && it->second.seq != interior) {
    it->second.conflict = true;
  }
}

using AddrSeqMap =
    std::unordered_map<std::uint64_t, SeqEntry<netcore::Ipv4Addr>>;
using AsnSeqMap = std::unordered_map<std::uint64_t, SeqEntry<topology::Asn>>;

AddrSeqMap build_address_index(std::span<const measure::Traceroute> traces) {
  AddrSeqMap map;
  for (const measure::Traceroute& trace : traces) {
    const auto& hops = trace.hops;
    for (std::size_t i = 0; i < hops.size(); ++i) {
      if (!hops[i].responsive()) continue;
      std::vector<netcore::Ipv4Addr> interior;
      for (std::size_t j = i + 1; j < hops.size() && j - i <= kWindow + 1;
           ++j) {
        if (!hops[j].responsive()) break;
        record(map, pack(hops[i].address->value(), hops[j].address->value()),
               interior);
        interior.push_back(*hops[j].address);
      }
    }
  }
  return map;
}

AsnSeqMap build_feed_index(std::span<const measure::FeedEntry> feeds,
                           topology::Asn origin_asn) {
  AsnSeqMap map;
  for (const measure::FeedEntry& feed : feeds) {
    std::vector<topology::Asn> path;
    for (topology::Asn asn : feed.as_path) {
      if (path.empty() || path.back() != asn) path.push_back(asn);
    }
    for (std::size_t i = 0; i < path.size(); ++i) {
      std::vector<topology::Asn> interior;
      for (std::size_t j = i + 1; j < path.size() && j - i <= kWindow + 1;
           ++j) {
        if (j - i >= 2 && path[j - 1] == origin_asn) break;
        record(map, pack(path[i], path[j]), interior);
        interior.push_back(path[j]);
      }
    }
  }
  return map;
}

std::vector<measure::TracerouteHop> substitute_unresponsive(
    const std::vector<measure::TracerouteHop>& hops, const AddrSeqMap& index) {
  std::vector<measure::TracerouteHop> out;
  out.reserve(hops.size());
  std::size_t i = 0;
  while (i < hops.size()) {
    if (hops[i].responsive()) {
      out.push_back(hops[i]);
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < hops.size() && !hops[j].responsive()) ++j;
    const bool has_left = !out.empty() && out.back().responsive();
    const bool has_right = j < hops.size();
    bool substituted = false;
    if (has_left && has_right && j - i <= kWindow) {
      const auto it = index.find(pack(out.back().address->value(),
                                      hops[j].address->value()));
      if (it != index.end() && !it->second.conflict) {
        for (netcore::Ipv4Addr addr : it->second.seq) out.push_back({addr});
        substituted = true;
      }
    }
    if (!substituted) {
      for (std::size_t k = i; k < j; ++k) out.push_back(hops[k]);
    }
    i = j;
  }
  return out;
}

measure::AsLevelPath finish_mapping(
    const topology::AsGraph& graph, const measure::Ip2AsMap& ip2as,
    const measure::IxpTable& ixps, topology::Asn origin_asn,
    topology::AsId probe, const std::vector<measure::TracerouteHop>& hops,
    const AsnSeqMap* feed_index) {
  std::vector<std::optional<topology::Asn>> mapped;
  mapped.reserve(hops.size());
  for (const measure::TracerouteHop& hop : hops) {
    if (!hop.responsive()) {
      mapped.push_back(std::nullopt);
      continue;
    }
    if (ixps.is_ixp_address(*hop.address)) continue;
    mapped.push_back(ip2as.lookup(*hop.address));
  }

  std::vector<topology::Asn> as_hops;
  std::size_t i = 0;
  while (i < mapped.size()) {
    if (mapped[i]) {
      as_hops.push_back(*mapped[i]);
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < mapped.size() && !mapped[j]) ++j;
    const bool has_left = !as_hops.empty();
    const bool has_right = j < mapped.size();
    if (has_left && has_right) {
      const topology::Asn left = as_hops.back();
      const topology::Asn right = *mapped[j];
      if (left == right) {
        // Gap internal to one AS.
      } else if (feed_index != nullptr && j - i <= kWindow) {
        const auto it = feed_index->find(pack(left, right));
        if (it != feed_index->end() && !it->second.conflict) {
          for (topology::Asn asn : it->second.seq) as_hops.push_back(asn);
        }
      }
    }
    i = j;
  }

  measure::AsLevelPath result;
  result.probe = probe;
  result.path.push_back(graph.asn_of(probe));
  for (topology::Asn asn : as_hops) {
    if (result.path.back() != asn) result.path.push_back(asn);
  }
  result.complete = result.path.back() == origin_asn;
  return result;
}

std::vector<measure::AsLevelPath> repair(
    const topology::AsGraph& graph, const measure::Ip2AsMap& ip2as,
    const measure::IxpTable& ixps, topology::Asn origin_asn,
    std::span<const measure::Traceroute> traces,
    std::span<const measure::FeedEntry> feeds) {
  const AddrSeqMap address_index = build_address_index(traces);
  const AsnSeqMap feed_index = build_feed_index(feeds, origin_asn);
  std::vector<measure::AsLevelPath> out;
  out.reserve(traces.size());
  for (const measure::Traceroute& trace : traces) {
    const auto hops = substitute_unresponsive(trace.hops, address_index);
    out.push_back(finish_mapping(graph, ip2as, ixps, origin_asn, trace.probe,
                                 hops, &feed_index));
  }
  return out;
}

}  // namespace legacy

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

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);

  const std::span<const Size> sizes =
      options.quick ? std::span<const Size>(kQuickSizes)
                    : std::span<const Size>(kSizes);

  std::cout << "{\n  \"bench\": \"perf_measure\",\n"
            << "  \"hardware_concurrency\": "
            << std::thread::hardware_concurrency()
            << ",\n  \"rounds\": " << kRounds << ",\n  \"sizes\": [\n";

  bool equivalent = true;
  double speedup_serial_last = 0.0;
  bool first_size = true;
  for (const Size& size : sizes) {
    core::TestbedConfig config;
    config.seed = options.seed;
    config.tier1_count = size.tier1;
    config.transit_count = size.transit;
    config.stub_count = size.stubs;
    config.probe_count = size.probes;
    config.measured_catchments = false;  // the bench runs the pipeline itself
    const core::PeeringTestbed testbed(config);
    const auto& graph = testbed.graph();

    const measure::AddressPlan plan(graph);
    const measure::IxpTable ixps(graph, 6, 0.5, options.seed ^ 0x1A);
    const measure::Ip2AsMap ip2as = measure::Ip2AsMap::from_plan(
        graph, plan, core::kPeeringAsn, {0.05, options.seed});
    const measure::FeedSimulator feed_sim(
        graph, {size.feed_peers, 0.6, options.seed ^ 0x5EED});
    measure::TracerouteOptions traceroute_options;  // realistic default noise
    traceroute_options.seed = options.seed ^ 0x7E;
    const measure::TracerouteSim tracer(graph, plan, ixps,
                                        traceroute_options);
    const measure::PathRepair repair(graph, ip2as, ixps, core::kPeeringAsn);
    const measure::CatchmentInference inference(graph, testbed.origin());

    // Route the configurations once; propagation time is not the subject.
    auto announce = testbed.generator().location_phase();
    announce.resize(std::min(size.configs, announce.size()));
    std::vector<bgp::RoutingOutcome> outcomes;
    outcomes.reserve(announce.size());
    for (const auto& c : announce) outcomes.push_back(testbed.route(c));

    const std::span<const topology::AsId> probes = testbed.probe_ases();
    const std::size_t traces_per_rep =
        announce.size() * probes.size() * kRounds;

    // Legacy serial pipeline, as it ran inline in deploy().
    std::vector<measure::InferenceResult> reference(announce.size());
    const double legacy_ms = best_of(size.repeats, [&] {
      for (std::size_t i = 0; i < announce.size(); ++i) {
        std::vector<measure::FeedEntry> feeds;
        feeds.reserve(feed_sim.peers().size());
        feed_sim.collect_into(outcomes[i], feeds);
        std::vector<measure::Traceroute> traces;
        traces.reserve(probes.size() * kRounds);
        for (topology::AsId probe : probes) {
          for (std::uint32_t round = 0; round < kRounds; ++round) {
            traces.push_back(tracer.run(outcomes[i], probe,
                                        testbed.origin_id(),
                                        util::hash_combine(i, round)));
          }
        }
        const auto paths = legacy::repair(graph, ip2as, ixps,
                                          core::kPeeringAsn, traces, feeds);
        reference[i] = inference.infer(feeds, paths);
      }
    });

    // Driver pipeline: snapshotting (feeds + paths) is part of the timed
    // region, exactly as the deploy's work stage pays for it.
    const measure::MeasurementDriver driver(tracer, repair, inference, probes,
                                            testbed.origin_id(), kRounds);
    measure::MeasurementDriver::Scratch scratch;
    std::vector<measure::FeedEntry> feeds;
    measure::ProbePathSet paths;
    std::vector<measure::InferenceResult> results(announce.size());
    const double driver_ms = best_of(size.repeats, [&] {
      for (std::size_t i = 0; i < announce.size(); ++i) {
        feed_sim.collect_into(outcomes[i], feeds);
        measure::ProbePathSet::extract_into(outcomes[i], probes,
                                            testbed.origin_id(), paths);
        results[i] = driver.measure_one(i, feeds, paths, scratch);
      }
    });
    if (results != reference) {
      equivalent = false;
      std::cerr << "FAIL[" << size.name
                << "]: measure_one results diverge from the legacy "
                   "pipeline\n";
    }
    const double speedup_serial =
        driver_ms > 0.0 ? legacy_ms / driver_ms : 0.0;
    speedup_serial_last = speedup_serial;

    if (!first_size) std::cout << ",\n";
    first_size = false;
    std::cout << "    {\"name\": \"" << size.name
              << "\", \"ases\": " << graph.size()
              << ", \"configs\": " << announce.size()
              << ", \"probes\": " << probes.size()
              << ", \"traces\": " << traces_per_rep
              << ",\n     \"legacy_ms\": " << util::fmt_double(legacy_ms, 2)
              << ", \"driver_ms\": " << util::fmt_double(driver_ms, 2)
              << ", \"speedup_serial\": "
              << util::fmt_double(speedup_serial, 2) << "}";
  }
  std::cout << "\n  ],\n  \"equivalent\": " << (equivalent ? "true" : "false")
            << ",\n  \"speedup_serial\": "
            << util::fmt_double(speedup_serial_last, 2) << "\n}\n";

  const int report_rc =
      bench::finish(options, "perf_measure", [&](obs::RunReport& report) {
        report.label("equivalent", equivalent ? "true" : "false")
            .value("speedup_serial", speedup_serial_last);
      });

  if (!equivalent) {
    std::cerr << "FAIL: measurement driver diverges from legacy pipeline\n";
    return 1;
  }
  return report_rc;
}
