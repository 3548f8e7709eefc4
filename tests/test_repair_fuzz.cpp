// Fuzz-style tests of the traceroute-repair pipeline: random topologies,
// random loss/addressing artifacts, thousands of traces — the pipeline
// must never crash, and its outputs must satisfy structural guarantees
// regardless of how mangled the input is.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <span>
#include <unordered_set>

#include "bgp/catchment.hpp"
#include "core/experiment.hpp"
#include "helpers.hpp"
#include "measure/feed.hpp"
#include "measure/repair.hpp"
#include "measure/traceroute.hpp"
#include "oracles.hpp"
#include "util/rng.hpp"

namespace spooftrack::measure {
namespace {

struct FuzzParam {
  std::uint64_t seed;
  double hop_loss;
  double as_silent;
  double foreign_border;
  double ip2as_missing;
};

/// One noise level's batch: a small testbed, measurement components with
/// the level's noise, and traceroutes from every third AS with the feed
/// snapshot of one configuration. Members refer to each other, so a batch
/// stays where it was built.
struct NoisyBatch {
  explicit NoisyBatch(const FuzzParam& param)
      : testbed(testbed_config(param)),
        plan(testbed.graph()),
        ixps(testbed.graph(), 6, 0.5, param.seed ^ 0x1A),
        ip2as(Ip2AsMap::from_plan(testbed.graph(), plan, core::kPeeringAsn,
                                  {param.ip2as_missing, param.seed})),
        tracer(testbed.graph(), plan, ixps, traceroute_options(param)),
        repair(testbed.graph(), ip2as, ixps, core::kPeeringAsn) {
    const auto& graph = testbed.graph();
    const auto announce = testbed.generator().location_phase().front();
    const auto outcome = testbed.route(announce);

    // Probe from every 3rd AS, two rounds each.
    for (topology::AsId probe = 0; probe < graph.size(); probe += 3) {
      if (probe == testbed.origin_id()) continue;
      for (std::uint64_t round = 0; round < 2; ++round) {
        traces.push_back(
            test::trace(tracer, outcome, probe, testbed.origin_id(), round));
      }
    }

    const FeedSimulator feed_sim(graph, {60, 0.6, param.seed ^ 0x5EED});
    feed_sim.collect_into(outcome, feeds);
  }
  NoisyBatch(const NoisyBatch&) = delete;
  NoisyBatch& operator=(const NoisyBatch&) = delete;

  static core::TestbedConfig testbed_config(const FuzzParam& param) {
    core::TestbedConfig config;
    config.seed = param.seed;
    config.stub_count = 250;
    config.transit_count = 30;
    config.tier1_count = 4;
    config.measured_catchments = false;
    return config;
  }

  static TracerouteOptions traceroute_options(const FuzzParam& param) {
    TracerouteOptions options;
    options.hop_unresponsive_prob = param.hop_loss;
    options.as_silent_prob = param.as_silent;
    options.border_foreign_addr_prob = param.foreign_border;
    options.seed = param.seed ^ 0x7E;
    return options;
  }

  /// test::legacy_repair of `traces` with `feeds`.
  std::vector<AsLevelPath> legacy(std::span<const Traceroute> batch,
                                  std::span<const FeedEntry> batch_feeds)
      const {
    return test::legacy_repair(testbed.graph(), ip2as, ixps,
                               core::kPeeringAsn, batch, batch_feeds);
  }

  const core::PeeringTestbed testbed;
  const AddressPlan plan;
  const IxpTable ixps;
  const Ip2AsMap ip2as;
  const TracerouteSim tracer;
  const PathRepair repair;
  std::vector<Traceroute> traces;
  std::vector<FeedEntry> feeds;
};

const FuzzParam kNoiseGrid[] = {{1, 0.00, 0.00, 0.0, 0.00},
                                {2, 0.05, 0.02, 0.35, 0.03},
                                {3, 0.15, 0.05, 0.50, 0.10},
                                {4, 0.30, 0.10, 0.80, 0.25},
                                {5, 0.50, 0.20, 1.00, 0.50}};

// Names each noise level by its seed in the ctest name instead of the
// bytes gtest would print.
void PrintTo(const FuzzParam& param, std::ostream* os) {
  *os << "seed" << param.seed;
}

class RepairFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(RepairFuzz, StructuralGuaranteesUnderNoise) {
  const FuzzParam param = GetParam();
  const NoisyBatch batch(param);
  const auto& graph = batch.testbed.graph();
  const auto& traces = batch.traces;
  const auto& feeds = batch.feeds;
  const PathRepair& repair = batch.repair;

  const auto repaired = test::repair(repair, traces, feeds);
  ASSERT_EQ(repaired.size(), traces.size());

  // Bit-equivalence with the pre-optimization pipeline on the same batch.
  const auto reference = batch.legacy(traces, feeds);
  ASSERT_EQ(repaired, reference);

  std::unordered_set<topology::Asn> known_asns;
  for (topology::AsId id = 0; id < graph.size(); ++id) {
    known_asns.insert(graph.asn_of(id));
  }

  std::size_t complete = 0;
  for (std::size_t i = 0; i < repaired.size(); ++i) {
    const AsLevelPath& path = repaired[i];
    // Anchored at the probe AS.
    ASSERT_FALSE(path.path.empty());
    EXPECT_EQ(path.path.front(), graph.asn_of(traces[i].probe));
    // No consecutive duplicates.
    for (std::size_t h = 1; h < path.path.size(); ++h) {
      EXPECT_NE(path.path[h], path.path[h - 1]);
    }
    // Every ASN is real (no fabricated ASes from address confusion).
    for (topology::Asn asn : path.path) {
      EXPECT_TRUE(known_asns.contains(asn)) << asn;
    }
    // complete <=> ends at the origin ASN.
    EXPECT_EQ(path.complete, path.path.back() == core::kPeeringAsn);
    complete += path.complete;
    // The origin never appears in the middle of a path.
    for (std::size_t h = 0; h + 1 < path.path.size(); ++h) {
      EXPECT_NE(path.path[h], core::kPeeringAsn);
    }
  }

  // Even under heavy noise a healthy fraction of traces completes
  // (losses are transient and repair recovers interior gaps).
  EXPECT_GT(static_cast<double>(complete) /
                static_cast<double>(repaired.size()),
            param.hop_loss >= 0.3 ? 0.2 : 0.5);
}

INSTANTIATE_TEST_SUITE_P(NoiseGrid, RepairFuzz,
                         ::testing::ValuesIn(kNoiseGrid));

TEST(RepairFuzzExtra, OneScratchAcrossNoiseLevelsAndBatchSizes) {
  // Every noise level's batch, sliced into batches that shrink and grow,
  // with and without the feed snapshot, all through one scratch and one
  // output vector. Each batch must equal the legacy repair of that batch
  // alone: a cleared index keeps nothing from the batch before, a path
  // rewritten in place keeps nothing of the path before, and a hop memo
  // filled for one level's repairer is not served to the next.
  std::vector<std::unique_ptr<NoisyBatch>> levels;
  for (const FuzzParam& param : kNoiseGrid) {
    levels.push_back(std::make_unique<NoisyBatch>(param));
  }
  PathRepair::Scratch scratch;
  std::vector<AsLevelPath> out;
  constexpr std::size_t kEighths[] = {8, 3, 1, 0, 2, 8, 5, 1};
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t l = 0; l < levels.size(); ++l) {
      const NoisyBatch& level =
          *levels[pass == 0 ? l : levels.size() - 1 - l];
      const std::size_t n = level.traces.size();
      for (std::size_t k = 0; k < std::size(kEighths); ++k) {
        const std::size_t size = n * kEighths[k] / 8;
        const std::size_t offset = (k * 97) % (n - size + 1);
        const auto traces = std::span(level.traces).subspan(offset, size);
        const auto feeds = (k + pass) % 2 == 0
                               ? std::span<const FeedEntry>(level.feeds)
                               : std::span<const FeedEntry>();
        level.repair.repair(traces, feeds, scratch, out);
        ASSERT_EQ(out, level.legacy(traces, feeds))
            << "pass " << pass << " level " << l << " slice " << k;
      }
    }
  }
}

topology::AsGraph tiny_graph() {
  topology::AsGraph g;
  g.add_p2c(100, 1);
  g.add_p2c(100, core::kPeeringAsn);
  g.add_p2c(200, 100);
  g.freeze();
  return g;
}

TEST(RepairFuzzExtra, AdversarialHandCraftedTraces) {
  // Hand-mangled traces: all-silent, alternating loss, single hop, only
  // the destination, garbage addresses.
  const auto graph = tiny_graph();
  const AddressPlan plan(graph);
  const IxpTable ixps(graph, 1, 0.0, 9);
  const Ip2AsMap ip2as =
      Ip2AsMap::from_plan(graph, plan, core::kPeeringAsn, {0.0, 1});
  const PathRepair repair(graph, ip2as, ixps, core::kPeeringAsn);

  std::vector<Traceroute> traces;
  auto add = [&](std::vector<std::optional<netcore::Ipv4Addr>> hops) {
    Traceroute t;
    t.probe = 0;
    for (auto& h : hops) t.hops.push_back({h});
    traces.push_back(std::move(t));
  };
  add({});                                          // empty
  add({std::nullopt, std::nullopt, std::nullopt});  // all silent
  add({netcore::Ipv4Addr{8, 8, 8, 8}});             // unmapped garbage
  add({AddressPlan::experiment_target()});          // destination only
  add({std::nullopt, AddressPlan::experiment_target()});
  add({plan.router_address(1, 0), std::nullopt, std::nullopt,
       plan.router_address(1, 1)});  // gap bridged by same AS

  const auto repaired = test::repair(repair, traces, {});
  ASSERT_EQ(repaired.size(), traces.size());
  for (const auto& path : repaired) {
    ASSERT_FALSE(path.path.empty());
    EXPECT_EQ(path.path.front(), graph.asn_of(0));
  }
  // Destination-only trace resolves to probe + origin.
  EXPECT_TRUE(repaired[3].complete);
}

TEST(RepairWindowBoundary, ExactWindowSubstitutesOnePastNever) {
  // Property: an unresponsive run of exactly kSubstitutionWindow hops
  // between responsive anchors is substitutable from a donor trace; a run
  // of kSubstitutionWindow + 1 never is, regardless of batch content.
  constexpr std::size_t kW = PathRepair::kSubstitutionWindow;
  const auto graph = tiny_graph();
  const AddressPlan plan(graph);
  const IxpTable ixps(graph, 1, 0.0, 9);
  const Ip2AsMap ip2as =
      Ip2AsMap::from_plan(graph, plan, core::kPeeringAsn, {0.0, 1});
  const PathRepair repair(graph, ip2as, ixps, core::kPeeringAsn);

  const topology::AsId probe = *graph.id_of(200);
  const topology::AsId mid = *graph.id_of(100);
  const topology::AsId far = *graph.id_of(1);

  auto make = [&](netcore::Ipv4Addr left, netcore::Ipv4Addr right,
                  std::size_t interior, std::uint32_t base,
                  bool responsive) {
    Traceroute t;
    t.probe = probe;
    t.hops.push_back({left});
    for (std::size_t k = 0; k < interior; ++k) {
      if (responsive) {
        t.hops.push_back({plan.router_address(mid, base + k)});
      } else {
        t.hops.push_back({std::nullopt});
      }
    }
    t.hops.push_back({right});
    return t;
  };
  auto contains_mid = [&](const AsLevelPath& path) {
    for (topology::Asn asn : path.path) {
      if (asn == graph.asn_of(mid)) return true;
    }
    return false;
  };

  util::Rng rng{0xB0D1E5};
  for (int trial = 0; trial < 24; ++trial) {
    const auto left = plan.router_address(probe, rng.next_below(512));
    const auto right = plan.router_address(far, rng.next_below(512));
    const auto base = static_cast<std::uint32_t>(rng.next_below(1024));
    const std::size_t gap = kW + rng.next_below(2);  // kW or kW + 1

    const std::vector<Traceroute> batch = {
        make(left, right, gap, base, true),    // donor
        make(left, right, gap, base, false)};  // same-width gap
    const auto repaired = test::repair(repair, batch, {});
    ASSERT_EQ(repaired.size(), 2u);
    if (gap == kW) {
      EXPECT_TRUE(contains_mid(repaired[1])) << "trial " << trial;
      EXPECT_EQ(repaired[1].path, repaired[0].path) << "trial " << trial;
    } else {
      // One past the window: the donor pair is never indexed and the run
      // is never substituted; the sides (distinct ASes) stay unbridged.
      EXPECT_FALSE(contains_mid(repaired[1])) << "trial " << trial;
    }

    // Even with a donor interior *inside* the window, a gap one wider than
    // the window must not inherit it (the substitute-side guard).
    const std::vector<Traceroute> uneven = {
        make(left, right, kW, base, true),
        make(left, right, kW + 1, base, false)};
    const auto mismatched = test::repair(repair, uneven, {});
    EXPECT_FALSE(contains_mid(mismatched[1])) << "trial " << trial;
  }
}

}  // namespace
}  // namespace spooftrack::measure
