// Golden-checksum equivalence suite.
//
// The hash-consed PathArena engine reproduces the exact outcomes of the
// pre-arena engine (per-route std::vector<Asn> paths). The golden
// checksums below were emitted by that engine at the commit preceding the
// arena change; outcome_checksum(kFull) folds every route field, every
// path ASN, next hops, settled rounds and the round count, so a match here
// is outcome equality, not a smoke signal.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bgp/engine.hpp"
#include "bgp/policy.hpp"
#include "helpers.hpp"
#include "topology/synth.hpp"

namespace spooftrack {
namespace {

constexpr topology::Asn kOriginAsn = 47065;
constexpr std::uint32_t kLinkCount = 7;

topology::SynthTopology make_topo(std::uint64_t seed, std::uint32_t tier1,
                                  std::uint32_t transit, std::uint32_t stubs) {
  topology::SynthConfig synth;
  synth.seed = seed;
  synth.tier1_count = tier1;
  synth.transit_count = transit;
  synth.stub_count = stubs;
  synth.origin_asn = kOriginAsn;
  for (std::uint32_t l = 0; l < kLinkCount; ++l) {
    synth.reserved_transit_asns.push_back(60000 + l);
  }
  return topology::synthesize(synth);
}

bgp::OriginSpec make_origin() {
  bgp::OriginSpec origin;
  origin.asn = kOriginAsn;
  for (std::uint32_t l = 0; l < kLinkCount; ++l) {
    origin.links.push_back({l, "pop-" + std::to_string(l), 60000 + l});
  }
  return origin;
}

/// The three statically known configuration shapes; the fourth
/// ("no-export") depends on the topology and is built in the test.
std::vector<bgp::Configuration> static_configs() {
  std::vector<bgp::Configuration> configs(3);
  configs[0].label = "all-plain";
  for (std::uint32_t l = 0; l < kLinkCount; ++l) {
    configs[0].announcements.push_back({l, 0, {}, {}});
  }
  configs[1].label = "prepend";
  for (std::uint32_t l = 0; l < kLinkCount; ++l) {
    configs[1].announcements.push_back({l, l == 0 ? 4u : 0u, {}, {}});
  }
  configs[2].label = "poison";
  for (std::uint32_t l = 0; l < 5; ++l) {
    bgp::AnnouncementSpec spec{l, 0, {}, {}};
    if (l == 1) spec.poisoned = {60004, 60005};
    configs[2].announcements.push_back(spec);
  }
  return configs;
}

/// Blocks the first neighbor of link 2's provider that actually routes
/// through it on announcement 2 (so the steering bites). Mirrors the
/// golden generator exactly.
bgp::Configuration no_export_config(const topology::AsGraph& graph,
                                    const bgp::RoutingOutcome& all_plain,
                                    topology::Asn* blocked_out) {
  const auto provider_id = *graph.id_of(60002);
  topology::Asn blocked = 0;
  for (const topology::Neighbor& n : graph.neighbors(provider_id)) {
    const topology::Asn asn = graph.asn_of(n.id);
    if (asn != kOriginAsn && all_plain.next_hop[n.id] == provider_id &&
        all_plain.best[n.id].valid() && all_plain.best[n.id].ann == 2) {
      blocked = asn;
      break;
    }
  }
  if (blocked_out != nullptr) *blocked_out = blocked;
  bgp::Configuration config;
  config.label = "no-export";
  for (std::uint32_t l = 0; l < kLinkCount; ++l) {
    bgp::AnnouncementSpec spec{l, 0, {}, {}};
    if (l == 2 && blocked != 0) spec.no_export_to = {blocked};
    config.announcements.push_back(spec);
  }
  return config;
}

struct GoldenTopo {
  const char* name;
  std::uint64_t seed;
  std::uint32_t tier1, transit, stubs;
  std::size_t as_count;
  topology::Asn blocked;                 // discovered no-export target
  std::uint64_t checksums[4];            // all-plain, prepend, poison,
                                         // no-export
};

// Emitted by the pre-arena engine (commit 0a91c67) via outcome_checksum's
// exact fold; see the generator description in the file comment.
constexpr GoldenTopo kGoldens[] = {
    {"warm-world",
     20260805,
     8,
     120,
     900,
     1029,
     174,
     {0x38e98461d472d176ULL, 0xcef623a28bc24c11ULL, 0x2d163e3aa00cb6b9ULL,
      0xb6ad2a9baf41a8e8ULL}},
    {"small",
     7,
     4,
     40,
     200,
     245,
     64511,
     {0x2faa73f9d1ac4fd1ULL, 0x07099610066bfc33ULL, 0xbf494159d8d40f5bULL,
      0xd5422efd570f5626ULL}},
};

class GoldenChecksum : public ::testing::TestWithParam<GoldenTopo> {};

TEST_P(GoldenChecksum, ArenaEngineReproducesPreArenaOutcomes) {
  const GoldenTopo& golden = GetParam();
  const auto topo =
      make_topo(golden.seed, golden.tier1, golden.transit, golden.stubs);
  ASSERT_EQ(topo.graph.size(), golden.as_count)
      << "topology drift: goldens no longer apply";
  const bgp::RoutingPolicy policy(topo.graph, bgp::PolicyConfig{});
  const bgp::Engine engine(topo.graph, policy);
  const bgp::OriginSpec origin = make_origin();

  auto configs = static_configs();
  const auto all_plain = engine.run(origin, configs[0]);
  topology::Asn blocked = 0;
  configs.push_back(no_export_config(topo.graph, all_plain, &blocked));
  ASSERT_EQ(blocked, golden.blocked)
      << "no-export target drift: goldens no longer apply";

  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto outcome = engine.run(origin, configs[i]);
    ASSERT_TRUE(outcome.converged) << configs[i].label;
    EXPECT_EQ(bgp::outcome_checksum(outcome, bgp::ChecksumScope::kFull),
              golden.checksums[i])
        << golden.name << " / " << configs[i].label;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, GoldenChecksum,
                         ::testing::ValuesIn(kGoldens),
                         [](const auto& info) {
                           return std::string(info.param.name) == "warm-world"
                                      ? "WarmWorld"
                                      : "Small";
                         });

TEST(OutcomeChecksum, ScopesDiffer) {
  // kRoutes must ignore convergence telemetry: two outcomes with identical
  // routes but different settled rounds share a kRoutes digest and differ
  // under kFull.
  const auto topo = make_topo(7, 4, 40, 200);
  const bgp::RoutingPolicy policy(topo.graph, bgp::PolicyConfig{});
  const bgp::OriginSpec origin = make_origin();
  const auto configs = static_configs();

  const bgp::Engine fast(topo.graph, policy);
  const auto a = fast.run(origin, configs[1]);
  const auto warm = test::warm_run(fast, origin, configs[1], configs[0],
                                   fast.run(origin, configs[0]));
  EXPECT_EQ(bgp::outcome_checksum(a, bgp::ChecksumScope::kRoutes),
            bgp::outcome_checksum(warm, bgp::ChecksumScope::kRoutes));
  EXPECT_NE(bgp::outcome_checksum(a, bgp::ChecksumScope::kFull),
            bgp::outcome_checksum(warm, bgp::ChecksumScope::kFull));
}

}  // namespace
}  // namespace spooftrack
