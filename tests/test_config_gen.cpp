#include "core/config_gen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/experiment.hpp"
#include "helpers.hpp"
#include "topology/synth.hpp"

namespace spooftrack::core {
namespace {

bgp::OriginSpec seven_link_origin() {
  bgp::OriginSpec origin;
  origin.asn = kPeeringAsn;
  for (bgp::LinkId id = 0; id < 7; ++id) {
    origin.links.push_back({id, "pop", 1000 + id});
  }
  return origin;
}

TEST(Combinations, EnumeratesLexicographically) {
  const auto combos = combinations(4, 2);
  ASSERT_EQ(combos.size(), 6u);
  EXPECT_EQ(combos.front(), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(combos.back(), (std::vector<std::uint32_t>{2, 3}));
}

TEST(Combinations, EdgeCases) {
  EXPECT_EQ(combinations(3, 0).size(), 1u);  // the empty subset
  EXPECT_EQ(combinations(3, 3).size(), 1u);
  EXPECT_TRUE(combinations(2, 3).empty());
}

TEST(ConfigGen, LocationPhaseMatchesPaperCount) {
  // Paper: sum_{x=0..3} C(7, 7-x) = 64 configurations.
  const ConfigGenerator gen(seven_link_origin());
  const auto configs = gen.location_phase();
  EXPECT_EQ(configs.size(), 64u);
  EXPECT_EQ(ConfigGenerator::location_phase_size(7, 3), 64u);

  // First configuration announces everywhere.
  EXPECT_EQ(configs.front().announcements.size(), 7u);
  // Sizes are non-increasing (decreasing size order).
  for (std::size_t i = 1; i < configs.size(); ++i) {
    EXPECT_GE(configs[i - 1].announcements.size(),
              configs[i].announcements.size());
  }
  // Smallest subsets have 7 - 3 = 4 links.
  EXPECT_EQ(configs.back().announcements.size(), 4u);
  // All distinct link sets.
  std::set<std::vector<bgp::LinkId>> seen;
  for (const auto& config : configs) {
    std::vector<bgp::LinkId> links;
    for (const auto& spec : config.announcements) links.push_back(spec.link);
    std::sort(links.begin(), links.end());
    EXPECT_TRUE(seen.insert(links).second);
  }
}

TEST(ConfigGen, PrependPhaseMatchesPaperCount) {
  // Paper: sum_{x=0..3} (7-x) C(7, 7-x) = 294 extra configurations.
  const ConfigGenerator gen(seven_link_origin());
  const auto bases = gen.location_phase();
  const auto prepends = gen.prepend_phase(bases);
  EXPECT_EQ(prepends.size(), 294u);
  EXPECT_EQ(ConfigGenerator::location_and_prepend_size(7, 3), 358u);

  for (const auto& config : prepends) {
    std::size_t prepended = 0;
    for (const auto& spec : config.announcements) {
      if (spec.prepend > 0) {
        ++prepended;
        EXPECT_EQ(spec.prepend, 4u);  // the paper's prepend depth
      }
      EXPECT_TRUE(spec.poisoned.empty());
    }
    EXPECT_EQ(prepended, 1u);  // single-link prepend sets
  }
}

TEST(ConfigGen, SmallerFootprintFormulas) {
  // Paper §V-B: 6 locations/2 removals -> 118; 5 locations/1 removal -> 31.
  EXPECT_EQ(ConfigGenerator::location_and_prepend_size(6, 2), 118u);
  EXPECT_EQ(ConfigGenerator::location_and_prepend_size(5, 1), 31u);
}

TEST(ConfigGen, PrependSubsetsGrowInSize) {
  GeneratorOptions options;
  options.max_removals = 1;
  options.max_prepend_set = 2;
  bgp::OriginSpec origin;
  origin.asn = kPeeringAsn;
  for (bgp::LinkId id = 0; id < 3; ++id) {
    origin.links.push_back({id, "pop", 1000 + id});
  }
  const ConfigGenerator gen(origin, options);
  std::vector<bgp::Configuration> base;
  base.push_back(test::announce_all(3));
  const auto prepends = gen.prepend_phase(base);
  // C(3,1) + C(3,2) = 6 configurations, singles first.
  ASSERT_EQ(prepends.size(), 6u);
  auto prepended_count = [](const bgp::Configuration& c) {
    std::size_t n = 0;
    for (const auto& spec : c.announcements) n += spec.prepend > 0;
    return n;
  };
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(prepended_count(prepends[i]), 1u);
  for (std::size_t i = 3; i < 6; ++i) EXPECT_EQ(prepended_count(prepends[i]), 2u);
}

class PoisonPhaseTest : public ::testing::Test {
 protected:
  PoisonPhaseTest() : graph_(test::small_topology()) {}
  topology::AsGraph graph_;
};

TEST_F(PoisonPhaseTest, TargetsProviderNeighbors) {
  const ConfigGenerator gen(test::small_origin(), GeneratorOptions{1, 1, 4, 347});
  const auto configs = gen.poison_phase(graph_);
  // p1's neighbors: t1, a, d, origin -> targets t1, a, d (origin excluded).
  // p2's neighbors: t2, b, d, origin -> targets t2, b, d.
  EXPECT_EQ(configs.size(), 6u);
  for (const auto& config : configs) {
    // Announce from all links, poison exactly one AS on one link.
    EXPECT_EQ(config.announcements.size(), 2u);
    std::size_t poisoned = 0;
    for (const auto& spec : config.announcements) {
      poisoned += spec.poisoned.size();
      EXPECT_LE(spec.poisoned.size(), 1u);
    }
    EXPECT_EQ(poisoned, 1u);
  }
}

TEST_F(PoisonPhaseTest, CapBalancesAcrossLinks) {
  GeneratorOptions options;
  options.max_removals = 1;
  options.max_poison_configs = 2;
  const ConfigGenerator gen(test::small_origin(), options);
  const auto configs = gen.poison_phase(graph_);
  ASSERT_EQ(configs.size(), 2u);
  // Round-robin: one poison on link 0, one on link 1.
  std::set<bgp::LinkId> links;
  for (const auto& config : configs) {
    for (const auto& spec : config.announcements) {
      if (!spec.poisoned.empty()) links.insert(spec.link);
    }
  }
  EXPECT_EQ(links.size(), 2u);
}

TEST_F(PoisonPhaseTest, NeverPoisonsOriginOrProviders) {
  const ConfigGenerator gen(test::small_origin(), GeneratorOptions{1, 1, 4, 347});
  for (const auto& config : gen.poison_phase(graph_)) {
    for (const auto& spec : config.announcements) {
      for (topology::Asn poisoned : spec.poisoned) {
        EXPECT_NE(poisoned, test::kOrigin);
        EXPECT_NE(poisoned, test::kP1);
        EXPECT_NE(poisoned, test::kP2);
      }
    }
  }
}

TEST(ConfigGen, FullPlanConcatenatesPhases) {
  const topology::AsGraph graph = test::small_topology();
  const ConfigGenerator gen(test::small_origin(),
                            GeneratorOptions{1, 1, 4, 347});
  const auto plan = gen.full_plan(graph);
  // 2 links, 1 removal: C(2,2)+C(2,1) = 3 location configs;
  // prepends: 2*1 + 1*2 = 4; poison: 6. Total 13.
  EXPECT_EQ(plan.size(), 3u + 4u + 6u);
  // Every generated configuration validates.
  for (const auto& config : plan) {
    EXPECT_NO_THROW(bgp::validate(config, test::small_origin()));
  }
}

TEST(ConfigGen, RejectsDegenerateOptions) {
  EXPECT_THROW(ConfigGenerator(bgp::OriginSpec{}, {}), std::invalid_argument);
  GeneratorOptions options;
  options.max_removals = 2;
  EXPECT_THROW(ConfigGenerator(test::small_origin(), options),
               std::invalid_argument);
}

}  // namespace
}  // namespace spooftrack::core
