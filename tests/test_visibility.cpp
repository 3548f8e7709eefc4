#include "measure/visibility.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "helpers.hpp"
#include "oracles.hpp"

namespace spooftrack::measure {
namespace {

constexpr bgp::LinkId kMissing = bgp::kNoCatchment;

TEST(Visibility, BaselineSourcesAreObservedAndResolved) {
  InferenceResult first;
  first.catchments = test::catchment_map({0, kMissing, 1, kMissing});
  EXPECT_EQ(baseline_sources(first),
            (std::vector<topology::AsId>{0, 2}));
}

TEST(Visibility, MatrixUsesObservedCells) {
  // The deploy's commit stage fills the matrix: under an active fault plan
  // (lost feeds and traceroutes, failed deployments) every cell whose
  // source the configuration observed with a resolved catchment must hold
  // exactly that catchment — imputation only ever fills the rest.
  core::TestbedConfig config;
  config.seed = 23;
  config.tier1_count = 4;
  config.transit_count = 24;
  config.stub_count = 180;
  config.probe_count = 70;
  config.feed.peer_count = 40;
  config.traceroute_rounds = 2;
  config.faults.set_all(0.15);
  const core::PeeringTestbed testbed(config);
  auto configs = testbed.generator().location_phase();
  configs.resize(8);
  const auto result = testbed.deploy(configs);

  ASSERT_EQ(result.matrix.configs(), configs.size());
  ASSERT_EQ(result.matrix.sources(), result.sources.size());
  std::size_t checked = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const InferenceResult& measured = result.measured[i];
    for (std::size_t s = 0; s < result.sources.size(); ++s) {
      const topology::AsId id = result.sources[s];
      const bgp::LinkId link = measured.catchments[id];
      if (link == kMissing) continue;
      EXPECT_EQ(result.matrix.link_at(i, s), link)
          << "config " << i << " source " << s;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(Visibility, ImputationFollowsSmax) {
  // Sources 0 and 1 always share a catchment where both observed; source 1
  // is missing in the last configuration and must inherit source 0's cell.
  CatchmentStore matrix = test::store_of({
      {0, 0, 1},
      {1, 1, 1},
      {0, kMissing, 0},
  });
  impute_missing(matrix);
  EXPECT_EQ(matrix.link_at(2, 1), 0u);
}

TEST(Visibility, ImputationPrefersMostFrequentCompanion) {
  // Source 2 matches source 1 twice and source 0 once; missing cells take
  // source 1's value.
  CatchmentStore matrix = test::store_of({
      {0, 1, 1},
      {2, 3, 3},
      {4, 5, kMissing},
  });
  impute_missing(matrix);
  EXPECT_EQ(matrix.link_at(2, 2), 5u);
}

TEST(Visibility, NoCompanionLeavesCellMissing) {
  // Source 1 never shares a catchment with anyone: cell stays missing.
  CatchmentStore matrix = test::store_of({
      {0, 1},
      {0, kMissing},
  });
  // Companion source 0 never matched source 1 (0 vs 1), so frequency 0.
  impute_missing(matrix);
  EXPECT_EQ(matrix.link_at(1, 1), kMissing);
}

TEST(Visibility, TwoPassImputationChains) {
  // Source 2's s_max is source 1, which itself needs imputation from
  // source 0 in config 1; the second pass completes the chain.
  CatchmentStore matrix = test::store_of({
      {0, 0, 0},
      {1, kMissing, kMissing},
  });
  impute_missing(matrix);
  EXPECT_EQ(matrix.link_at(1, 1), 1u);
  EXPECT_EQ(matrix.link_at(1, 2), 1u);
}

TEST(Visibility, EmptyMatrixIsFine) {
  CatchmentStore empty;
  EXPECT_NO_THROW(impute_missing(empty));
  CatchmentStore no_sources = test::store_of({{}});
  EXPECT_NO_THROW(impute_missing(no_sources));
}

}  // namespace
}  // namespace spooftrack::measure
