// Equivalence suite for the columnar CatchmentStore: the store and the
// parallel greedy scheduler must be bit-identical to the plain reference
// algorithms in oracles.hpp (same epoch-stamped buckets, same first-touch
// dense ids, same lowest-index-max tie break) and to the nested-row
// attribution reference below (same floating-point arithmetic), so any
// divergence in the store, the refine, or the deterministic parallel
// reduction fails loudly here.
#include "measure/catchment_store.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <vector>

#include "bgp/catchment.hpp"
#include "core/attribution.hpp"
#include "core/cluster.hpp"
#include "core/cluster_slots.hpp"
#include "core/io.hpp"
#include "core/scheduler.hpp"
#include "oracles.hpp"
#include "util/rng.hpp"

namespace spooftrack {
namespace {

/// Attribution scores over nested LinkId trajectories: the store path's
/// arithmetic in the same iteration order, so rankings must match
/// bit-for-bit.
std::vector<std::uint32_t> legacy_attribution_ranking(
    const test::LinkRows& matrix,
    const std::vector<std::uint32_t>& cluster_of, std::uint32_t cluster_count,
    const std::vector<std::vector<double>>& link_volume_per_config) {
  constexpr auto kNone = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> representative(cluster_count, kNone);
  for (std::uint32_t s = 0; s < cluster_of.size(); ++s) {
    auto& rep = representative[cluster_of[s]];
    if (rep == kNone) rep = s;
  }

  constexpr double kEpsilon = 1e-6;
  std::vector<double> score(cluster_count,
                            -std::numeric_limits<double>::infinity());
  for (std::uint32_t c = 0; c < cluster_count; ++c) {
    double s = 0.0;
    for (std::size_t k = 0; k < matrix.size(); ++k) {
      const bgp::LinkId link = matrix[k][representative[c]];
      const auto& volumes = link_volume_per_config[k];
      double observed = kEpsilon;
      if (link != bgp::kNoCatchment && link < volumes.size()) {
        observed += volumes[link];
      }
      s += std::log(observed);
    }
    score[c] = s;
  }

  std::vector<std::uint32_t> ranking(cluster_count);
  std::iota(ranking.begin(), ranking.end(), 0u);
  std::sort(ranking.begin(), ranking.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (score[a] != score[b]) return score[a] > score[b];
              return a < b;
            });
  return ranking;
}

// --------------------------------------------------------------------------

constexpr std::uint32_t kLinkCount = 7;

std::vector<std::vector<double>> random_volumes(const test::LinkRows& matrix,
                                               std::uint64_t seed) {
  util::Rng rng(seed ^ 0xB01);
  const std::size_t sources = matrix.empty() ? 0 : matrix.front().size();
  std::vector<double> volume(sources);
  for (auto& v : volume) v = rng.pareto(1.2);
  std::vector<std::vector<double>> per_config(
      matrix.size(), std::vector<double>(kLinkCount, 0.0));
  for (std::size_t c = 0; c < matrix.size(); ++c) {
    for (std::size_t s = 0; s < sources; ++s) {
      const bgp::LinkId link = matrix[c][s];
      if (link != bgp::kNoCatchment && link < kLinkCount) {
        per_config[c][link] += volume[s];
      }
    }
  }
  return per_config;
}

// --- Store basics ---------------------------------------------------------

TEST(CatchmentStore, EncodeDecodeRoundTrip) {
  for (bgp::LinkId link = 0; link < bgp::kMaxCatchmentLinks; ++link) {
    const std::uint8_t cell = measure::CatchmentStore::encode(link);
    EXPECT_EQ(measure::CatchmentStore::decode(cell), link);
  }
  EXPECT_EQ(measure::CatchmentStore::encode(bgp::kNoCatchment),
            bgp::kNoCatchment8);
  EXPECT_EQ(measure::CatchmentStore::decode(bgp::kNoCatchment8),
            bgp::kNoCatchment);
}

TEST(CatchmentStore, EncodeThrowsOutOfRange) {
  EXPECT_THROW(measure::CatchmentStore::encode(bgp::kMaxCatchmentLinks),
               std::out_of_range);
  EXPECT_THROW(measure::CatchmentStore::encode(100), std::out_of_range);
}

TEST(CatchmentStore, ConstructionValidates) {
  EXPECT_THROW(test::store_of({{0, 1}, {2}}), std::invalid_argument);
  EXPECT_THROW(test::store_of({{0, 62, 1}}), std::out_of_range);
  EXPECT_NO_THROW(test::store_of({{0, 61, bgp::kNoCatchment}}));
}

TEST(CatchmentStore, ViewsMatchLegacyLayout) {
  const test::LinkRows legacy =
      test::random_matrix(/*configs=*/13, /*sources=*/29, /*seed=*/7);
  const measure::CatchmentStore store = test::store_of(legacy);
  ASSERT_EQ(store.configs(), legacy.size());
  ASSERT_EQ(store.sources(), legacy.front().size());
  EXPECT_EQ(store.size_bytes(), legacy.size() * legacy.front().size());

  for (std::size_t c = 0; c < store.configs(); ++c) {
    const auto row = store.row(c);
    for (std::size_t s = 0; s < store.sources(); ++s) {
      EXPECT_EQ(store.link_at(c, s), legacy[c][s]);
      EXPECT_EQ(measure::CatchmentStore::decode(row[s]), legacy[c][s]);
    }
  }
  std::vector<std::uint32_t> all(store.sources());
  std::iota(all.begin(), all.end(), 0u);
  std::vector<std::uint8_t> columns(store.sources() * store.configs());
  store.gather_columns(all, columns.data());
  for (std::size_t s = 0; s < store.sources(); ++s) {
    for (std::size_t c = 0; c < store.configs(); ++c) {
      EXPECT_EQ(measure::CatchmentStore::decode(
                    columns[s * store.configs() + c]),
                legacy[c][s]);
    }
  }
  EXPECT_EQ(test::rows_of(store), legacy);
}

TEST(CatchmentStore, AppendRowMatchesConversion) {
  // LinkId rows and their encoded cells append to the same store.
  const test::LinkRows legacy = test::random_matrix(6, 17, 21);
  measure::CatchmentStore incremental = test::store_of(legacy);
  measure::CatchmentStore encoded;
  for (const auto& row : legacy) {
    std::vector<std::uint8_t> cells;
    for (bgp::LinkId link : row) {
      cells.push_back(measure::CatchmentStore::encode(link));
    }
    encoded.append_row(std::span<const std::uint8_t>(cells));
  }
  EXPECT_EQ(incremental, encoded);

  // Later rows must match the column count fixed by the first.
  EXPECT_THROW(incremental.append_row(std::span<const bgp::LinkId>(
                   std::vector<bgp::LinkId>{0})),
               std::invalid_argument);
}

TEST(CatchmentStore, ArtifactRoundTripPreservesMatrix) {
  core::DeploymentArtifact artifact;
  artifact.seed = 11;
  artifact.as_count = 40;
  artifact.link_count = kLinkCount;
  artifact.configs.resize(2);  // one per matrix row
  artifact.configs[0].label = "first";
  artifact.configs[1].label = "second";
  artifact.sources = {3, 9, 12};
  artifact.matrix = test::store_of({{0, 1, bgp::kNoCatchment}, {2, 2, 0}});
  artifact.source_distance = {1, 2, 3};

  std::stringstream buffer;
  core::save_artifact(artifact, buffer);
  const core::DeploymentArtifact loaded = core::load_artifact(buffer);
  EXPECT_EQ(loaded.matrix, artifact.matrix);
  EXPECT_EQ(loaded, artifact);
}

// --- Out-of-range cells raise instead of aliasing -------------------------

TEST(ClusterSlots, TrackerThrowsOnOutOfRangeLink) {
  core::ClusterTracker tracker(3);
  const std::vector<std::uint8_t> bad_cells = {0, 62, 1};
  EXPECT_THROW(tracker.refine(std::span<const std::uint8_t>(bad_cells)),
               std::out_of_range);

  // The missing sentinel is in range.
  const std::vector<std::uint8_t> ok = {0, bgp::kNoCatchment8, 1};
  EXPECT_NO_THROW(tracker.refine(std::span<const std::uint8_t>(ok)));
}

TEST(ClusterSlots, SlotOfThrowsOnOutOfRange) {
  EXPECT_EQ(core::slot_of(std::uint8_t{bgp::kNoCatchment8}),
            core::kMissingSlot);
  EXPECT_EQ(core::slot_of(std::uint8_t{61}), 61u);
  EXPECT_THROW(core::slot_of(std::uint8_t{62}), std::out_of_range);
  EXPECT_THROW(core::slot_of(std::uint8_t{0xFE}), std::out_of_range);
}

// --- Randomized equivalence: store vs reference algorithms ----------------

TEST(StoreEquivalence, ClusteringMatchesLegacyReference) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto legacy_matrix = test::random_matrix(40, 200, seed);
    const measure::CatchmentStore store = test::store_of(legacy_matrix);

    test::LegacyTracker legacy(200);
    for (const auto& row : legacy_matrix) legacy.refine(row);
    const core::Clustering clustering = core::cluster_sources(store);

    EXPECT_EQ(clustering.cluster_of, legacy.cluster_of()) << "seed " << seed;
    EXPECT_EQ(clustering.cluster_count, legacy.cluster_count())
        << "seed " << seed;
  }
}

TEST(StoreEquivalence, GreedyOrderMatchesLegacyReference) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto legacy_matrix = test::random_matrix(60, 150, seed);
    const measure::CatchmentStore store = test::store_of(legacy_matrix);

    const auto legacy = test::legacy_greedy(legacy_matrix, /*steps=*/0);
    const auto trace = core::greedy_schedule(store, /*steps=*/0,
                                             /*workers=*/1);
    EXPECT_EQ(trace.order, legacy.order) << "seed " << seed;
    EXPECT_EQ(trace.mean_cluster_size, legacy.mean_cluster_size)
        << "seed " << seed;
  }
}

TEST(StoreEquivalence, ParallelGreedyMatchesSerial) {
  for (std::uint64_t seed : {1u, 2u}) {
    const measure::CatchmentStore store =
        test::store_of(test::random_matrix(50, 180, seed));

    const auto serial = core::greedy_schedule(store, 0, /*workers=*/1);
    for (std::size_t workers : {2u, 8u}) {
      const auto parallel = core::greedy_schedule(store, 0, workers);
      EXPECT_EQ(parallel.order, serial.order)
          << "seed " << seed << ", workers " << workers;
      EXPECT_EQ(parallel.mean_cluster_size, serial.mean_cluster_size)
          << "seed " << seed << ", workers " << workers;
    }
  }
}

TEST(StoreEquivalence, AttributionRankingMatchesLegacyReference) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto legacy_matrix = test::random_matrix(30, 120, seed);
    const measure::CatchmentStore store = test::store_of(legacy_matrix);
    const auto volumes = random_volumes(legacy_matrix, seed);

    const core::Clustering clustering = core::cluster_sources(store);
    const core::AttributionResult result =
        core::attribute_clusters(store, clustering, volumes);
    const auto legacy_ranking = legacy_attribution_ranking(
        legacy_matrix, clustering.cluster_of, clustering.cluster_count,
        volumes);
    EXPECT_EQ(result.ranking, legacy_ranking) << "seed " << seed;
  }
}

}  // namespace
}  // namespace spooftrack
