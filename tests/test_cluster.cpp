#include "core/cluster.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "oracles.hpp"
#include "util/rng.hpp"

namespace spooftrack::core {
namespace {

constexpr std::uint8_t kMissing = bgp::kNoCatchment8;

/// One configuration's encoded catchment row (CatchmentStore cells).
using Row = std::vector<std::uint8_t>;

TEST(ClusterTracker, StartsWithSingleCluster) {
  ClusterTracker tracker(5);
  EXPECT_EQ(tracker.cluster_count(), 1u);
  EXPECT_DOUBLE_EQ(tracker.mean_cluster_size(), 5.0);
}

TEST(ClusterTracker, SplitsOnCatchmentBoundaries) {
  ClusterTracker tracker(6);
  const Row row = {0, 0, 1, 1, 2, 2};
  EXPECT_EQ(tracker.refine(row), 3u);
  const auto sizes = tracker.current().sizes();
  EXPECT_EQ(sizes, (std::vector<std::uint32_t>{2, 2, 2}));
}

TEST(ClusterTracker, NoSplitWhenCatchmentCoversCluster) {
  // "we do not split kappa if kappa intersect alpha = kappa"
  ClusterTracker tracker(4);
  tracker.refine(Row{0, 0, 1, 1});
  EXPECT_EQ(tracker.cluster_count(), 2u);
  // A row that does not separate anything further keeps the partition.
  tracker.refine(Row{3, 3, 5, 5});
  EXPECT_EQ(tracker.cluster_count(), 2u);
}

TEST(ClusterTracker, SuccessiveRefinementIntersects) {
  ClusterTracker tracker(4);
  tracker.refine(Row{0, 0, 1, 1});
  tracker.refine(Row{0, 1, 0, 1});
  EXPECT_EQ(tracker.cluster_count(), 4u);
  EXPECT_DOUBLE_EQ(tracker.mean_cluster_size(), 1.0);
}

TEST(ClusterTracker, MissingCatchmentIsItsOwnBucket) {
  ClusterTracker tracker(3);
  tracker.refine(Row{0, kMissing, 0});
  EXPECT_EQ(tracker.cluster_count(), 2u);
}

TEST(ClusterTracker, OrderInvariantFinalPartition) {
  // The final clustering is the intersection over all rows, so row order
  // must not matter.
  const std::vector<Row> rows = {
      {0, 0, 1, 1, 2, 2, 0, 1},
      {0, 1, 1, 0, 2, 0, 0, 1},
      {2, 2, 2, 2, 2, 2, 0, 0},
  };
  auto final_sizes = [&](std::vector<std::size_t> order) {
    ClusterTracker tracker(8);
    for (std::size_t i : order) tracker.refine(rows[i]);
    auto sizes = tracker.current().sizes();
    std::sort(sizes.begin(), sizes.end());
    return sizes;
  };
  const auto a = final_sizes({0, 1, 2});
  const auto b = final_sizes({2, 1, 0});
  const auto c = final_sizes({1, 2, 0});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(ClusterTracker, RowSizeMismatchThrows) {
  ClusterTracker tracker(3);
  EXPECT_THROW(tracker.refine(Row{0, 1}),
               std::invalid_argument);
}

TEST(ClusterTracker, EmptySourceSet) {
  ClusterTracker tracker(0);
  EXPECT_EQ(tracker.cluster_count(), 0u);
  EXPECT_EQ(tracker.refine(Row{}), 0u);
  EXPECT_DOUBLE_EQ(tracker.mean_cluster_size(), 0.0);
}

TEST(Clustering, MembersConsistentWithSizes) {
  ClusterTracker tracker(5);
  tracker.refine(Row{0, 1, 0, 1, 2});
  const auto& clustering = tracker.current();
  const auto members = clustering.members();
  const auto sizes = clustering.sizes();
  ASSERT_EQ(members.size(), sizes.size());
  for (std::size_t c = 0; c < members.size(); ++c) {
    EXPECT_EQ(members[c].size(), sizes[c]);
    for (std::uint32_t s : members[c]) {
      EXPECT_EQ(clustering.cluster_of[s], c);
    }
  }
}

TEST(ClusterSources, MatrixConvenienceMatchesTracker) {
  const auto matrix = test::store_of({
      {0, 0, 1, 1},
      {0, 1, 0, 1},
  });
  const auto clustering = cluster_sources(matrix);
  EXPECT_EQ(clustering.cluster_count, 4u);
}

TEST(ClusterTracker, ManyRandomRefinementsStayConsistent) {
  // Property: cluster ids remain dense, sizes sum to source count, and the
  // count never decreases.
  util::Rng rng{77};
  const std::size_t sources = 200;
  ClusterTracker tracker(sources);
  std::uint32_t last = 1;
  for (int round = 0; round < 50; ++round) {
    Row row(sources);
    for (auto& cell : row) {
      cell = static_cast<std::uint8_t>(rng.next_below(4));
    }
    const std::uint32_t count = tracker.refine(row);
    EXPECT_GE(count, last);
    last = count;
    const auto sizes = tracker.current().sizes();
    EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), 0u), sources);
    for (std::uint32_t c : tracker.current().cluster_of) {
      EXPECT_LT(c, count);
    }
  }
}

}  // namespace
}  // namespace spooftrack::core
