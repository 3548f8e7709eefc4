// Equivalence suite for the bit-sliced catchment mirror: the BitplaneStore
// build, the clustering decoded from its planes, the greedy scheduler and
// the tiled column gather must be bit-identical to the byte store, the
// byte-store refine, the reference greedy in oracles.hpp and plain cell
// reads, for every worker count and with the planes read back both one
// cell at a time and word-parallel.
#include "measure/bitplane_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/catchment.hpp"
#include "core/cluster.hpp"
#include "core/cluster_slots.hpp"
#include "core/scheduler.hpp"
#include "measure/catchment_store.hpp"
#include "oracles.hpp"
#include "util/rng.hpp"

namespace spooftrack {
namespace {

constexpr std::uint32_t kLinkCount = 9;

/// Hidden-group matrix with missing cells and noise, mirroring the PR4
/// generator; `sources` is deliberately varied across word-boundary
/// widths (13, 64, 65, 100, ...) by the tests.
measure::CatchmentStore random_store(std::size_t configs, std::size_t sources,
                                     std::uint64_t seed) {
  util::Rng rng(seed ^ 0xB17);
  const std::size_t groups = std::max<std::size_t>(3, sources / 6);
  std::vector<std::size_t> group_of(sources);
  for (auto& g : group_of) g = rng.next_below(groups);

  measure::CatchmentStore store(0, sources);
  std::vector<std::uint8_t> row(sources);
  std::vector<std::uint8_t> prototype(groups);
  for (std::size_t c = 0; c < configs; ++c) {
    for (auto& p : prototype) {
      p = static_cast<std::uint8_t>(rng.next_below(kLinkCount));
    }
    for (std::size_t s = 0; s < sources; ++s) {
      if (rng.chance(0.05)) {
        row[s] = measure::kNoCatchment8;
      } else if (rng.chance(0.05)) {
        row[s] = static_cast<std::uint8_t>(rng.next_below(kLinkCount));
      } else {
        row[s] = prototype[group_of[s]];
      }
    }
    store.append_row(row);
  }
  return store;
}

/// Exercises the full valid cell range, not just small link ids.
measure::CatchmentStore full_range_store(std::size_t configs,
                                         std::size_t sources,
                                         std::uint64_t seed) {
  util::Rng rng(seed ^ 0xF0LL);
  measure::CatchmentStore store(0, sources);
  std::vector<std::uint8_t> row(sources);
  for (std::size_t c = 0; c < configs; ++c) {
    for (auto& cell : row) {
      cell = rng.chance(0.2) ? measure::kNoCatchment8
                             : static_cast<std::uint8_t>(
                                   rng.next_below(bgp::kMaxCatchmentLinks));
    }
    store.append_row(row);
  }
  return store;
}

/// The two levels at which planes are read back into cell bytes: one
/// lane at a time through cell() (scalar), or 64 lanes per word through
/// the 8x8 bit transposes of decode_row (wide), the path to_store() and
/// core::cluster_sources take. Each SimdLevels test runs at both.
enum class ReadLevel : std::uint8_t { kScalar, kWide };

class SimdLevels : public ::testing::TestWithParam<ReadLevel> {
 protected:
  /// Row `config` of `planes` as cell bytes, read at this test's level.
  std::vector<std::uint8_t> read_row(const measure::BitplaneStore& planes,
                                     std::size_t config) const {
    std::vector<std::uint8_t> row(planes.sources());
    if (GetParam() == ReadLevel::kWide) {
      planes.decode_row(config, row.data());
    } else {
      for (std::size_t s = 0; s < row.size(); ++s) {
        row[s] = planes.cell(config, s);
      }
    }
    return row;
  }

  /// The whole matrix read back at this test's level.
  measure::CatchmentStore read_back(
      const measure::BitplaneStore& planes) const {
    if (GetParam() == ReadLevel::kWide) return planes.to_store();
    measure::CatchmentStore store(0, planes.sources());
    for (std::size_t c = 0; c < planes.configs(); ++c) {
      store.append_row(read_row(planes, c));
    }
    return store;
  }
};

INSTANTIATE_TEST_SUITE_P(BitplaneStore, SimdLevels,
                         ::testing::Values(ReadLevel::kScalar,
                                           ReadLevel::kWide),
                         [](const auto& info) {
                           return std::string(info.param == ReadLevel::kWide
                                                  ? "wide"
                                                  : "scalar");
                         });

// --- Construction, round trip, plane layout -------------------------------

TEST_P(SimdLevels, CellsMatchStoreAcrossWidths) {
  for (const std::size_t sources : {1u, 7u, 13u, 63u, 64u, 65u, 100u, 190u}) {
    const auto store = full_range_store(11, sources, sources);
    const measure::BitplaneStore planes(store);
    ASSERT_EQ(planes.configs(), store.configs());
    ASSERT_EQ(planes.sources(), store.sources());
    ASSERT_EQ(planes.words(), (sources + 63) / 64);
    for (std::size_t c = 0; c < store.configs(); ++c) {
      const auto row = read_row(planes, c);
      for (std::size_t s = 0; s < sources; ++s) {
        ASSERT_EQ(row[s], store.cell(c, s))
            << "sources=" << sources << " cell (" << c << ", " << s << ")";
      }
    }
  }
}

TEST_P(SimdLevels, RoundTripIsExact) {
  for (const std::size_t sources : {13u, 64u, 65u, 100u}) {
    const auto store = random_store(17, sources, 3 * sources);
    const measure::BitplaneStore planes(store);
    EXPECT_EQ(read_back(planes), store) << "sources=" << sources;
  }
}

TEST_P(SimdLevels, MissingCellsReadAsMissingSlotInValuePlanes) {
  // A missing cell must carry all six value bits (slot 63 == kMissingSlot,
  // exactly what core::slot_of folds 0xFF into) plus the missing-plane bit.
  measure::CatchmentStore store(0, 70);
  std::vector<std::uint8_t> row(70, 5);
  row[0] = measure::kNoCatchment8;
  row[69] = measure::kNoCatchment8;
  store.append_row(row);
  const measure::BitplaneStore planes(store);
  EXPECT_EQ(planes.slot_at(0, 0), core::kMissingSlot);
  EXPECT_EQ(planes.slot_at(0, 69), core::kMissingSlot);
  EXPECT_TRUE(planes.missing_at(0, 0));
  EXPECT_TRUE(planes.missing_at(0, 69));
  EXPECT_FALSE(planes.missing_at(0, 1));
  EXPECT_EQ(planes.slot_at(0, 1), 5u);
  // Read back, a missing cell is the sentinel again. decode_row takes only
  // bits 6 and 7 from the missing plane, so the wide read also needs all
  // six value bits set.
  const auto read = read_row(planes, 0);
  EXPECT_EQ(read[0], measure::kNoCatchment8);
  EXPECT_EQ(read[69], measure::kNoCatchment8);
  EXPECT_EQ(read[1], 5u);
}

TEST_P(SimdLevels, PaddingLanesAreZeroInEveryPlane) {
  const auto store = random_store(5, 70, 99);
  const measure::BitplaneStore planes(store);
  const std::uint64_t tail_mask = ~std::uint64_t{0} << (70 - 64);
  for (std::size_t c = 0; c < planes.configs(); ++c) {
    for (std::size_t p = 0; p < measure::BitplaneStore::kPlanes; ++p) {
      EXPECT_EQ(planes.plane(c, p)[1] & tail_mask, 0u)
          << "config " << c << " plane " << p;
    }
    if (GetParam() == ReadLevel::kScalar) {
      // Lane by lane: every padding lane reads as slot 0, not missing.
      for (std::size_t s = planes.sources(); s < planes.words() * 64; ++s) {
        EXPECT_EQ(planes.slot_at(c, s), 0u) << "config " << c << " lane " << s;
        EXPECT_FALSE(planes.missing_at(c, s))
            << "config " << c << " lane " << s;
      }
    }
  }
}

TEST_P(SimdLevels, InvalidCellsThrow) {
  // CatchmentStore validates on ingest, so smuggle invalid bytes in
  // through the mutable buffer — BitplaneStore must still catch them.
  for (const std::uint8_t bad : {std::uint8_t{62}, std::uint8_t{0x80},
                                 std::uint8_t{0xFE}}) {
    for (const std::size_t victim : {0u, 31u, 64u, 76u}) {
      measure::CatchmentStore store(2, 77);
      store.data()[77 + victim] = bad;
      EXPECT_THROW(measure::BitplaneStore{store}, std::out_of_range)
          << "bad=" << int{bad} << " victim=" << victim;
      // With the sentinel in place of the bad byte the same matrix builds
      // and reads the victim back as missing.
      store.data()[77 + victim] = measure::kNoCatchment8;
      const measure::BitplaneStore planes(store);
      EXPECT_EQ(read_row(planes, 1)[victim], measure::kNoCatchment8)
          << "bad=" << int{bad} << " victim=" << victim;
    }
  }
}

TEST(BitplaneStoreTest, EmptyAndZeroSourceMatrices) {
  const measure::CatchmentStore empty;
  const measure::BitplaneStore planes(empty);
  EXPECT_TRUE(planes.empty());
  EXPECT_EQ(planes.to_store(), empty);

  // Rows with zero columns: words() is 0 and every kernel is a no-op.
  measure::CatchmentStore rows_only(3, 0);
  const measure::BitplaneStore no_cols(rows_only);
  EXPECT_EQ(no_cols.configs(), 3u);
  EXPECT_EQ(no_cols.words(), 0u);
}

// --- Cluster refinement equivalence ---------------------------------------

TEST_P(SimdLevels, BitplaneRefineMatchesByteRefine) {
  // Clustering from the planes decodes every row and folds it through the
  // byte refine: after each prefix of configurations its ids must be the
  // byte tracker's, and so must the ids of the rows read back at this
  // test's level.
  for (const std::size_t sources : {13u, 65u, 190u}) {
    const auto store = random_store(31, sources, 11 * sources);
    const measure::BitplaneStore planes(store);
    measure::CatchmentStore prefix(0, sources);
    core::ClusterTracker byte_tracker(sources);
    core::ClusterTracker read_tracker(sources);
    for (std::size_t c = 0; c < store.configs(); ++c) {
      prefix.append_row(store.row(c));
      const auto byte_count = byte_tracker.refine(store.row(c));
      const auto from_planes =
          core::cluster_sources(measure::BitplaneStore(prefix));
      ASSERT_EQ(from_planes.cluster_count, byte_count) << "config " << c;
      ASSERT_EQ(from_planes.cluster_of, byte_tracker.current().cluster_of)
          << "config " << c;
      ASSERT_EQ(read_tracker.refine(read_row(planes, c)), byte_count)
          << "config " << c;
      ASSERT_EQ(read_tracker.current().cluster_of,
                byte_tracker.current().cluster_of)
          << "config " << c;
    }
  }
}

TEST_P(SimdLevels, ClusterSourcesOverloadsAgree) {
  const auto store = random_store(21, 77, 5);
  const measure::BitplaneStore planes(store);
  const auto from_bytes = core::cluster_sources(store);
  const auto from_planes = core::cluster_sources(planes);
  EXPECT_EQ(from_planes.cluster_of, from_bytes.cluster_of);
  EXPECT_EQ(from_planes.cluster_count, from_bytes.cluster_count);
  const auto from_read = core::cluster_sources(read_back(planes));
  EXPECT_EQ(from_read.cluster_of, from_bytes.cluster_of);
  EXPECT_EQ(from_read.cluster_count, from_bytes.cluster_count);
}

// --- Scheduler equivalence ------------------------------------------------

TEST_P(SimdLevels, GreedyKernelsAgreeForAllWorkerCounts) {
  for (const std::size_t sources : {29u, 100u}) {
    const auto store = random_store(24, sources, 1000 + sources);
    const auto reference = test::legacy_greedy(test::rows_of(store), 0);
    const auto read = read_back(measure::BitplaneStore(store));
    for (const std::size_t workers : {1u, 2u, 8u}) {
      const auto trace = core::greedy_schedule(store, 0, workers);
      ASSERT_EQ(trace.order, reference.order)
          << "sources=" << sources << " workers=" << workers;
      ASSERT_EQ(trace.mean_cluster_size, reference.mean_cluster_size)
          << "sources=" << sources << " workers=" << workers;
      const auto from_read = core::greedy_schedule(read, 0, workers);
      ASSERT_EQ(from_read.order, reference.order)
          << "sources=" << sources << " workers=" << workers;
      ASSERT_EQ(from_read.mean_cluster_size, reference.mean_cluster_size)
          << "sources=" << sources << " workers=" << workers;
    }
  }
}

// --- Column gather --------------------------------------------------------

TEST(ColumnGather, MatchesStridedCells) {
  const auto store = full_range_store(37, 90, 9);
  std::vector<std::uint32_t> columns = {0, 1, 17, 63, 64, 89, 42};
  std::vector<std::uint8_t> gathered(columns.size() * store.configs());
  store.gather_columns(columns, gathered.data());
  for (std::size_t j = 0; j < columns.size(); ++j) {
    for (std::size_t c = 0; c < store.configs(); ++c) {
      ASSERT_EQ(gathered[j * store.configs() + c], store.cell(c, columns[j]))
          << "column " << columns[j] << " config " << c;
    }
  }
}

}  // namespace
}  // namespace spooftrack
