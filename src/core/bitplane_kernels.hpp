// Word-parallel cluster kernels over measure::BitplaneStore planes.
//
// The greedy scheduler's count_after reduces to: how many distinct 6-bit
// slots does a candidate row take within each cluster? Every slot fits
// one bit of a 64-bit presence bitmap, so counting is exact bit-setting —
// no sources x kSlots stamp table, no per-source scratch. Two kernels
// share that idea and ClusterMasks picks between them per step:
//
// * count_after_bitplane (cluster-major) walks each cluster's sparse
//   (word, lane mask) membership pairs and keeps its presence bitmap in a
//   register. Mask words with many member lanes are resolved by recursive
//   plane partition (OR the selected lanes per value plane; split on
//   mixed planes; each leaf is one distinct slot), touching 64 members in
//   a handful of word ops. It wins while clusters are few and their mask
//   words dense (early steps).
// * count_after_members (member-list) walks each cluster's contiguous
//   member indices, folding row cells into a register-resident presence
//   bitmap — two loads, a shift and an OR per member, no stamp table at
//   all. It wins once refinement scatters clusters so thin that
//   per-cluster mask words average a lane or two (every step after the
//   first few).
//
// Both abort once an upper bound on the remaining buckets (suffix sums
// in ClusterMasks) proves the candidate cannot beat the bound, and both
// count the same buckets in a different order, so winner selection stays
// bit-identical to a serial stamp-table scan (the legacy greedy oracle in
// tests/oracles.hpp, which tests/test_catchment_store.cpp and
// tests/test_bitplane_store.cpp run it against).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/cluster_slots.hpp"

namespace spooftrack::core {

/// Mask words with at least this many member lanes resolve through the
/// plane partition (cost ~ distinct slots, independent of lane count);
/// sparser words read cells per member. Also the per-step kernel pick:
/// cluster-major pays off only when mask words average this dense.
inline constexpr int kDensePartitionLanes = 16;

/// One 64-lane word of a cluster's membership: `mask` selects the member
/// sources within plane word `word`.
struct ClusterWord {
  std::uint32_t word = 0;
  std::uint64_t mask = 0;

  friend bool operator==(const ClusterWord&, const ClusterWord&) = default;
};

/// Per-step snapshot of cluster memberships as word masks, ordered by
/// descending size (ties: ascending cluster id), plus the suffix upper
/// bounds the greedy bound-abort uses. Built in O(sources + clusters);
/// scratch is reused across builds.
class ClusterMasks {
 public:
  /// Rebuilds from a partition. A non-empty `singleton_mask` (0xFF per
  /// saturated source, the ClusterTracker shape) drops singleton clusters
  /// — they contribute exactly one bucket each, accounted separately by
  /// the callers. Pass an empty mask to include every cluster.
  void build(std::span<const std::uint32_t> cluster_of,
             std::uint32_t cluster_count,
             std::span<const std::uint8_t> singleton_mask);

  /// Number of clusters retained by the last build().
  std::size_t cluster_count() const noexcept { return begin_.size() - 1; }
  /// Membership words of the i-th retained cluster in processing order
  /// (descending size), each cluster's words ascending.
  std::span<const ClusterWord> cluster(std::size_t i) const noexcept {
    return {entries_.data() + begin_[i], begin_[i + 1] - begin_[i]};
  }
  /// Member source indices of the i-th retained cluster, ascending.
  std::span<const std::uint32_t> members(std::size_t i) const noexcept {
    return {members_.data() + mbegin_[i], mbegin_[i + 1] - mbegin_[i]};
  }
  /// Total membership (word, mask) pairs across retained clusters.
  std::size_t entry_total() const noexcept { return entries_.size(); }
  /// Upper bound on buckets contributed by clusters i.. (sum of
  /// min(size, kSlots)): once count + remaining_ub(i) falls to the bound,
  /// a candidate scan can abort.
  std::uint32_t remaining_ub(std::size_t i) const noexcept {
    return remaining_ub_[i];
  }
  /// Total members across retained clusters.
  std::size_t active_sources() const noexcept { return active_sources_; }

  /// True when mask words are dense enough that the plane partition
  /// beats per-member cell reads.
  bool prefer_plane_partition() const noexcept {
    return active_sources_ >=
           static_cast<std::size_t>(kDensePartitionLanes) * entries_.size();
  }

 private:
  std::vector<ClusterWord> entries_;
  std::vector<std::uint32_t> begin_;         // per-cluster entry offsets, +1
  std::vector<std::uint32_t> members_;       // member indices, cluster-grouped
  std::vector<std::uint32_t> mbegin_;        // per-cluster member offsets, +1
  std::vector<std::uint32_t> remaining_ub_;  // suffix sums, trailing 0
  std::size_t active_sources_ = 0;
  // Per-cluster-id build scratch, reused across calls.
  std::vector<std::uint32_t> entry_count_;
  std::vector<std::uint32_t> size_;
  std::vector<std::uint32_t> last_word_;
  std::vector<std::uint32_t> cursor_;
  std::vector<std::uint32_t> mcursor_;
  std::vector<std::uint32_t> order_;       // processing order -> cluster id
  std::vector<std::uint32_t> size_start_;  // counting-sort offsets by size
};

/// Slot-presence bitmap of the `mask` lanes of plane word `word`: bit v is
/// set iff some selected lane holds 6-bit slot v. Recursive plane
/// partition with a fixed-depth stack (levels strictly increase, so depth
/// <= kSlotBits); `planes` is a BitplaneStore::row_planes block.
std::uint64_t plane_values(const std::uint64_t* planes, std::size_t words,
                           std::uint32_t word, std::uint64_t mask) noexcept;

/// Clusters a refinement with the candidate row would produce:
/// `singleton_count` plus the distinct slots of every retained cluster in
/// `masks`, each counted as the popcount of a presence bitmap. `row` and
/// `planes` must describe the same configuration (byte cells and
/// BitplaneStore::row_planes respectively): dense mask words partition
/// plane words, sparse ones read `row` per member. Aborts (returning a
/// partial count <= the true count <= bound) once the suffix upper bound
/// proves the candidate cannot strictly exceed `bound` — identical winner
/// selection to the byte-store count_after under strictly-greater
/// replacement.
std::uint32_t count_after_bitplane(const ClusterMasks& masks,
                                   std::uint32_t singleton_count,
                                   const std::uint8_t* row,
                                   const std::uint64_t* planes,
                                   std::size_t words, std::uint32_t bound);

/// Member-list count of the same buckets: per retained cluster, folds
/// slot_of(row[s]) bits of the contiguous member indices into a
/// register-resident presence bitmap (no stamp tables, no per-worker
/// scratch) and adds its popcount. Same processing order, bound-abort
/// semantics and result as count_after_bitplane.
std::uint32_t count_after_members(const ClusterMasks& masks,
                                  std::uint32_t singleton_count,
                                  const std::uint8_t* row,
                                  std::uint32_t bound);

}  // namespace spooftrack::core
