// Cluster computation (§III-B): a cluster is a set of sources that share a
// catchment in *every* deployed announcement configuration. Starting from
// one all-encompassing cluster, each configuration's catchments split any
// cluster they partially overlap.
//
// The implementation refines incrementally: after k configurations a
// source's cluster is identified by the tuple of its first k catchments,
// tracked as a dense cluster id that is re-bucketed per configuration in
// O(sources) — cheap enough for the thousands of random schedules of
// Figure 8. Refinement consumes encoded CatchmentStore rows directly, one
// stamp-table probe per source.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/catchment.hpp"
#include "measure/catchment_store.hpp"

namespace spooftrack::measure {
class BitplaneStore;
}  // namespace spooftrack::measure

namespace spooftrack::core {

/// A partition of sources into clusters.
struct Clustering {
  /// Dense cluster id per source index.
  std::vector<std::uint32_t> cluster_of;
  std::uint32_t cluster_count = 0;

  std::size_t source_count() const noexcept { return cluster_of.size(); }
  /// Size of each cluster, indexed by cluster id.
  std::vector<std::uint32_t> sizes() const;
  double mean_size() const noexcept;
  /// Members (source indices) of each cluster.
  std::vector<std::vector<std::uint32_t>> members() const;
};

/// Incremental cluster refinement.
class ClusterTracker {
 public:
  /// All sources start in a single cluster.
  explicit ClusterTracker(std::size_t source_count);

  /// Refines with one configuration's encoded catchment row (CatchmentStore
  /// cells; bgp::kNoCatchment8 is treated as a distinct catchment value — a
  /// conservative split). Throws std::out_of_range on cells the 6-bit
  /// cluster slots cannot represent. Returns the new cluster count.
  std::uint32_t refine(std::span<const std::uint8_t> catchment_row);

  const Clustering& current() const noexcept { return clustering_; }
  std::uint32_t cluster_count() const noexcept {
    return clustering_.cluster_count;
  }
  double mean_cluster_size() const noexcept {
    return clustering_.mean_size();
  }

 private:
  Clustering clustering_;
  // Epoch-stamped scratch table reused across refine() calls, one word
  // per (cluster, catchment) bucket: the epoch it was last touched in the
  // high 32 bits, the dense id assigned that epoch in the low 32 — one
  // random access per probe instead of separate key and id tables.
  std::vector<std::uint64_t> table_;
  std::uint64_t epoch_ = 0;
};

/// Convenience: refine with every row of a catchment matrix
/// (rows = configurations, columns = sources).
Clustering cluster_sources(const measure::CatchmentStore& matrix);

/// Same partition from the bit-sliced mirror: each row is decoded back to
/// its cell bytes word-parallel (BitplaneStore::decode_row, 8x8 bit
/// transposes) and folded through the byte refine, so ids are
/// bit-identical to clustering the source CatchmentStore. Callers that
/// already hold the mirror — the end-to-end benchmark builds it once per
/// analysis pass — cluster from it without the byte store.
Clustering cluster_sources(const measure::BitplaneStore& planes);

}  // namespace spooftrack::core
