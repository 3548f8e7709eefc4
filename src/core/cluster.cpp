#include "core/cluster.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/cluster_slots.hpp"
#include "measure/bitplane_store.hpp"
#include "obs/obs.hpp"

namespace spooftrack::core {

std::vector<std::uint32_t> Clustering::sizes() const {
  std::vector<std::uint32_t> out(cluster_count, 0);
  for (std::uint32_t c : cluster_of) ++out[c];
  return out;
}

double Clustering::mean_size() const noexcept {
  if (cluster_count == 0) return 0.0;
  return static_cast<double>(cluster_of.size()) /
         static_cast<double>(cluster_count);
}

std::vector<std::vector<std::uint32_t>> Clustering::members() const {
  std::vector<std::vector<std::uint32_t>> out(cluster_count);
  for (std::uint32_t s = 0; s < cluster_of.size(); ++s) {
    out[cluster_of[s]].push_back(s);
  }
  return out;
}

ClusterTracker::ClusterTracker(std::size_t source_count) {
  clustering_.cluster_of.assign(source_count, 0);
  clustering_.cluster_count = source_count == 0 ? 0 : 1;
  // Epoch-stamped remap table: avoids clearing between refines.
  table_.assign(source_count * kSlots, 0);  // epoch<<32 | id per bucket
  epoch_ = 0;
}

std::uint32_t ClusterTracker::refine(
    std::span<const std::uint8_t> catchment_row) {
  OBS_TIMER("analysis.refine_ns");
  auto& cluster_of = clustering_.cluster_of;
  if (catchment_row.size() != cluster_of.size()) {
    throw std::invalid_argument(
        "catchment row size does not match source count");
  }
  if (cluster_of.empty()) return 0;

  ++epoch_;
  if ((epoch_ & 0xFFFFFFFFULL) == 0) [[unlikely]] {
    // The table keeps only the low 32 epoch bits; on wrap, clear it so
    // stale entries cannot alias the restarted epoch.
    std::fill(table_.begin(), table_.end(), 0);
    ++epoch_;
  }
  const std::uint64_t stamp = (epoch_ & 0xFFFFFFFFULL) << 32;
  std::uint32_t next_id = 0;
  const std::size_t n = cluster_of.size();
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint32_t slot = slot_of(catchment_row[s]);
    const std::size_t key = std::size_t{cluster_of[s]} * kSlots + slot;
    std::uint64_t entry = table_[key];
    if ((entry >> 32) != (stamp >> 32)) {
      entry = stamp | next_id++;
      table_[key] = entry;
    }
    cluster_of[s] = static_cast<std::uint32_t>(entry);
  }
  clustering_.cluster_count = next_id;
  return next_id;
}

Clustering cluster_sources(const measure::CatchmentStore& matrix) {
  if (matrix.empty()) return Clustering{};
  ClusterTracker tracker(matrix.sources());
  for (std::size_t c = 0; c < matrix.size(); ++c) {
    tracker.refine(matrix.row(c));
  }
  return tracker.current();
}

Clustering cluster_sources(const measure::BitplaneStore& planes) {
  if (planes.empty()) return Clustering{};
  ClusterTracker tracker(planes.sources());
  std::vector<std::uint8_t> row(planes.sources());
  for (std::size_t c = 0; c < planes.configs(); ++c) {
    planes.decode_row(c, row.data());
    tracker.refine(row);
  }
  return tracker.current();
}

}  // namespace spooftrack::core
