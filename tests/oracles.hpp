// Independent reference implementations for the analysis kernels.
//
// The production cluster refinement runs on encoded CatchmentStore bytes
// (or rows decoded from the bit-sliced planes) with singleton word-skips,
// and the production greedy scheduler keeps every candidate's cluster
// count, updating it across workers only where each winner splits. The
// oracles below are the plain algorithms the paper describes — §III-B
// refinement and the §V-C greedy schedule — over decoded LinkId rows: one
// epoch-stamped (cluster, catchment) bucket table, first-touch dense ids,
// a serial lowest-index-max rescan of every candidate at every step. The
// tests and the perf_analysis bench require the production code to match
// them bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "bgp/catchment.hpp"
#include "core/cluster_slots.hpp"
#include "core/scheduler.hpp"
#include "measure/catchment_store.hpp"
#include "util/rng.hpp"

namespace spooftrack::test {

/// A catchment matrix as decoded rows: one row per configuration, one
/// LinkId (or bgp::kNoCatchment) per source.
using LinkRows = std::vector<std::vector<bgp::LinkId>>;

/// The store holding `rows`, built through CatchmentStore::append_row (so
/// ragged rows and out-of-range links throw as they do there).
inline measure::CatchmentStore store_of(const LinkRows& rows) {
  measure::CatchmentStore store;
  for (const auto& row : rows) {
    store.append_row(std::span<const bgp::LinkId>(row));
  }
  return store;
}

/// The decoded rows of `store`.
inline LinkRows rows_of(const measure::CatchmentStore& store) {
  LinkRows rows(store.configs(), std::vector<bgp::LinkId>(store.sources()));
  for (std::size_t c = 0; c < store.configs(); ++c) {
    for (std::size_t s = 0; s < store.sources(); ++s) {
      rows[c][s] = store.link_at(c, s);
    }
  }
  return rows;
}

/// Incremental refinement over LinkId rows: epoch-stamped
/// (cluster, catchment) buckets, first-touch dense ids, no singleton fast
/// path.
class LegacyTracker {
 public:
  explicit LegacyTracker(std::size_t sources)
      : cluster_of_(sources, 0),
        cluster_count_(sources == 0 ? 0 : 1),
        keys_(std::max<std::size_t>(1, sources) * core::kSlots, 0),
        order_(keys_.size(), 0) {}

  std::uint32_t refine(const std::vector<bgp::LinkId>& row) {
    ++epoch_;
    std::uint32_t next_id = 0;
    for (std::size_t s = 0; s < cluster_of_.size(); ++s) {
      const std::size_t key = bucket(s, row[s]);
      if (keys_[key] != epoch_) {
        keys_[key] = epoch_;
        order_[key] = next_id++;
      }
      cluster_of_[s] = order_[key];
    }
    cluster_count_ = next_id;
    return next_id;
  }

  /// Clusters after hypothetically refining with `row`; no state change.
  std::uint32_t count_after(const std::vector<bgp::LinkId>& row) {
    ++epoch_;
    std::uint32_t count = 0;
    for (std::size_t s = 0; s < cluster_of_.size(); ++s) {
      const std::size_t key = bucket(s, row[s]);
      if (keys_[key] != epoch_) {
        keys_[key] = epoch_;
        ++count;
      }
    }
    return count;
  }

  const std::vector<std::uint32_t>& cluster_of() const { return cluster_of_; }
  std::uint32_t cluster_count() const { return cluster_count_; }
  double mean_cluster_size() const {
    return cluster_count_ == 0 ? 0.0
                               : static_cast<double>(cluster_of_.size()) /
                                     static_cast<double>(cluster_count_);
  }

 private:
  std::size_t bucket(std::size_t source, bgp::LinkId link) const {
    const std::size_t slot = link == bgp::kNoCatchment
                                 ? core::kMissingSlot
                                 : static_cast<std::size_t>(link);
    return static_cast<std::size_t>(cluster_of_[source]) * core::kSlots + slot;
  }

  std::vector<std::uint32_t> cluster_of_;
  std::uint32_t cluster_count_ = 0;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> order_;
  std::uint64_t epoch_ = 0;
};

/// Serial greedy schedule: scan every remaining configuration, deploy the
/// one maximising the refined cluster count (minimum mean cluster size),
/// lowest index on ties. Stops after `steps` configurations (0 = all).
inline core::ScheduleTrace legacy_greedy(const LinkRows& matrix,
                                         std::size_t steps) {
  const std::size_t sources = matrix.empty() ? 0 : matrix.front().size();
  LegacyTracker tracker(sources);
  std::vector<bool> used(matrix.size(), false);
  core::ScheduleTrace trace;
  const std::size_t horizon =
      steps == 0 ? matrix.size() : std::min(steps, matrix.size());
  for (std::size_t k = 0; k < horizon; ++k) {
    std::size_t best = matrix.size();
    std::uint32_t best_count = 0;
    for (std::size_t i = 0; i < matrix.size(); ++i) {
      if (used[i]) continue;
      const std::uint32_t count = tracker.count_after(matrix[i]);
      if (best == matrix.size() || count > best_count) {
        best = i;
        best_count = count;
      }
    }
    if (best == matrix.size()) break;
    used[best] = true;
    tracker.refine(matrix[best]);
    trace.order.push_back(best);
    trace.mean_cluster_size.push_back(tracker.mean_cluster_size());
  }
  return trace;
}

/// Deterministic randomized matrix: hidden source groups plus flip/missing
/// noise, so refinement splits clusters gradually (the regime greedy
/// scheduling actually runs in) instead of saturating on the first row.
/// Links are drawn from [0, 7).
inline LinkRows random_matrix(std::size_t configs, std::size_t sources,
                              std::uint64_t seed) {
  constexpr std::uint32_t kLinkCount = 7;
  util::Rng rng(seed ^ 0xCA7C);
  const std::size_t groups = std::max<std::size_t>(4, sources / 5);
  std::vector<std::size_t> group_of(sources);
  for (auto& g : group_of) g = rng.next_below(groups);

  LinkRows matrix(configs);
  std::vector<bgp::LinkId> prototype(groups);
  for (auto& row : matrix) {
    for (auto& p : prototype) {
      p = static_cast<bgp::LinkId>(rng.next_below(kLinkCount));
    }
    row.resize(sources);
    for (std::size_t s = 0; s < sources; ++s) {
      if (rng.chance(0.03)) {
        row[s] = bgp::kNoCatchment;
      } else if (rng.chance(0.03)) {
        row[s] = static_cast<bgp::LinkId>(rng.next_below(kLinkCount));
      } else {
        row[s] = prototype[group_of[s]];
      }
    }
  }
  return matrix;
}

}  // namespace spooftrack::test
