#include "core/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>

#include "core/cluster.hpp"
#include "core/cluster_slots.hpp"
#include "obs/obs.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace spooftrack::core {

namespace {

constexpr auto kNoConfig = std::numeric_limits<std::size_t>::max();
constexpr auto kNone = std::numeric_limits<std::uint32_t>::max();

/// Work-per-worker threshold: a count update cheaper than ~kMinWorkPerChunk
/// cell visits per chunk runs on fewer chunks (down to inline on the
/// caller — WorkerPool::run(1) wakes no thread), so tiny matrices stop
/// paying thread wake latency per step. Every candidate writes only its
/// own count, so the chunk geometry cannot change the schedule.
constexpr std::size_t kMinWorkPerChunk = std::size_t{1} << 16;

/// The clusters one refine split, laid out for the count update: split
/// clusters in ascending old id, each one's parts (the new clusters it
/// split into) in ascending new id, each part's members in ascending
/// source index. Clusters the refine left whole are omitted: no
/// candidate's count changes there.
class SplitParts {
 public:
  /// Rebuilds from the partition before one refine (`before`, holding
  /// `before_count` clusters) and the partition after it, in
  /// O(sources + clusters).
  void build(std::span<const std::uint32_t> before,
             std::uint32_t before_count, const Clustering& after) {
    const auto& now = after.cluster_of;
    // Every new cluster lies inside one old cluster, its parent.
    parent_.assign(after.cluster_count, 0);
    size_.assign(after.cluster_count, 0);
    for (std::size_t s = 0; s < now.size(); ++s) {
      parent_[now[s]] = before[s];
      ++size_[now[s]];
    }
    // next_[k]: the layout slot of old cluster k's next part, or kNone
    // when k kept all its members in one part.
    next_.assign(before_count, 0);
    for (const std::uint32_t k : parent_) ++next_[k];
    cluster_end_.clear();
    std::uint32_t slots = 0;
    for (auto& next : next_) {
      if (next < 2) {
        next = kNone;
        continue;
      }
      const std::uint32_t first = slots;
      slots += next;
      next = first;
      cluster_end_.push_back(slots);
    }
    // part_end_ holds each slot's begin offset while the members are
    // placed, and its end offset afterwards.
    slot_.assign(after.cluster_count, kNone);
    part_end_.assign(slots, 0);
    for (std::uint32_t p = 0; p < after.cluster_count; ++p) {
      const std::uint32_t k = parent_[p];
      if (next_[k] == kNone) continue;
      slot_[p] = next_[k]++;
      part_end_[slot_[p]] = size_[p];
    }
    std::uint32_t offset = 0;
    for (auto& begin : part_end_) {
      const std::uint32_t size = begin;
      begin = offset;
      offset += size;
    }
    members_.resize(offset);
    for (std::uint32_t s = 0; s < now.size(); ++s) {
      const std::uint32_t slot = slot_[now[s]];
      if (slot != kNone) members_[part_end_[slot]++] = s;
    }
  }

  /// Members of the split clusters.
  std::size_t member_count() const noexcept { return members_.size(); }

  /// Clusters the split adds to a refinement by `row`: per split cluster
  /// K with parts K1..Km, the sum of distinct(row, Kj) less
  /// distinct(row, K). Each distinct is the popcount of a slot-presence
  /// bitmap, and K's bitmap is the OR of its parts'. `row` must hold
  /// validated cells: missing cells (0xFF) fold to slot 63 via `& 63`,
  /// exactly core::slot_of, and link ids (< 62) pass through unchanged.
  std::uint32_t gain(const std::uint8_t* row) const noexcept {
    std::uint32_t gain = 0;
    std::size_t part = 0;
    std::size_t m = 0;
    for (const std::uint32_t parts_end : cluster_end_) {
      std::uint64_t whole = 0;
      for (; part < parts_end; ++part) {
        std::uint64_t bits = 0;
        for (; m < part_end_[part]; ++m) {
          bits |= std::uint64_t{1} << (row[members_[m]] & 63);
        }
        gain += static_cast<std::uint32_t>(std::popcount(bits));
        whole |= bits;
      }
      gain -= static_cast<std::uint32_t>(std::popcount(whole));
    }
    return gain;
  }

 private:
  std::vector<std::uint32_t> members_;      // source indices, part by part
  std::vector<std::uint32_t> part_end_;     // per part: end in members_
  std::vector<std::uint32_t> cluster_end_;  // per split cluster: end part
  // Build scratch, reused across steps.
  std::vector<std::uint32_t> parent_;  // per new cluster: its old cluster
  std::vector<std::uint32_t> size_;    // per new cluster: its members
  std::vector<std::uint32_t> next_;    // per old cluster: next part slot
  std::vector<std::uint32_t> slot_;    // per new cluster: its part slot
};

}  // namespace

ScheduleTrace random_schedule(const measure::CatchmentStore& matrix,
                              util::Rng& rng) {
  ScheduleTrace trace;
  if (matrix.empty()) return trace;
  trace.order.resize(matrix.size());
  std::iota(trace.order.begin(), trace.order.end(), std::size_t{0});
  rng.shuffle(trace.order);

  ClusterTracker tracker(matrix.sources());
  trace.mean_cluster_size.reserve(matrix.size());
  for (std::size_t config : trace.order) {
    tracker.refine(matrix.row(config));
    trace.mean_cluster_size.push_back(tracker.mean_cluster_size());
  }
  return trace;
}

ScheduleTrace greedy_schedule(const measure::CatchmentStore& matrix,
                              std::size_t steps, std::size_t workers) {
  OBS_TIMER("analysis.schedule_ns");
  ScheduleTrace trace;
  if (matrix.empty()) return trace;
  const std::size_t n = matrix.size();
  if (steps == 0 || steps > n) steps = n;
  if (workers == 0) workers = util::default_worker_count();
  const std::size_t chunks = std::max<std::size_t>(1, std::min(workers, n));
  OBS_GAUGE("analysis.schedule_workers", chunks);
  util::WorkerPool pool(chunks - 1);
  std::vector<bool> used(n, false);

  // Runs fn(c) once for every unused candidate, chunk w owning the
  // ascending config range [w·n/eff, (w+1)·n/eff). `visits` is the cells
  // one candidate reads; it sizes the fan-out.
  auto for_each_unused = [&](std::size_t visits, const auto& fn) {
    const std::size_t work = (n - trace.order.size()) * visits;
    const std::size_t eff =
        std::clamp<std::size_t>(work / kMinWorkPerChunk, 1, chunks);
    OBS_HIST("analysis.kernel.fanout", "chunks", eff);
    pool.run(eff, [&](std::size_t w) {
      for (std::size_t c = w * n / eff; c < (w + 1) * n / eff; ++c) {
        if (!used[c]) fn(c);
      }
    });
  };

  // count[c]: clusters after refining the current partition by c. One
  // full scan sets it; folding every cell through slot_of, it also
  // rejects cells the 6-bit slots cannot represent.
  std::vector<std::uint32_t> count(n, 0);
  for_each_unused(matrix.sources(), [&](std::size_t c) {
    std::uint64_t bits = 0;
    for (const std::uint8_t cell : matrix.row(c)) {
      bits |= std::uint64_t{1} << slot_of(cell);
    }
    count[c] = static_cast<std::uint32_t>(std::popcount(bits));
  });

  ClusterTracker tracker(matrix.sources());
  std::vector<std::uint32_t> before;
  SplitParts split;
  while (trace.order.size() < steps) {
    // Lowest-index argmax: the serial rescan's tie-break.
    std::size_t best = kNoConfig;
    for (std::size_t c = 0; c < n; ++c) {
      if (!used[c] && (best == kNoConfig || count[c] > count[best])) {
        best = c;
      }
    }
    // A refine never merges clusters, so no count is below the current
    // cluster count; a best count equal to it means nothing can split.
    if (count[best] == tracker.cluster_count()) break;
    used[best] = true;
    before = tracker.current().cluster_of;
    const std::uint32_t before_count = tracker.cluster_count();
    tracker.refine(matrix.row(best));
    trace.order.push_back(best);
    trace.mean_cluster_size.push_back(tracker.mean_cluster_size());
    if (trace.order.size() == steps) break;
    // Only the clusters the winner split can change a candidate's count.
    split.build(before, before_count, tracker.current());
    for_each_unused(split.member_count(), [&](std::size_t c) {
      count[c] += split.gain(matrix.row(c).data());
    });
  }
  // Saturated: every remaining count ties at the current cluster count,
  // so the tie-break deploys the rest in ascending order at this mean.
  const double mean = tracker.mean_cluster_size();
  for (std::size_t c = 0; c < n && trace.order.size() < steps; ++c) {
    if (used[c]) continue;
    trace.order.push_back(c);
    trace.mean_cluster_size.push_back(mean);
  }
  return trace;
}

ScheduleTrace weighted_greedy_schedule(
    const measure::CatchmentStore& matrix,
    const std::vector<double>& source_volume, std::size_t steps) {
  OBS_TIMER("analysis.schedule_ns");
  ScheduleTrace trace;
  if (matrix.empty()) return trace;
  const std::size_t source_count = matrix.sources();
  if (source_volume.size() != source_count) {
    throw std::invalid_argument("one volume per source is required");
  }
  if (steps == 0 || steps > matrix.size()) steps = matrix.size();

  double total_volume = 0.0;
  for (double v : source_volume) total_volume += v;
  if (total_volume <= 0.0) total_volume = 1.0;

  ClusterTracker tracker(source_count);
  std::vector<bool> used(matrix.size(), false);
  // Epoch-stamped scratch: bucket id, member count and volume per
  // (cluster, catchment) pair.
  std::vector<std::uint64_t> stamp(source_count * kSlots, 0);
  std::vector<std::uint32_t> bucket_of(source_count * kSlots, 0);
  std::vector<std::uint32_t> bucket_size;
  std::vector<double> bucket_volume;
  std::uint64_t epoch = 0;

  // Volume-weighted expected cluster size of the refinement by `row`.
  auto weighted_after = [&](std::span<const std::uint8_t> row) {
    ++epoch;
    const auto& cluster_of = tracker.current().cluster_of;
    std::uint32_t next_bucket = 0;
    bucket_size.clear();
    bucket_volume.clear();
    for (std::uint32_t s = 0; s < source_count; ++s) {
      const std::size_t key =
          std::size_t{cluster_of[s]} * kSlots + slot_of(row[s]);
      if (stamp[key] != epoch) {
        stamp[key] = epoch;
        bucket_of[key] = next_bucket++;
        bucket_size.push_back(0);
        bucket_volume.push_back(0.0);
      }
      const std::uint32_t bucket = bucket_of[key];
      ++bucket_size[bucket];
      bucket_volume[bucket] += source_volume[s];
    }
    double objective = 0.0;
    for (std::uint32_t b = 0; b < next_bucket; ++b) {
      objective += bucket_volume[b] * static_cast<double>(bucket_size[b]);
    }
    return objective / total_volume;
  };

  for (std::size_t step = 0; step < steps; ++step) {
    std::size_t best_config = kNoConfig;
    double best_objective = 0.0;
    for (std::size_t c = 0; c < matrix.size(); ++c) {
      if (used[c]) continue;
      const double objective = weighted_after(matrix.row(c));
      if (best_config == kNoConfig || objective < best_objective) {
        best_config = c;
        best_objective = objective;
      }
    }
    if (best_config == kNoConfig) break;
    used[best_config] = true;
    tracker.refine(matrix.row(best_config));
    trace.order.push_back(best_config);
    trace.mean_cluster_size.push_back(best_objective);
  }
  return trace;
}

RandomEnsemble random_ensemble(const measure::CatchmentStore& matrix,
                               std::size_t sequences, std::uint64_t seed,
                               std::size_t max_steps) {
  RandomEnsemble ensemble;
  ensemble.sequences = sequences;
  if (matrix.empty() || sequences == 0) return ensemble;
  const std::size_t steps =
      (max_steps == 0 || max_steps > matrix.size()) ? matrix.size()
                                                    : max_steps;

  // One row of step-wise means per sequence; sequences run in parallel
  // with independent deterministic RNG streams.
  std::vector<std::vector<double>> means(sequences);
  util::parallel_for(sequences, [&](std::size_t i) {
    util::Rng rng{util::hash_combine(seed, i)};
    const ScheduleTrace trace = random_schedule(matrix, rng);
    means[i].assign(trace.mean_cluster_size.begin(),
                    trace.mean_cluster_size.begin() +
                        static_cast<std::ptrdiff_t>(steps));
  });

  ensemble.p25.resize(steps);
  ensemble.p50.resize(steps);
  ensemble.p75.resize(steps);
  std::vector<double> column(sequences);
  for (std::size_t k = 0; k < steps; ++k) {
    for (std::size_t i = 0; i < sequences; ++i) column[i] = means[i][k];
    ensemble.p25[k] = util::percentile(column, 25.0);
    ensemble.p50[k] = util::percentile(column, 50.0);
    ensemble.p75[k] = util::percentile(column, 75.0);
  }
  return ensemble;
}

}  // namespace spooftrack::core
