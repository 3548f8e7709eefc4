#include "core/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>

#include "core/bitplane_kernels.hpp"
#include "core/cluster.hpp"
#include "core/cluster_slots.hpp"
#include "measure/bitplane_store.hpp"
#include "obs/obs.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace spooftrack::core {

namespace {

constexpr auto kNoConfig = std::numeric_limits<std::size_t>::max();

struct Best {
  std::size_t config = kNoConfig;
  std::uint32_t count = 0;
};

/// Work-per-worker threshold: a step whose whole candidate scan is
/// cheaper than ~kMinWorkPerChunk cell-visits runs on fewer chunks (down
/// to inline on the caller — WorkerPool::run(1) wakes no thread), so tiny
/// matrices stop paying thread wake latency per step. Chunk geometry only
/// partitions the candidate range; the strictly-greater merge keeps the
/// schedule bit-identical for any chunk count.
constexpr std::size_t kMinWorkPerChunk = std::size_t{1} << 16;

std::size_t effective_chunks(std::size_t chunks, std::size_t remaining,
                             std::size_t active_sources) {
  const std::size_t work = remaining * (active_sources + 64);
  return std::clamp<std::size_t>(work / kMinWorkPerChunk, 1, chunks);
}

}  // namespace

ScheduleTrace random_schedule(const measure::CatchmentStore& matrix,
                              util::Rng& rng) {
  ScheduleTrace trace;
  if (matrix.empty()) return trace;
  trace.order.resize(matrix.size());
  std::iota(trace.order.begin(), trace.order.end(), std::size_t{0});
  rng.shuffle(trace.order);

  ClusterTracker tracker(matrix.sources());
  // Random schedules saturate the partition early; opt into singleton
  // tracking so refines keep the word-packed saturated fast path.
  tracker.singleton_mask();
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

  // Built once per schedule; candidate scans then count distinct slots
  // through per-cluster presence bitmaps — plane-word DFS for dense mask
  // words, direct byte reads for sparse ones — so no per-candidate
  // (cluster, slot) table is ever cleared or probed.
  const measure::BitplaneStore planes(matrix);
  const std::size_t words = planes.words();

  ClusterTracker tracker(matrix.sources());
  std::vector<bool> used(n, false);
  std::vector<Best> best(chunks);
  std::vector<std::vector<std::uint32_t>> order(chunks);
  ClusterMasks masks;
  util::WorkerPool pool(chunks - 1);

  // Best-first candidate ordering: refinement only ever splits clusters,
  // so a candidate's count from an earlier step is a lower bound on its
  // count now. Scanning each chunk in descending last-known count puts a
  // near-maximal bound in place after the first candidate, and losers
  // abort after a fraction of their sources. Aborted scans still return
  // valid lower bounds, so they update the ordering too.
  std::vector<std::uint32_t> last_count(n, 0);

  for (std::size_t step = 0; step < steps; ++step) {
    const auto& cluster_of = tracker.current().cluster_of;
    const auto mask = tracker.singleton_mask();
    const std::uint32_t singles = tracker.singleton_count();
    masks.build(cluster_of, tracker.cluster_count(), mask);

    Best winner;
    if (masks.cluster_count() == 0) {
      // Fully saturated partition: every candidate refines to exactly
      // `singles` clusters; take the lowest-index unused config directly.
      for (std::size_t c = 0; c < n; ++c) {
        if (!used[c]) {
          winner = {c, singles};
          break;
        }
      }
    } else {
      const std::size_t eff =
          effective_chunks(chunks, n - step, masks.active_sources());
      OBS_HIST("analysis.kernel.fanout", "chunks", eff);
      const bool plane_partition = masks.prefer_plane_partition();
      pool.run(eff, [&](std::size_t w) {
        Best b;
        auto& ord = order[w];
        ord.clear();
        const std::size_t begin = w * n / eff;
        const std::size_t end = (w + 1) * n / eff;
        for (std::size_t c = begin; c < end; ++c) {
          if (!used[c]) ord.push_back(static_cast<std::uint32_t>(c));
        }
        std::stable_sort(ord.begin(), ord.end(),
                         [&](std::uint32_t a, std::uint32_t c) {
                           return last_count[a] > last_count[c];
                         });
        for (const std::uint32_t c : ord) {
          // Out-of-index-order scanning: a lower-index candidate beats the
          // incumbent already on a tie, so it may only abort against
          // bound - 1 (b.count >= 1 whenever b is set: every retained
          // cluster contributes at least one bucket).
          const std::uint32_t bound =
              b.config == kNoConfig ? 0 : b.count - (c < b.config ? 1 : 0);
          const std::uint32_t count =
              plane_partition
                  ? count_after_bitplane(masks, singles, matrix.row(c).data(),
                                         planes.row_planes(c), words, bound)
                  : count_after_members(masks, singles, matrix.row(c).data(),
                                        bound);
          if (b.config == kNoConfig || count > b.count ||
              (count == b.count && c < b.config)) {
            b = {c, count};
          }
          if (count > last_count[c]) last_count[c] = count;
        }
        best[w] = b;
      });

      // Deterministic reduction: chunks cover ascending contiguous config
      // ranges and each worker's best is its chunk's lowest-index max, so
      // the strictly-greater merge yields the lowest-index config with
      // the maximum count — exactly what one serial scan would pick.
      for (std::size_t w = 0; w < eff; ++w) {
        const Best& b = best[w];
        if (b.config == kNoConfig) continue;
        if (winner.config == kNoConfig || b.count > winner.count) winner = b;
      }
    }
    if (winner.config == kNoConfig) break;
    used[winner.config] = true;
    tracker.refine(planes, winner.config);
    trace.order.push_back(winner.config);
    trace.mean_cluster_size.push_back(tracker.mean_cluster_size());
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
