// Localization scheduling (§V-C): in how few configurations can clusters be
// shrunk? The paper compares random deployment orders against a greedy
// schedule that — assuming catchments were measured beforehand — always
// deploys the configuration minimising the resulting mean cluster size.
//
// All schedulers consume the columnar measure::CatchmentStore.
// greedy_schedule keeps every candidate's refined cluster count: one full
// scan sets the counts, and each step updates them only over the clusters
// its winner split. The updates fan out across workers, each candidate
// writing only its own count, and the winner is a serial lowest-index
// argmax, so the output is bit-identical for any worker count.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/catchment.hpp"
#include "measure/catchment_store.hpp"
#include "util/rng.hpp"

namespace spooftrack::core {

/// One deployment order plus the mean cluster size after each step.
struct ScheduleTrace {
  std::vector<std::size_t> order;          // configuration indices
  std::vector<double> mean_cluster_size;   // after deploying order[0..k]
};

/// Deploys all configurations in a uniformly random order (no repetition).
ScheduleTrace random_schedule(const measure::CatchmentStore& matrix,
                              util::Rng& rng);

/// Greedy schedule: at each step deploy the configuration that minimises
/// the mean cluster size of the refined partition (ties: lowest index).
/// Stops after `steps` configurations (0 = all). Once no configuration can
/// split a cluster, the rest follow in ascending index at a constant mean.
/// The count updates run on `workers` threads (0 =
/// util::default_worker_count()), scaled down per step by a
/// work-per-worker threshold so tiny matrices skip thread wake overhead;
/// the schedule is bit-identical for every worker count. Throws
/// std::out_of_range on cells the 6-bit cluster slots cannot represent.
ScheduleTrace greedy_schedule(const measure::CatchmentStore& matrix,
                              std::size_t steps = 0,
                              std::size_t workers = 0);

/// §VIII future work (i): greedy schedule that jointly optimises cluster
/// size and spoofed volume. Each source carries a volume weight (e.g. the
/// per-link honeypot share attributed to it); the objective minimised at
/// every step is the volume-weighted expected cluster size
///
///     sum_s volume[s] * |cluster(s)|  /  sum_s volume[s]
///
/// so the scheduler spends announcements splitting the clusters that send
/// the most spoofed traffic first. `mean_cluster_size` in the returned
/// trace holds this weighted objective.
ScheduleTrace weighted_greedy_schedule(
    const measure::CatchmentStore& matrix,
    const std::vector<double>& source_volume, std::size_t steps = 0);

/// Percentile band over many random schedules: entry k of each vector is
/// the 25th/50th/75th percentile across sequences of the mean cluster size
/// after k+1 configurations (Figure 8's shaded band and median line).
struct RandomEnsemble {
  std::vector<double> p25;
  std::vector<double> p50;
  std::vector<double> p75;
  std::size_t sequences = 0;
};

RandomEnsemble random_ensemble(const measure::CatchmentStore& matrix,
                               std::size_t sequences, std::uint64_t seed,
                               std::size_t max_steps = 0);

}  // namespace spooftrack::core
