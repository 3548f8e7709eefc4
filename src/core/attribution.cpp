#include "core/attribution.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/stats.hpp"

namespace spooftrack::core {

namespace {

constexpr auto kNone = std::numeric_limits<std::uint32_t>::max();

/// Every cluster's trajectory, read from its representative source (the
/// first member; all members share the trajectory by construction of the
/// clustering) and gathered contiguous once with a tiled word-gather, so
/// scoring streams bytes instead of walking one strided column per
/// cluster. Memberless cluster ids (possible in hand-built clusterings)
/// have no slot.
struct Trajectories {
  std::vector<std::uint32_t> slot;  // per cluster id; kNone if memberless
  std::vector<std::uint8_t> bytes;  // matrix.size() links per slot
  std::size_t configs = 0;

  Trajectories(const measure::CatchmentStore& matrix,
               const Clustering& clustering)
      : slot(clustering.cluster_count, kNone), configs(matrix.size()) {
    std::vector<std::uint32_t> representatives;
    for (std::uint32_t s = 0; s < clustering.cluster_of.size(); ++s) {
      std::uint32_t& cluster_slot = slot[clustering.cluster_of[s]];
      if (cluster_slot != kNone) continue;
      cluster_slot = static_cast<std::uint32_t>(representatives.size());
      representatives.push_back(s);
    }
    bytes.resize(representatives.size() * configs);
    matrix.gather_columns(representatives, bytes.data());
  }

  bool has(std::uint32_t cluster) const noexcept {
    return slot[cluster] != kNone;
  }
  const std::uint8_t* of(std::uint32_t cluster) const noexcept {
    return bytes.data() + std::size_t{slot[cluster]} * configs;
  }
};

}  // namespace

TrafficBySize traffic_by_cluster_size(const Clustering& clustering,
                                      std::span<const double> volume) {
  if (volume.size() != clustering.cluster_of.size()) {
    throw std::invalid_argument("volume size does not match source count");
  }
  const auto sizes = clustering.sizes();

  // Volume per cluster, then aggregate by cluster size.
  std::vector<double> cluster_volume(clustering.cluster_count, 0.0);
  for (std::size_t s = 0; s < volume.size(); ++s) {
    cluster_volume[clustering.cluster_of[s]] += volume[s];
  }

  std::vector<std::pair<std::uint64_t, double>> by_size;
  by_size.reserve(clustering.cluster_count);
  for (std::uint32_t c = 0; c < clustering.cluster_count; ++c) {
    by_size.emplace_back(sizes[c], cluster_volume[c]);
  }
  std::sort(by_size.begin(), by_size.end());

  TrafficBySize out;
  double running = 0.0;
  for (std::size_t i = 0; i < by_size.size(); ++i) {
    running += by_size[i].second;
    const bool last_of_size =
        i + 1 == by_size.size() || by_size[i + 1].first != by_size[i].first;
    if (last_of_size) {
      out.cluster_size.push_back(by_size[i].first);
      out.cumulative_volume.push_back(running);
    }
  }
  return out;
}

AttributionResult attribute_clusters(
    const measure::CatchmentStore& matrix, const Clustering& clustering,
    const std::vector<std::vector<double>>& link_volume_per_config) {
  if (matrix.size() != link_volume_per_config.size()) {
    throw std::invalid_argument(
        "one link-volume vector is required per configuration");
  }
  AttributionResult result;
  result.score.assign(clustering.cluster_count,
                      -std::numeric_limits<double>::infinity());
  if (clustering.cluster_count == 0) return result;

  const Trajectories trajectories(matrix, clustering);

  constexpr double kEpsilon = 1e-6;
  for (std::uint32_t c = 0; c < clustering.cluster_count; ++c) {
    if (!trajectories.has(c)) continue;
    const std::uint8_t* trajectory = trajectories.of(c);
    double score = 0.0;
    for (std::size_t k = 0; k < matrix.size(); ++k) {
      const std::uint8_t link = trajectory[k];
      const auto& volumes = link_volume_per_config[k];
      double observed = kEpsilon;
      if (link != bgp::kNoCatchment8 && link < volumes.size()) {
        observed += volumes[link];
      }
      score += std::log(observed);
    }
    result.score[c] = score;
  }

  result.ranking.resize(clustering.cluster_count);
  std::iota(result.ranking.begin(), result.ranking.end(), 0u);
  std::sort(result.ranking.begin(), result.ranking.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (result.score[a] != result.score[b]) {
                return result.score[a] > result.score[b];
              }
              return a < b;
            });
  return result;
}

MixtureResult attribute_mixture(
    const measure::CatchmentStore& matrix, const Clustering& clustering,
    const std::vector<std::vector<double>>& link_volume_per_config,
    double min_weight, std::size_t max_components,
    double robustness_quantile) {
  if (matrix.size() != link_volume_per_config.size()) {
    throw std::invalid_argument(
        "one link-volume vector is required per configuration");
  }
  if (std::isnan(robustness_quantile)) {
    throw std::invalid_argument("robustness_quantile is NaN");
  }
  MixtureResult result;
  result.residual_fraction = 1.0;
  if (clustering.cluster_count == 0 || matrix.empty()) return result;

  // Normalise volumes so weights are fractions of the total per config.
  auto residual = link_volume_per_config;
  for (auto& per_link : residual) {
    double total = 0.0;
    for (double v : per_link) total += v;
    if (total > 0.0) {
      for (double& v : per_link) v /= total;
    }
  }

  // The greedy extraction below re-reads every trajectory each round.
  const Trajectories trajectories(matrix, clustering);

  // Consistent weight of one cluster against the residual: a robust low
  // quantile of the residual volume along the cluster's trajectory, the
  // value util::percentile returns without sorting a copy. At rank 0 that
  // is the minimum; the scan stops at the first residual <= 0, since only
  // a positive weight is ever extracted (and residuals never go negative).
  const std::size_t rank =
      util::percentile_index(matrix.size(), robustness_quantile * 100.0);
  auto residual_at = [&](const std::uint8_t* trajectory, std::size_t c) {
    const std::uint8_t link = trajectory[c];
    return (link != bgp::kNoCatchment8 && link < residual[c].size())
               ? residual[c][link]
               : 0.0;
  };
  std::vector<double> along_trajectory(rank == 0 ? 0 : matrix.size());
  auto weight_of = [&](std::uint32_t cluster) {
    const std::uint8_t* trajectory = trajectories.of(cluster);
    if (rank == 0) {
      double least = residual_at(trajectory, 0);
      for (std::size_t c = 1; c < matrix.size() && least > 0.0; ++c) {
        least = std::min(least, residual_at(trajectory, c));
      }
      return least;
    }
    for (std::size_t c = 0; c < matrix.size(); ++c) {
      along_trajectory[c] = residual_at(trajectory, c);
    }
    std::nth_element(along_trajectory.begin(),
                     along_trajectory.begin() + rank,
                     along_trajectory.end());
    return along_trajectory[rank];
  };

  std::vector<bool> used(clustering.cluster_count, false);
  while (result.components.size() < max_components) {
    std::uint32_t best_cluster = kNone;
    double best_weight = 0.0;
    for (std::uint32_t k = 0; k < clustering.cluster_count; ++k) {
      if (used[k] || !trajectories.has(k)) continue;
      const double w = weight_of(k);
      if (w > best_weight) {
        best_weight = w;
        best_cluster = k;
      }
    }
    if (best_cluster == kNone || best_weight < min_weight) break;

    used[best_cluster] = true;
    result.components.push_back({best_cluster, best_weight});
    const std::uint8_t* trajectory = trajectories.of(best_cluster);
    for (std::size_t c = 0; c < matrix.size(); ++c) {
      const std::uint8_t link = trajectory[c];
      if (link != bgp::kNoCatchment8 && link < residual[c].size()) {
        residual[c][link] = std::max(0.0, residual[c][link] - best_weight);
      }
    }
    result.residual_fraction -= best_weight;
  }
  result.residual_fraction = std::max(0.0, result.residual_fraction);
  return result;
}

}  // namespace spooftrack::core
