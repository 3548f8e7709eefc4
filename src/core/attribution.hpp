// Spoofed-traffic attribution: correlating per-link spoofed volumes across
// configurations with clusters (§III-C, §V-D, and the paper's future-work
// direction of driving mitigation during attacks).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/cluster.hpp"
#include "measure/catchment_store.hpp"
#include "util/stats.hpp"

namespace spooftrack::core {

/// Figure 10: cumulative fraction of spoofed traffic originating in
/// clusters of at most a given size. `volume[s]` is the (normalized)
/// spoofed volume of source s.
struct TrafficBySize {
  std::vector<std::uint64_t> cluster_size;  // ascending distinct sizes
  std::vector<double> cumulative_volume;    // volume in clusters <= size
};

TrafficBySize traffic_by_cluster_size(const Clustering& clustering,
                                      std::span<const double> volume);

/// Online attribution: given per-configuration per-link spoofed volumes
/// observed at the origin (e.g. honeypot counters), score each cluster by
/// how consistent its catchment trajectory is with the observations.
/// Scores are log-likelihoods (higher = more consistent); `ranking` lists
/// cluster ids best-first.
struct AttributionResult {
  std::vector<double> score;          // per cluster id
  std::vector<std::uint32_t> ranking; // cluster ids, best first
};

AttributionResult attribute_clusters(
    const measure::CatchmentStore& matrix, const Clustering& clustering,
    const std::vector<std::vector<double>>& link_volume_per_config);

/// Multi-source attribution by greedy mixture decomposition (the paper's
/// future-work direction of jointly optimizing cluster choice and traffic
/// volume). Observed per-link volumes are treated as a superposition of
/// per-cluster contributions: a cluster emitting weight w adds w to the
/// link its catchment selects in *every* configuration, so the largest
/// weight consistent with the residual volumes is
///
///    w_k = min over configs of residual[config][link of cluster k]
///
/// The decomposition repeatedly extracts the cluster with the largest
/// consistent weight and subtracts its contribution, until no cluster can
/// explain more than `min_weight` of the total.
struct MixtureComponent {
  std::uint32_t cluster = 0;
  double weight = 0.0;  // fraction of total observed volume
};

struct MixtureResult {
  std::vector<MixtureComponent> components;  // extraction order
  /// Fraction of total volume left unexplained by the components.
  double residual_fraction = 0.0;
};

/// `robustness_quantile` trades false-negative for false-positive risk:
/// 0 (default) demands consistency in *every* configuration — a single
/// catchment-inference error can hide a real attacker, but innocent
/// clusters rarely survive; a small positive value (e.g. 0.1) tolerates
/// the worst ~10% of configurations at the cost of letting look-alike
/// clusters absorb weight first. Throws std::invalid_argument when the
/// volumes do not match the configurations or the quantile is NaN.
MixtureResult attribute_mixture(
    const measure::CatchmentStore& matrix, const Clustering& clustering,
    const std::vector<std::vector<double>>& link_volume_per_config,
    double min_weight = 0.02, std::size_t max_components = 16,
    double robustness_quantile = 0.0);

}  // namespace spooftrack::core
