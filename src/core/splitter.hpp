// Targeted cluster splitting (the paper's §V-B future work: "investigate
// targeted poisoning of distant ASes to induce route changes specific to
// split these large distant clusters").
//
// Members of a cluster are, by definition, in the same catchment under
// every deployed configuration — but their forwarding paths inside that
// catchment differ. Any AS that lies on the paths of a strict subset of a
// cluster's members is a steering lever: making it unavailable (poisoning
// it, or withholding the route from it with a no-export community) forces
// that subset to reroute while the rest stays put, splitting the cluster.
//
// propose_splits() inspects the largest clusters under a baseline
// configuration, enumerates on-path candidate ASes per cluster, and ranks
// them by expected split balance |subset| * |rest|.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/engine.hpp"
#include "core/cluster.hpp"

namespace spooftrack::core {

struct SplitProposal {
  std::uint32_t cluster = 0;
  std::uint32_t cluster_size = 0;
  topology::Asn target = 0;       // AS to poison / no-export
  bgp::LinkId link = 0;           // link whose announcement is modified
  std::uint32_t members_moved = 0;  // members whose path crosses the target
  double balance = 0.0;           // moved * (size - moved), normalised

  /// The poisoning configuration realising the proposal: announce from
  /// every link of `origin`, poisoning `target` on `link`.
  bgp::Configuration to_poison_config(const bgp::OriginSpec& origin) const;
  /// The community-based variant (no-export instead of poisoning).
  bgp::Configuration to_community_config(const bgp::OriginSpec& origin) const;
};

struct SplitterOptions {
  /// Proposals kept per cluster (the best-balanced ones).
  std::size_t per_cluster = 2;
  /// Total cap across clusters.
  std::size_t max_proposals = 64;
  /// Verify proposals by actually routing them: a member subset rerouting
  /// *around* the poisoned AS frequently lands back on the same peering
  /// link (no catchment change, no split), so path-based heuristics alone
  /// over-promise. With verification on, candidate proposals are simulated
  /// and only those that split their cluster survive, ranked by the
  /// realised split quality.
  bool verify_with_engine = true;
  /// Realise proposals with no-export communities instead of poisoning
  /// (severs the provider-target edge; often splits more diversely and is
  /// immune to loop-prevention exemptions and tier-1 filters).
  bool use_communities = false;
};

/// Proposes split targets from the forwarding paths of `outcome` (a
/// baseline all-links deployment). `sources[i]` maps clustering column i
/// to an AsId. Proposals are ranked by balance, best first.
std::vector<SplitProposal> propose_splits(
    const bgp::Engine& engine, const bgp::OriginSpec& origin,
    const bgp::Configuration& baseline, const bgp::RoutingOutcome& outcome,
    const Clustering& clustering,
    const std::vector<topology::AsId>& sources,
    const SplitterOptions& options = {});

}  // namespace spooftrack::core
