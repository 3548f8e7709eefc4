#include "core/splitter.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "bgp/catchment.hpp"

namespace spooftrack::core {

namespace {

/// Only clusters with at least this many routed members are split.
constexpr std::uint32_t kMinClusterSize = 4;
/// With verification on, heuristic candidates simulated per kept proposal.
constexpr std::size_t kCandidateFactor = 3;

bgp::Configuration all_links_config(const bgp::OriginSpec& origin,
                                    const std::string& label) {
  bgp::Configuration config;
  config.label = label;
  for (const auto& link : origin.links) {
    config.announcements.push_back({link.id, 0, {}, {}});
  }
  return config;
}

}  // namespace

bgp::Configuration SplitProposal::to_poison_config(
    const bgp::OriginSpec& origin) const {
  auto config = all_links_config(
      origin, "split-poison l" + std::to_string(link) + " AS" +
                  std::to_string(target));
  config.announcements[link].poisoned.push_back(target);
  return config;
}

bgp::Configuration SplitProposal::to_community_config(
    const bgp::OriginSpec& origin) const {
  auto config = all_links_config(
      origin, "split-noexport l" + std::to_string(link) + " AS" +
                  std::to_string(target));
  config.announcements[link].no_export_to.push_back(target);
  return config;
}

std::vector<SplitProposal> propose_splits(
    const bgp::Engine& engine, const bgp::OriginSpec& origin,
    const bgp::Configuration& baseline, const bgp::RoutingOutcome& outcome,
    const Clustering& clustering,
    const std::vector<topology::AsId>& sources,
    const SplitterOptions& options) {
  const auto& graph = engine.graph();
  const auto origin_id = graph.id_of(origin.asn);
  if (!origin_id) return {};

  const auto catchments = bgp::extract_catchments(outcome, baseline);

  // ASNs that cannot be steering targets: the origin and link providers.
  std::unordered_set<topology::Asn> excluded{origin.asn};
  for (const auto& link : origin.links) excluded.insert(link.provider);

  const auto members_by_cluster = clustering.members();
  std::vector<SplitProposal> proposals;

  for (std::uint32_t cluster = 0; cluster < clustering.cluster_count;
       ++cluster) {
    const auto& members = members_by_cluster[cluster];
    if (members.size() < kMinClusterSize) continue;

    // Count, per on-path AS, how many members traverse it; track the link
    // each member ingresses on (cluster members share it under the
    // baseline configuration by construction, but be defensive).
    std::unordered_map<topology::Asn, std::uint32_t> crossings;
    bgp::LinkId cluster_link = bgp::kNoCatchment;
    std::uint32_t routed_members = 0;
    for (std::uint32_t member : members) {
      const topology::AsId source = sources[member];
      if (catchments[source] == bgp::kNoCatchment) continue;
      ++routed_members;
      if (cluster_link == bgp::kNoCatchment) {
        cluster_link = catchments[source];
      }
      const auto path = bgp::forwarding_path(outcome, source, *origin_id);
      for (topology::AsId hop : path) {
        const topology::Asn asn = graph.asn_of(hop);
        if (hop == source || excluded.contains(asn)) continue;
        ++crossings[asn];
      }
    }
    if (routed_members < kMinClusterSize ||
        cluster_link == bgp::kNoCatchment) {
      continue;
    }

    // Keep the best-balanced strict subsets.
    std::vector<SplitProposal> local;
    for (const auto& [asn, count] : crossings) {
      if (count == 0 || count >= routed_members) continue;
      SplitProposal proposal;
      proposal.cluster = cluster;
      proposal.cluster_size = routed_members;
      proposal.target = asn;
      proposal.link = cluster_link;
      proposal.members_moved = count;
      proposal.balance =
          static_cast<double>(count) *
          static_cast<double>(routed_members - count) /
          (static_cast<double>(routed_members) *
           static_cast<double>(routed_members));
      local.push_back(proposal);
    }
    std::sort(local.begin(), local.end(),
              [](const SplitProposal& a, const SplitProposal& b) {
                if (a.balance != b.balance) return a.balance > b.balance;
                return a.target < b.target;
              });
    // With verification on, keep extra heuristic candidates per cluster so
    // the simulator has alternatives when the top pick fails to split.
    const std::size_t local_cap =
        options.verify_with_engine ? options.per_cluster * kCandidateFactor
                                   : options.per_cluster;
    if (local.size() > local_cap) {
      local.resize(local_cap);
    }
    proposals.insert(proposals.end(), local.begin(), local.end());
  }

  auto by_gain = [](const SplitProposal& a, const SplitProposal& b) {
    // Prioritise big clusters, then balance.
    const double ga = a.balance * a.cluster_size;
    const double gb = b.balance * b.cluster_size;
    if (ga != gb) return ga > gb;
    return a.target < b.target;
  };
  std::sort(proposals.begin(), proposals.end(), by_gain);

  if (!options.verify_with_engine) {
    if (proposals.size() > options.max_proposals) {
      proposals.resize(options.max_proposals);
    }
    return proposals;
  }

  // Look-ahead verification: simulate the most promising candidates and
  // keep only those whose deployment actually partitions their cluster,
  // re-scoring by the realised split (Gini impurity of the new buckets).
  const std::size_t budget =
      std::min(proposals.size(), options.max_proposals * kCandidateFactor);
  std::vector<SplitProposal> verified;
  for (std::size_t i = 0; i < budget; ++i) {
    SplitProposal proposal = proposals[i];
    const auto candidate_outcome = engine.run(
        origin, options.use_communities ? proposal.to_community_config(origin)
                                        : proposal.to_poison_config(origin));
    if (!candidate_outcome.converged) continue;
    const auto candidate_map =
        bgp::extract_catchments(candidate_outcome, baseline);

    // New catchment buckets of the proposal's cluster members.
    std::unordered_map<bgp::LinkId, std::uint32_t> buckets;
    std::uint32_t routed = 0;
    std::uint32_t moved = 0;
    for (std::uint32_t member : members_by_cluster[proposal.cluster]) {
      const topology::AsId source = sources[member];
      const bgp::LinkId link = candidate_map[source];
      ++buckets[link];
      if (link != bgp::kNoCatchment) ++routed;
      if (link != catchments[source]) ++moved;
    }
    if (buckets.size() < 2 || routed == 0) continue;  // no realised split

    double gini = 1.0;
    for (const auto& [link, count] : buckets) {
      const double share = static_cast<double>(count) /
                           static_cast<double>(proposal.cluster_size);
      gini -= share * share;
    }
    proposal.members_moved = moved;
    proposal.balance = gini;
    verified.push_back(proposal);
  }
  std::sort(verified.begin(), verified.end(), by_gain);

  // Keep per-cluster caps after verification, then the global cap.
  std::unordered_map<std::uint32_t, std::size_t> kept_per_cluster;
  std::vector<SplitProposal> kept;
  for (const auto& proposal : verified) {
    if (kept.size() >= options.max_proposals) break;
    auto& count = kept_per_cluster[proposal.cluster];
    if (count >= options.per_cluster) continue;
    ++count;
    kept.push_back(proposal);
  }
  return kept;
}

}  // namespace spooftrack::core
