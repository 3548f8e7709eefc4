// Structural graph metrics used by validation and by the evaluation
// (Figure 7 buckets ASes by AS-hop distance to the origin's PoPs; tier-1
// membership feeds the poisoned-route filter; customer cones reproduce the
// paper's coverage statistic of "ASes with customer cone larger than 300").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "topology/as_graph.hpp"

namespace spooftrack::topology {

inline constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();

/// Multi-source BFS over all edges (relationship-agnostic). Entry i is the
/// hop distance of AsId i from the closest source, or kUnreachable.
std::vector<std::uint32_t> hop_distances(const AsGraph& graph,
                                         std::span<const AsId> sources);

/// True when the customer-provider subgraph has no directed cycle.
bool p2c_acyclic(const AsGraph& graph);

/// True when the undirected graph is connected (empty graphs count as
/// connected).
bool connected(const AsGraph& graph);

/// Size of each AS's customer cone (the AS itself plus every AS reachable
/// by repeatedly following provider->customer edges, counted as a set).
/// Requires an acyclic p2c subgraph; throws std::invalid_argument otherwise.
/// Exact, in O(N) memory: one DFS over customer edges per AS with one
/// epoch-stamped visited array. Time is the sum over ASes of the adjacency
/// inside their cone, so it grows with the total cone size (1.6M over the
/// 66.5k-AS internet shape), not with N^2.
std::vector<std::uint32_t> customer_cone_sizes(const AsGraph& graph);

/// Provider-free ASes that have at least one customer; these play the role
/// of the tier-1 clique in routing-policy filters. When at most one AS is
/// provider-free, or none of them has a customer, every provider-free AS is
/// returned. Computes no cones.
std::vector<AsId> tier1_set(const AsGraph& graph);

}  // namespace spooftrack::topology
