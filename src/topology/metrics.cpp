#include "topology/metrics.hpp"

#include <algorithm>
#include <deque>
#include <iterator>
#include <stdexcept>

namespace spooftrack::topology {

std::vector<std::uint32_t> hop_distances(const AsGraph& graph,
                                         std::span<const AsId> sources) {
  std::vector<std::uint32_t> dist(graph.size(), kUnreachable);
  std::deque<AsId> queue;
  for (AsId s : sources) {
    if (s < graph.size() && dist[s] == kUnreachable) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    const AsId u = queue.front();
    queue.pop_front();
    for (const Neighbor& n : graph.neighbors(u)) {
      if (dist[n.id] == kUnreachable) {
        dist[n.id] = dist[u] + 1;
        queue.push_back(n.id);
      }
    }
  }
  return dist;
}

namespace {

/// Kahn topological order of the p2c DAG with providers before customers.
/// Returns an empty vector when a cycle exists.
std::vector<AsId> provider_first_order(const AsGraph& graph) {
  std::vector<std::uint32_t> pending_providers(graph.size(), 0);
  for (AsId id = 0; id < graph.size(); ++id) {
    for (const Neighbor& n : graph.neighbors(id)) {
      if (n.rel == Rel::kProvider) ++pending_providers[id];
    }
  }
  std::vector<AsId> order;
  order.reserve(graph.size());
  std::deque<AsId> ready;
  for (AsId id = 0; id < graph.size(); ++id) {
    if (pending_providers[id] == 0) ready.push_back(id);
  }
  while (!ready.empty()) {
    const AsId u = ready.front();
    ready.pop_front();
    order.push_back(u);
    for (const Neighbor& n : graph.neighbors(u)) {
      if (n.rel == Rel::kCustomer && --pending_providers[n.id] == 0) {
        ready.push_back(n.id);
      }
    }
  }
  if (order.size() != graph.size()) order.clear();
  return order;
}

}  // namespace

bool p2c_acyclic(const AsGraph& graph) {
  return graph.size() == 0 || !provider_first_order(graph).empty();
}

bool connected(const AsGraph& graph) {
  if (graph.size() == 0) return true;
  const AsId roots[] = {0};
  const auto dist = hop_distances(graph, roots);
  return std::none_of(dist.begin(), dist.end(), [](std::uint32_t d) {
    return d == kUnreachable;
  });
}

std::vector<std::uint32_t> customer_cone_sizes(const AsGraph& graph) {
  if (!p2c_acyclic(graph)) {
    throw std::invalid_argument("customer cones require an acyclic p2c graph");
  }

  // One DFS over customer edges per AS. seen[id] == root + 1 marks an AS
  // already counted in root's cone, so no per-root reset is needed and an AS
  // reached along two paths counts once.
  std::vector<std::uint32_t> sizes(graph.size(), 0);
  std::vector<AsId> seen(graph.size(), 0);
  std::vector<AsId> stack;
  for (AsId root = 0; root < graph.size(); ++root) {
    const AsId stamp = root + 1;
    seen[root] = stamp;
    stack.push_back(root);
    std::uint32_t count = 0;
    while (!stack.empty()) {
      const AsId id = stack.back();
      stack.pop_back();
      ++count;
      for (const Neighbor& n : graph.neighbors(id)) {
        if (n.rel == Rel::kCustomer && seen[n.id] != stamp) {
          seen[n.id] = stamp;
          stack.push_back(n.id);
        }
      }
    }
    sizes[root] = count;
  }
  return sizes;
}

std::vector<AsId> tier1_set(const AsGraph& graph) {
  std::vector<AsId> out;
  for (AsId id = 0; id < graph.size(); ++id) {
    if (graph.is_provider_free(id)) out.push_back(id);
  }
  // Provider-free stubs (disconnected oddities in real data) are not
  // tier-1: a tier-1 must actually transit for someone.
  if (out.size() <= 1) return out;
  const auto has_customer = [&graph](AsId id) {
    const auto adjacency = graph.neighbors(id);
    return std::any_of(
        adjacency.begin(), adjacency.end(),
        [](const Neighbor& n) { return n.rel == Rel::kCustomer; });
  };
  std::vector<AsId> filtered;
  std::copy_if(out.begin(), out.end(), std::back_inserter(filtered),
               has_customer);
  return filtered.empty() ? out : filtered;
}

}  // namespace spooftrack::topology
