#include "measure/feed.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "obs/obs.hpp"
#include "topology/metrics.hpp"
#include "util/rng.hpp"

namespace spooftrack::measure {

FeedSimulator::FeedSimulator(const topology::AsGraph& graph,
                             const FeedOptions& options)
    : graph_(graph) {
  util::Rng rng{options.seed};

  std::vector<topology::AsId> by_cone(graph.size());
  std::iota(by_cone.begin(), by_cone.end(), 0);
  const auto cones = topology::customer_cone_sizes(graph);
  std::stable_sort(by_cone.begin(), by_cone.end(),
                   [&](topology::AsId a, topology::AsId b) {
                     return cones[a] > cones[b];
                   });

  const std::uint32_t want =
      std::min<std::uint32_t>(options.peer_count,
                              static_cast<std::uint32_t>(graph.size()));
  const auto biased =
      static_cast<std::uint32_t>(want * options.large_cone_bias);

  std::unordered_set<topology::AsId> chosen;
  // Large-cone peers: take the top of the cone ranking.
  for (std::uint32_t i = 0; i < biased && i < by_cone.size(); ++i) {
    chosen.insert(by_cone[i]);
  }
  // Remaining peers: uniform over the whole graph.
  while (chosen.size() < want) {
    chosen.insert(
        static_cast<topology::AsId>(rng.next_below(graph.size())));
  }
  peers_.assign(chosen.begin(), chosen.end());
  std::sort(peers_.begin(), peers_.end());
}

void FeedSimulator::collect_into(const bgp::RoutingOutcome& outcome,
                                 std::vector<FeedEntry>& entries) const {
  OBS_TIMER("measure.feed.collect_ns");
  std::size_t count = 0;
  for (topology::AsId peer : peers_) {
    const bgp::Route& route = outcome.best[peer];
    if (!route.valid()) continue;
    if (count == entries.size()) entries.emplace_back();
    FeedEntry& entry = entries[count++];
    entry.peer = peer;
    entry.as_path.clear();
    entry.as_path.reserve(outcome.paths.length(route.path) + 1);
    entry.as_path.push_back(graph_.asn_of(peer));
    for (const topology::Asn asn : outcome.paths.view(route.path)) {
      entry.as_path.push_back(asn);
    }
  }
  entries.resize(count);
  OBS_COUNT("measure.feed.entries", entries.size());
}

void FeedSimulator::degrade_into(const std::vector<FeedEntry>& entries,
                                 const fault::FaultInjector& injector,
                                 std::uint64_t salt,
                                 topology::Asn origin_asn,
                                 std::uint32_t* faulted,
                                 std::vector<FeedEntry>& out) {
  std::size_t count = 0;
  for (const FeedEntry& entry : entries) {
    if (injector.fires(fault::Site::kFeedOutage, salt, entry.peer)) {
      OBS_COUNT("fault.feed.outages", 1);
      if (faulted != nullptr) ++*faulted;
      continue;
    }
    if (count == out.size()) out.emplace_back();
    FeedEntry& copy = out[count++];
    copy = entry;  // vector assignment recycles the slot's path storage
    if (injector.fires(fault::Site::kFeedStale, salt, entry.peer)) {
      // Stale RIB snapshot: the path the collector dumped predates the
      // announcement, so everything from the seed onward is missing. The
      // peer itself always remains (it exported *something*).
      const auto seed = std::find(copy.as_path.begin(), copy.as_path.end(),
                                  origin_asn);
      copy.as_path.erase(std::max(copy.as_path.begin() + 1, seed),
                         copy.as_path.end());
      OBS_COUNT("fault.feed.stale", 1);
      if (faulted != nullptr) ++*faulted;
    }
  }
  out.resize(count);
}

}  // namespace spooftrack::measure
