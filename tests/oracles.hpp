// Independent reference implementations for the analysis kernels, the
// §IV-b traceroute repair, the BGP import filter and the candidate routes
// each AS chooses from.
//
// The production cluster refinement runs on encoded CatchmentStore bytes
// (or rows decoded from the bit-sliced planes), and the production greedy
// scheduler keeps every candidate's cluster
// count, updating it across workers only where each winner splits. The
// oracles below are the plain algorithms the paper describes — §III-B
// refinement and the §V-C greedy schedule — over decoded LinkId rows: one
// epoch-stamped (cluster, catchment) bucket table, first-touch dense ids,
// a serial lowest-index-max rescan of every candidate at every step.
//
// legacy_repair is the pre-optimization §IV-b repair pipeline, verbatim:
// owned-vector substitution indexes and fresh per-trace buffers, where
// measure::PathRepair uses slice-pooled indexes and reusable scratch.
//
// legacy_cone_sizes is the customer-cone bitset DP, verbatim: one N-bit
// set per AS, unioned over customers in reverse topological order. It
// takes N^2 / 8 bytes, so the tests run it on graphs of at most about 10k
// ASes; topology::customer_cone_sizes counts each cone with a DFS in O(N)
// memory. legacy_tier1_set and legacy_feed_peers are the tier-1 filter and
// the collector-peer ranking on top of those cones.
//
// legacy_mixture is the §V-D mixture decomposition that sorts a copy of
// every cluster's residuals for its weight; core::attribute_mixture takes
// the same order statistic with a running minimum or nth_element.
//
// legacy_accepts is the import filter (§III-A(c): loop prevention and the
// tier-1 route-leak filter) as a plain walk over the candidate's whole
// path, against a tier-1 ASN set built from topology::tier1_set;
// bgp::RoutingPolicy::accepts walks a path only when its Bloom signature
// may hold a rejected ASN.
//
// legacy_candidates lists the routes an AS can choose (the input of the
// stable-paths certificate and of the Figure 9 audit) from the
// configuration and the outcome, with the export, no-export and import
// rules written out here; bgp::Engine builds the same list from its seed
// table and the precomputed no-export bitmaps, with one walker for
// propagation and Engine::candidates.
//
// The tests require the production code to match every oracle bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/announcement.hpp"
#include "bgp/catchment.hpp"
#include "bgp/engine.hpp"
#include "bgp/path_arena.hpp"
#include "bgp/policy.hpp"
#include "core/attribution.hpp"
#include "core/cluster_slots.hpp"
#include "core/scheduler.hpp"
#include "measure/catchment_store.hpp"
#include "measure/feed.hpp"
#include "measure/ip2as.hpp"
#include "measure/ixp_table.hpp"
#include "measure/repair.hpp"
#include "measure/traceroute.hpp"
#include "topology/as_graph.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace spooftrack::test {

/// A catchment matrix as decoded rows: one row per configuration, one
/// LinkId (or bgp::kNoCatchment) per source.
using LinkRows = std::vector<std::vector<bgp::LinkId>>;

/// The store holding `rows`, built through CatchmentStore::append_row (so
/// ragged rows and out-of-range links throw as they do there).
inline measure::CatchmentStore store_of(const LinkRows& rows) {
  measure::CatchmentStore store;
  for (const auto& row : rows) {
    store.append_row(std::span<const bgp::LinkId>(row));
  }
  return store;
}

/// The decoded rows of `store`.
inline LinkRows rows_of(const measure::CatchmentStore& store) {
  LinkRows rows(store.configs(), std::vector<bgp::LinkId>(store.sources()));
  for (std::size_t c = 0; c < store.configs(); ++c) {
    for (std::size_t s = 0; s < store.sources(); ++s) {
      rows[c][s] = store.link_at(c, s);
    }
  }
  return rows;
}

/// Incremental refinement over LinkId rows: epoch-stamped
/// (cluster, catchment) buckets, first-touch dense ids.
class LegacyTracker {
 public:
  explicit LegacyTracker(std::size_t sources)
      : cluster_of_(sources, 0),
        cluster_count_(sources == 0 ? 0 : 1),
        keys_(std::max<std::size_t>(1, sources) * core::kSlots, 0),
        order_(keys_.size(), 0) {}

  std::uint32_t refine(const std::vector<bgp::LinkId>& row) {
    ++epoch_;
    std::uint32_t next_id = 0;
    for (std::size_t s = 0; s < cluster_of_.size(); ++s) {
      const std::size_t key = bucket(s, row[s]);
      if (keys_[key] != epoch_) {
        keys_[key] = epoch_;
        order_[key] = next_id++;
      }
      cluster_of_[s] = order_[key];
    }
    cluster_count_ = next_id;
    return next_id;
  }

  /// Clusters after hypothetically refining with `row`; no state change.
  std::uint32_t count_after(const std::vector<bgp::LinkId>& row) {
    ++epoch_;
    std::uint32_t count = 0;
    for (std::size_t s = 0; s < cluster_of_.size(); ++s) {
      const std::size_t key = bucket(s, row[s]);
      if (keys_[key] != epoch_) {
        keys_[key] = epoch_;
        ++count;
      }
    }
    return count;
  }

  const std::vector<std::uint32_t>& cluster_of() const { return cluster_of_; }
  std::uint32_t cluster_count() const { return cluster_count_; }
  double mean_cluster_size() const {
    return cluster_count_ == 0 ? 0.0
                               : static_cast<double>(cluster_of_.size()) /
                                     static_cast<double>(cluster_count_);
  }

 private:
  std::size_t bucket(std::size_t source, bgp::LinkId link) const {
    const std::size_t slot = link == bgp::kNoCatchment
                                 ? core::kMissingSlot
                                 : static_cast<std::size_t>(link);
    return static_cast<std::size_t>(cluster_of_[source]) * core::kSlots + slot;
  }

  std::vector<std::uint32_t> cluster_of_;
  std::uint32_t cluster_count_ = 0;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> order_;
  std::uint64_t epoch_ = 0;
};

/// Serial greedy schedule: scan every remaining configuration, deploy the
/// one maximising the refined cluster count (minimum mean cluster size),
/// lowest index on ties. Stops after `steps` configurations (0 = all).
inline core::ScheduleTrace legacy_greedy(const LinkRows& matrix,
                                         std::size_t steps) {
  const std::size_t sources = matrix.empty() ? 0 : matrix.front().size();
  LegacyTracker tracker(sources);
  std::vector<bool> used(matrix.size(), false);
  core::ScheduleTrace trace;
  const std::size_t horizon =
      steps == 0 ? matrix.size() : std::min(steps, matrix.size());
  for (std::size_t k = 0; k < horizon; ++k) {
    std::size_t best = matrix.size();
    std::uint32_t best_count = 0;
    for (std::size_t i = 0; i < matrix.size(); ++i) {
      if (used[i]) continue;
      const std::uint32_t count = tracker.count_after(matrix[i]);
      if (best == matrix.size() || count > best_count) {
        best = i;
        best_count = count;
      }
    }
    if (best == matrix.size()) break;
    used[best] = true;
    tracker.refine(matrix[best]);
    trace.order.push_back(best);
    trace.mean_cluster_size.push_back(tracker.mean_cluster_size());
  }
  return trace;
}

/// Deterministic randomized matrix: hidden source groups plus flip/missing
/// noise, so refinement splits clusters gradually (the regime greedy
/// scheduling actually runs in) instead of saturating on the first row.
/// Links are drawn from [0, 7).
inline LinkRows random_matrix(std::size_t configs, std::size_t sources,
                              std::uint64_t seed) {
  constexpr std::uint32_t kLinkCount = 7;
  util::Rng rng(seed ^ 0xCA7C);
  const std::size_t groups = std::max<std::size_t>(4, sources / 5);
  std::vector<std::size_t> group_of(sources);
  for (auto& g : group_of) g = rng.next_below(groups);

  LinkRows matrix(configs);
  std::vector<bgp::LinkId> prototype(groups);
  for (auto& row : matrix) {
    for (auto& p : prototype) {
      p = static_cast<bgp::LinkId>(rng.next_below(kLinkCount));
    }
    row.resize(sources);
    for (std::size_t s = 0; s < sources; ++s) {
      if (rng.chance(0.03)) {
        row[s] = bgp::kNoCatchment;
      } else if (rng.chance(0.03)) {
        row[s] = static_cast<bgp::LinkId>(rng.next_below(kLinkCount));
      } else {
        row[s] = prototype[group_of[s]];
      }
    }
  }
  return matrix;
}

namespace legacy_cone_detail {

/// Kahn topological order of the p2c DAG with providers before customers.
/// Returns an empty vector when a cycle exists.
inline std::vector<topology::AsId> provider_first_order(
    const topology::AsGraph& graph) {
  using topology::AsId;
  using topology::Neighbor;
  using topology::Rel;
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

}  // namespace legacy_cone_detail

/// Customer-cone sizes by the bitset DP: cone(p) = {p} | union of cone(c)
/// for customers c. Throws std::invalid_argument on a p2c cycle.
inline std::vector<std::uint32_t> legacy_cone_sizes(
    const topology::AsGraph& graph) {
  using topology::AsId;
  using topology::Neighbor;
  using topology::Rel;
  const auto order = legacy_cone_detail::provider_first_order(graph);
  if (graph.size() != 0 && order.empty()) {
    throw std::invalid_argument("customer cones require an acyclic p2c graph");
  }

  // Bitset DP: cone(p) = {p} | union of cone(c) for customers c. Processing
  // in reverse provider-first order guarantees customers are done first.
  const std::size_t words = (graph.size() + 63) / 64;
  std::vector<std::uint64_t> cones(graph.size() * words, 0);
  auto cone = [&](AsId id) {
    return std::span<std::uint64_t>(cones.data() + std::size_t{id} * words,
                                    words);
  };

  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const AsId id = *it;
    auto self = cone(id);
    self[id / 64] |= std::uint64_t{1} << (id % 64);
    for (const Neighbor& n : graph.neighbors(id)) {
      if (n.rel != Rel::kCustomer) continue;
      const auto child = cone(n.id);
      for (std::size_t w = 0; w < words; ++w) self[w] |= child[w];
    }
  }

  std::vector<std::uint32_t> sizes(graph.size(), 0);
  for (AsId id = 0; id < graph.size(); ++id) {
    std::uint32_t count = 0;
    for (std::uint64_t word : cone(id)) {
      count += static_cast<std::uint32_t>(__builtin_popcountll(word));
    }
    sizes[id] = count;
  }
  return sizes;
}

/// Provider-free ASes whose cone is at least 2; every provider-free AS when
/// at most one is provider-free or none passes.
inline std::vector<topology::AsId> legacy_tier1_set(
    const topology::AsGraph& graph) {
  std::vector<topology::AsId> out;
  for (topology::AsId id = 0; id < graph.size(); ++id) {
    if (graph.is_provider_free(id)) out.push_back(id);
  }
  if (out.size() <= 1) return out;
  const auto cones = legacy_cone_sizes(graph);
  std::vector<topology::AsId> filtered;
  for (topology::AsId id : out) {
    if (cones[id] >= 2) filtered.push_back(id);
  }
  return filtered.empty() ? out : filtered;
}

/// Collector peers as FeedSimulator chooses them, ranked by legacy cones:
/// the top `peer_count * large_cone_bias` of a stable descending cone sort,
/// then uniform draws until `peer_count` are chosen; sorted ascending.
inline std::vector<topology::AsId> legacy_feed_peers(
    const topology::AsGraph& graph, const measure::FeedOptions& options) {
  util::Rng rng{options.seed};
  std::vector<topology::AsId> by_cone(graph.size());
  std::iota(by_cone.begin(), by_cone.end(), 0);
  const auto cones = legacy_cone_sizes(graph);
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
  for (std::uint32_t i = 0; i < biased && i < by_cone.size(); ++i) {
    chosen.insert(by_cone[i]);
  }
  while (chosen.size() < want) {
    chosen.insert(
        static_cast<topology::AsId>(rng.next_below(graph.size())));
  }
  std::vector<topology::AsId> peers(chosen.begin(), chosen.end());
  std::sort(peers.begin(), peers.end());
  return peers;
}

/// Would `receiver` import `candidate` from a neighbor related to it by
/// `rel_of_sender`? Loop prevention rejects a path holding the receiver's
/// ASN unless the receiver ignores poison; a tier-1 receiver rejects a
/// customer route whose path (or relaying sender) holds another tier-1.
/// `policy` supplies only the receiver's flags; `tier1_asns` is the ASN
/// set of topology::tier1_set.
inline bool legacy_accepts(const bgp::RoutingPolicy& policy,
                           const std::unordered_set<topology::Asn>& tier1_asns,
                           topology::AsId receiver, topology::Asn receiver_asn,
                           topology::Rel rel_of_sender,
                           const bgp::CandidateRef& candidate) {
  const bgp::AsPolicyFlags& flags = policy.flags(receiver);
  const auto path = candidate.arena->view(candidate.learned_path);
  if (!flags.ignores_poison) {
    for (topology::Asn asn : path) {
      if (asn == receiver_asn) return false;
    }
  }
  if (flags.is_tier1 && rel_of_sender == topology::Rel::kCustomer) {
    for (topology::Asn asn : path) {
      if (asn != receiver_asn && tier1_asns.contains(asn)) return false;
    }
    if (!candidate.path_includes_sender &&
        tier1_asns.contains(candidate.sender_asn)) {
      return false;
    }
  }
  return true;
}

/// The routes `as` can choose under `outcome`, one per exporting neighbor
/// in neighbor order, listed from `config` and the outcome alone (no
/// engine seed table). The origin offers the announcement whose link
/// provider is `as`, with its bgp::seed_path. Another neighbor offers its
/// valid best route when it learned that route from a customer or is
/// `as`'s provider (Gao-Rexford), unless the neighbor is a link provider,
/// the route carries the neighbor's own announcement and `as` is on that
/// announcement's no-export list. legacy_accepts filters what is left;
/// lengths count the path's ASNs one by one.
inline std::vector<bgp::Engine::CandidateInfo> legacy_candidates(
    const topology::AsGraph& graph, const bgp::RoutingPolicy& policy,
    const std::unordered_set<topology::Asn>& tier1_asns,
    const bgp::OriginSpec& origin, const bgp::Configuration& config,
    const bgp::RoutingOutcome& outcome, topology::AsId as) {
  const topology::Asn asn = graph.asn_of(as);
  std::vector<bgp::Engine::CandidateInfo> out;
  if (asn == origin.asn) return out;
  // The announcement sent over the peering link whose provider is `provider`.
  const auto announcement_to = [&](topology::Asn provider) {
    for (std::uint32_t ann = 0; ann < config.announcements.size(); ++ann) {
      if (origin.links[config.announcements[ann].link].provider == provider) {
        return ann;
      }
    }
    return bgp::kNoAnnouncement;
  };
  bgp::PathArena seed_arena;
  for (const topology::Neighbor& nb : graph.neighbors(as)) {
    bgp::CandidateRef cand;
    cand.sender = nb.id;
    cand.sender_asn = graph.asn_of(nb.id);
    cand.rel_of_sender = nb.rel;
    if (cand.sender_asn == origin.asn) {
      cand.ann = announcement_to(asn);
      if (cand.ann == bgp::kNoAnnouncement) continue;
      cand.arena = &seed_arena;
      cand.learned_path = seed_arena.intern(
          bgp::seed_path(origin.asn, config.announcements[cand.ann]));
      cand.path_includes_sender = true;
    } else {
      const bgp::Route& learned = outcome.best[nb.id];
      if (!learned.valid()) continue;
      if (learned.learned_from != topology::Rel::kCustomer &&
          nb.rel != topology::Rel::kProvider) {
        continue;
      }
      if (learned.ann == announcement_to(cand.sender_asn)) {
        const auto& blocked = config.announcements[learned.ann].no_export_to;
        if (std::find(blocked.begin(), blocked.end(), asn) != blocked.end()) {
          continue;
        }
      }
      cand.ann = learned.ann;
      cand.arena = &outcome.paths;
      cand.learned_path = learned.path;
      cand.path_includes_sender = false;
    }
    if (!legacy_accepts(policy, tier1_asns, as, asn, nb.rel, cand)) continue;
    bgp::Engine::CandidateInfo info;
    info.sender = nb.id;
    info.rel_of_sender = nb.rel;
    info.local_pref = policy.local_pref(as, nb.rel);
    const auto path = cand.arena->view(cand.learned_path);
    info.length = static_cast<std::uint32_t>(
        std::distance(path.begin(), path.end()) +
        (cand.path_includes_sender ? 0 : 1));
    info.ann = cand.ann;
    out.push_back(info);
  }
  return out;
}

namespace legacy_repair_detail {

constexpr std::size_t kWindow = measure::PathRepair::kSubstitutionWindow;

inline std::uint64_t pack(std::uint64_t a, std::uint64_t b) {
  return (a << 32) | (b & 0xFFFFFFFFULL);
}

template <typename T>
struct SeqEntry {
  std::vector<T> seq;
  bool conflict = false;
};

template <typename T>
void record(std::unordered_map<std::uint64_t, SeqEntry<T>>& map,
            std::uint64_t key, const std::vector<T>& interior) {
  const auto it = map.find(key);
  if (it == map.end()) {
    map.emplace(key, SeqEntry<T>{interior});
    return;
  }
  if (!it->second.conflict && it->second.seq != interior) {
    it->second.conflict = true;
  }
}

using AddrSeqMap =
    std::unordered_map<std::uint64_t, SeqEntry<netcore::Ipv4Addr>>;
using AsnSeqMap = std::unordered_map<std::uint64_t, SeqEntry<topology::Asn>>;

inline AddrSeqMap build_address_index(
    std::span<const measure::Traceroute> traces) {
  AddrSeqMap map;
  for (const measure::Traceroute& trace : traces) {
    const auto& hops = trace.hops;
    for (std::size_t i = 0; i < hops.size(); ++i) {
      if (!hops[i].responsive()) continue;
      std::vector<netcore::Ipv4Addr> interior;
      for (std::size_t j = i + 1; j < hops.size() && j - i <= kWindow + 1;
           ++j) {
        if (!hops[j].responsive()) break;
        record(map, pack(hops[i].address->value(), hops[j].address->value()),
               interior);
        interior.push_back(*hops[j].address);
      }
    }
  }
  return map;
}

inline AsnSeqMap build_feed_index(std::span<const measure::FeedEntry> feeds,
                                  topology::Asn origin_asn) {
  AsnSeqMap map;
  for (const measure::FeedEntry& feed : feeds) {
    std::vector<topology::Asn> path;
    for (topology::Asn asn : feed.as_path) {
      if (path.empty() || path.back() != asn) path.push_back(asn);
    }
    for (std::size_t i = 0; i < path.size(); ++i) {
      std::vector<topology::Asn> interior;
      for (std::size_t j = i + 1; j < path.size() && j - i <= kWindow + 1;
           ++j) {
        if (j - i >= 2 && path[j - 1] == origin_asn) break;
        record(map, pack(path[i], path[j]), interior);
        interior.push_back(path[j]);
      }
    }
  }
  return map;
}

inline std::vector<measure::TracerouteHop> substitute_unresponsive(
    const std::vector<measure::TracerouteHop>& hops, const AddrSeqMap& index) {
  std::vector<measure::TracerouteHop> out;
  out.reserve(hops.size());
  std::size_t i = 0;
  while (i < hops.size()) {
    if (hops[i].responsive()) {
      out.push_back(hops[i]);
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < hops.size() && !hops[j].responsive()) ++j;
    const bool has_left = !out.empty() && out.back().responsive();
    const bool has_right = j < hops.size();
    bool substituted = false;
    if (has_left && has_right && j - i <= kWindow) {
      const auto it = index.find(pack(out.back().address->value(),
                                      hops[j].address->value()));
      if (it != index.end() && !it->second.conflict) {
        for (netcore::Ipv4Addr addr : it->second.seq) out.push_back({addr});
        substituted = true;
      }
    }
    if (!substituted) {
      for (std::size_t k = i; k < j; ++k) out.push_back(hops[k]);
    }
    i = j;
  }
  return out;
}

inline measure::AsLevelPath finish_mapping(
    const topology::AsGraph& graph, const measure::Ip2AsMap& ip2as,
    const measure::IxpTable& ixps, topology::Asn origin_asn,
    topology::AsId probe, const std::vector<measure::TracerouteHop>& hops,
    const AsnSeqMap* feed_index) {
  std::vector<std::optional<topology::Asn>> mapped;
  mapped.reserve(hops.size());
  for (const measure::TracerouteHop& hop : hops) {
    if (!hop.responsive()) {
      mapped.push_back(std::nullopt);
      continue;
    }
    if (ixps.is_ixp_address(*hop.address)) continue;
    mapped.push_back(ip2as.lookup(*hop.address));
  }

  std::vector<topology::Asn> as_hops;
  std::size_t i = 0;
  while (i < mapped.size()) {
    if (mapped[i]) {
      as_hops.push_back(*mapped[i]);
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < mapped.size() && !mapped[j]) ++j;
    const bool has_left = !as_hops.empty();
    const bool has_right = j < mapped.size();
    if (has_left && has_right) {
      const topology::Asn left = as_hops.back();
      const topology::Asn right = *mapped[j];
      if (left == right) {
        // Gap internal to one AS.
      } else if (feed_index != nullptr && j - i <= kWindow) {
        const auto it = feed_index->find(pack(left, right));
        if (it != feed_index->end() && !it->second.conflict) {
          for (topology::Asn asn : it->second.seq) as_hops.push_back(asn);
        }
      }
    }
    i = j;
  }

  measure::AsLevelPath result;
  result.probe = probe;
  result.path.push_back(graph.asn_of(probe));
  for (topology::Asn asn : as_hops) {
    if (result.path.back() != asn) result.path.push_back(asn);
  }
  result.complete = result.path.back() == origin_asn;
  return result;
}

}  // namespace legacy_repair_detail

/// The §IV-b repair of one configuration's traceroute batch, as the library
/// ran it before PathRepair pooled its indexes: step 2 from the batch's own
/// traces, step 4 from the feed snapshot. measure::PathRepair::repair must
/// return exactly this for any batch.
inline std::vector<measure::AsLevelPath> legacy_repair(
    const topology::AsGraph& graph, const measure::Ip2AsMap& ip2as,
    const measure::IxpTable& ixps, topology::Asn origin_asn,
    std::span<const measure::Traceroute> traces,
    std::span<const measure::FeedEntry> feeds) {
  using namespace legacy_repair_detail;
  const AddrSeqMap address_index = build_address_index(traces);
  const AsnSeqMap feed_index = build_feed_index(feeds, origin_asn);
  std::vector<measure::AsLevelPath> out;
  out.reserve(traces.size());
  for (const measure::Traceroute& trace : traces) {
    const auto hops = substitute_unresponsive(trace.hops, address_index);
    out.push_back(finish_mapping(graph, ip2as, ixps, origin_asn, trace.probe,
                                 hops, &feed_index));
  }
  return out;
}

/// §V-D greedy mixture decomposition as the library ran it before
/// core::attribute_mixture stopped sorting: every cluster's weight is
/// util::percentile over a fresh copy of the residuals along its
/// trajectory, read column by column from the store. attribute_mixture
/// must return exactly this: the same components, weights and residual.
inline core::MixtureResult legacy_mixture(
    const measure::CatchmentStore& matrix, const core::Clustering& clustering,
    const std::vector<std::vector<double>>& link_volume_per_config,
    double min_weight = 0.02, std::size_t max_components = 16,
    double robustness_quantile = 0.0) {
  core::MixtureResult result;
  result.residual_fraction = 1.0;
  if (clustering.cluster_count == 0 || matrix.empty()) return result;

  constexpr auto kNone = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> representative(clustering.cluster_count, kNone);
  for (std::uint32_t s = 0; s < clustering.cluster_of.size(); ++s) {
    auto& rep = representative[clustering.cluster_of[s]];
    if (rep == kNone) rep = s;
  }

  auto residual = link_volume_per_config;
  for (auto& per_link : residual) {
    double total = 0.0;
    for (double v : per_link) total += v;
    if (total > 0.0) {
      for (double& v : per_link) v /= total;
    }
  }

  auto weight_of = [&](std::uint32_t cluster) {
    std::vector<double> along_trajectory;
    for (std::size_t c = 0; c < matrix.size(); ++c) {
      const std::uint8_t link = matrix[c][representative[cluster]];
      along_trajectory.push_back(
          (link != bgp::kNoCatchment8 && link < residual[c].size())
              ? residual[c][link]
              : 0.0);
    }
    if (along_trajectory.empty()) return 0.0;
    return util::percentile(along_trajectory, robustness_quantile * 100.0);
  };

  std::vector<bool> used(clustering.cluster_count, false);
  while (result.components.size() < max_components) {
    std::uint32_t best_cluster = kNone;
    double best_weight = 0.0;
    for (std::uint32_t k = 0; k < clustering.cluster_count; ++k) {
      if (used[k] || representative[k] == kNone) continue;
      const double w = weight_of(k);
      if (w > best_weight) {
        best_weight = w;
        best_cluster = k;
      }
    }
    if (best_cluster == kNone || best_weight < min_weight) break;

    used[best_cluster] = true;
    result.components.push_back({best_cluster, best_weight});
    for (std::size_t c = 0; c < matrix.size(); ++c) {
      const std::uint8_t link = matrix[c][representative[best_cluster]];
      if (link != bgp::kNoCatchment8 && link < residual[c].size()) {
        residual[c][link] = std::max(0.0, residual[c][link] - best_weight);
      }
    }
    result.residual_fraction -= best_weight;
  }
  result.residual_fraction = std::max(0.0, result.residual_fraction);
  return result;
}

}  // namespace spooftrack::test
