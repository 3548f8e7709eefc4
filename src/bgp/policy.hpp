// Per-AS routing policy: Gao-Rexford import preferences and export rules,
// BGP loop prevention (the mechanism poisoning exploits), and the
// real-world deviations the paper depends on or measures:
//
//   * ASes that disable loop prevention for traffic engineering, making
//     poisoning ineffective against them (§III-A(c));
//   * tier-1 ASes that filter customer announcements whose AS-path contains
//     another tier-1 (route-leak protection), dropping poisoned
//     announcements entirely (§III-A(c));
//   * "relationship violators" that swap peer/provider preference — these
//     break Gao's best-relationship criterion and produce the <100%
//     compliance of Figure 9 while remaining provably convergent
//     (Gao-Rexford safety only requires customer routes to stay on top);
//   * "shortest-path violators" whose IGP-like tiebreak dominates AS-path
//     length inside a preference class (Figure 9's second criterion).
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "bgp/path_arena.hpp"
#include "bgp/route.hpp"
#include "topology/as_graph.hpp"

namespace spooftrack::bgp {

struct PolicyConfig {
  std::uint64_t seed = 7;
  /// Fraction of ASes that ignore their own ASN in received paths.
  double ignore_poison_fraction = 0.02;
  /// Fraction of ASes whose tiebreak score dominates AS-path length.
  double shortest_violator_fraction = 0.06;
  /// Fraction of ASes preferring provider routes over peer routes.
  double peer_provider_swap_fraction = 0.05;
  /// Whether tier-1 ASes drop customer routes containing other tier-1s.
  bool tier1_filters_poisoned = true;
};

struct AsPolicyFlags {
  bool is_tier1 = false;
  bool ignores_poison = false;
  bool shortest_violator = false;
  bool peer_provider_swapped = false;
};

/// A candidate route as evaluated by a receiver, before the receiver's own
/// path node is interned. `learned_path` is the path as held by the sender,
/// in `arena`; when `path_includes_sender` is false the candidate path is
/// conceptually [sender_asn] + learned_path (the normal relayed case);
/// when true, the learned path already starts with the sender (origin
/// seeds). Everything is O(1) to copy — candidate evaluation allocates
/// nothing.
struct CandidateRef {
  topology::AsId sender = topology::kInvalidAsId;
  topology::Asn sender_asn = 0;
  topology::Rel rel_of_sender = topology::Rel::kProvider;
  std::uint8_t local_pref = kPrefProvider;
  std::uint32_t ann = kNoAnnouncement;
  const PathArena* arena = nullptr;
  PathId learned_path = kEmptyPath;
  bool path_includes_sender = false;

  std::uint32_t length() const noexcept {
    return arena->length(learned_path) + (path_includes_sender ? 0u : 1u);
  }
};

class RoutingPolicy {
 public:
  /// Derives per-AS flags from the graph (tier-1 detection) and the config
  /// (random flag assignment, deterministic in config.seed).
  RoutingPolicy(const topology::AsGraph& graph, const PolicyConfig& config);

  const AsPolicyFlags& flags(topology::AsId id) const noexcept {
    return flags_[id];
  }

  /// Replaces one AS's flags — used by tests and what-if analyses
  /// (e.g. "would poisoning work if AS X obeyed loop prevention?").
  void override_flags(topology::AsId id, AsPolicyFlags flags) {
    flags_[id] = flags;
    // Keep the tier-1 ASN set consistent with the flag.
    // (tier1_asns_ is keyed by ASN, which the caller controls via the
    // graph; flag-only overrides adjust filtering behaviour.)
  }

  /// LocalPref `receiver` assigns a route learned from a neighbor related
  /// by `rel_of_sender`. Canonical Gao-Rexford unless the AS swaps
  /// peer/provider preference.
  std::uint8_t local_pref(topology::AsId receiver,
                          topology::Rel rel_of_sender) const noexcept;

  /// Import filter: would `receiver` accept this candidate from a neighbor
  /// related to it by `rel_of_sender`? Walks the candidate's arena path
  /// only when its Bloom signature may hold a rejected ASN; allocation-free.
  bool accepts(topology::AsId receiver, topology::Asn receiver_asn,
               topology::Rel rel_of_sender,
               const CandidateRef& candidate) const;

  /// Export filter: Gao-Rexford — customer-learned routes go to everyone;
  /// peer- and provider-learned routes go only to customers.
  bool exports(topology::Rel learned_from,
               topology::Rel rel_of_receiver) const noexcept;

  /// Deterministic per-adjacency tiebreak score (lower wins); models the
  /// IGP-cost / MED / router-id tiebreaks the origin cannot control.
  std::uint64_t tie_score(topology::Asn receiver_asn,
                          topology::Asn sender_asn) const noexcept;

  /// Strict order for `receiver`: true when `a` is preferred over `b`.
  /// Candidates must already carry the receiver's local_pref.
  bool better(topology::AsId receiver, topology::Asn receiver_asn,
              const CandidateRef& a, const CandidateRef& b) const;

 private:
  std::vector<AsPolicyFlags> flags_;
  std::unordered_set<topology::Asn> tier1_asns_;
  // OR of PathArena::bloom_bit over tier1_asns_: a path whose bloom misses
  // this mask provably contains no tier-1 ASN, skipping the leak-filter
  // walk in the common case.
  std::uint64_t tier1_bloom_ = 0;
};

}  // namespace spooftrack::bgp
