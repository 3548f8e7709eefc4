#include "bgp/policy.hpp"

#include "topology/metrics.hpp"
#include "util/rng.hpp"

namespace spooftrack::bgp {

RoutingPolicy::RoutingPolicy(const topology::AsGraph& graph,
                             const PolicyConfig& config)
    : flags_(graph.size()) {
  for (topology::AsId id : topology::tier1_set(graph)) {
    flags_[id].is_tier1 = config.tier1_filters_poisoned;
    tier1_asns_.insert(graph.asn_of(id));
    tier1_bloom_ |= PathArena::bloom_bit(graph.asn_of(id));
  }
  util::Rng rng{config.seed};
  for (topology::AsId id = 0; id < graph.size(); ++id) {
    if (rng.chance(config.ignore_poison_fraction)) {
      flags_[id].ignores_poison = true;
    }
    if (rng.chance(config.shortest_violator_fraction)) {
      flags_[id].shortest_violator = true;
    }
    if (rng.chance(config.peer_provider_swap_fraction)) {
      flags_[id].peer_provider_swapped = true;
    }
  }
}

std::uint8_t RoutingPolicy::local_pref(
    topology::AsId receiver, topology::Rel rel_of_sender) const noexcept {
  if (flags_[receiver].peer_provider_swapped) {
    switch (rel_of_sender) {
      case topology::Rel::kCustomer: return kPrefCustomer;
      case topology::Rel::kProvider: return kPrefPeer;   // swapped up
      case topology::Rel::kPeer: return kPrefProvider;   // swapped down
    }
  }
  return canonical_pref(rel_of_sender);
}

bool RoutingPolicy::accepts(topology::AsId receiver,
                            topology::Asn receiver_asn,
                            topology::Rel rel_of_sender,
                            const CandidateRef& candidate) const {
  // The hot path of candidate evaluation: both filters are membership
  // queries over the candidate's path, so the path's Bloom signature (one
  // load — it lives in the head node) answers the common negative case
  // without walking the path. Positives fall back to the exact walk, so
  // verdicts are those of a plain walk over the whole path.
  const AsPolicyFlags& f = flags_[receiver];
  const PathArena& arena = *candidate.arena;
  const std::uint64_t path_bloom = arena.bloom(candidate.learned_path);

  // BGP loop prevention: the mechanism poisoning relies on. ASes that
  // disabled it (interconnecting sites over the Internet) accept anyway.
  // The sender cannot be the receiver, so scanning the learned path covers
  // the whole candidate path.
  if (!f.ignores_poison &&
      (path_bloom & PathArena::bloom_bit(receiver_asn)) != 0) {
    for (topology::Asn asn : arena.view(candidate.learned_path)) {
      if (asn == receiver_asn) return false;
    }
  }

  // Tier-1 route-leak filter: a customer announcing a path through another
  // tier-1 looks like a leak; poisoned announcements trip this filter.
  if (f.is_tier1 && rel_of_sender == topology::Rel::kCustomer) {
    if ((path_bloom & tier1_bloom_) != 0) {
      for (topology::Asn asn : arena.view(candidate.learned_path)) {
        if (asn != receiver_asn && tier1_asns_.contains(asn)) return false;
      }
    }
    if (!candidate.path_includes_sender &&
        tier1_asns_.contains(candidate.sender_asn)) {
      return false;
    }
  }
  return true;
}

bool RoutingPolicy::exports(topology::Rel learned_from,
                            topology::Rel rel_of_receiver) const noexcept {
  if (learned_from == topology::Rel::kCustomer) return true;
  return rel_of_receiver == topology::Rel::kCustomer;
}

std::uint64_t RoutingPolicy::tie_score(topology::Asn receiver_asn,
                                       topology::Asn sender_asn) const
    noexcept {
  return util::hash_combine(receiver_asn, sender_asn);
}

bool RoutingPolicy::better(topology::AsId receiver,
                           topology::Asn receiver_asn, const CandidateRef& a,
                           const CandidateRef& b) const {
  if (a.local_pref != b.local_pref) return a.local_pref > b.local_pref;

  const bool score_first = flags_[receiver].shortest_violator;
  const std::uint64_t score_a = tie_score(receiver_asn, a.sender_asn);
  const std::uint64_t score_b = tie_score(receiver_asn, b.sender_asn);
  const std::uint32_t len_a = a.length();
  const std::uint32_t len_b = b.length();

  if (score_first) {
    if (score_a != score_b) return score_a < score_b;
    if (len_a != len_b) return len_a < len_b;
  } else {
    if (len_a != len_b) return len_a < len_b;
    if (score_a != score_b) return score_a < score_b;
  }
  // Final deterministic tiebreak: lowest neighbor ASN (router-id analogue).
  return a.sender_asn < b.sender_asn;
}

}  // namespace spooftrack::bgp
