// Systematic announcement-configuration generation (§III-A): the paper's
// three techniques for inducing route and catchment changes.
//
//  (a) Location phase: announce from all subsets of peering links of size
//      >= |L| - max_removals, in decreasing size order — deterministically
//      uncovers at least max_removals+1 routes per source.
//  (b) Prepending phase: for each location-phase configuration, prepend the
//      origin ASN (4x by default) on subsets of the active links, in
//      increasing subset-size order — forces BGP's length tiebreak to
//      expose alternate equal-LocalPref routes.
//  (c) Poisoning phase: announce from all links and poison one neighbor of
//      one directly-connected transit provider on that provider's link —
//      moves traffic off the heavily-used first-hop links.
//
// With 7 links, max_removals = 3 and single-link prepend sets this yields
// the paper's 64 + 294 + (up to) 347 = 705 configurations.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/announcement.hpp"
#include "topology/as_graph.hpp"

namespace spooftrack::core {

struct GeneratorOptions {
  /// Location phase: maximum number of links removed from L.
  std::uint32_t max_removals = 3;
  /// Prepending phase: maximum size of the prepended subset P.
  std::uint32_t max_prepend_set = 1;
  /// Times the origin ASN is prepended (paper: 4, longer than most paths).
  std::uint32_t prepend_count = 4;
  /// Poisoning phase: cap on generated configurations (paper found 347).
  std::size_t max_poison_configs = 347;
  /// Community phase (§VIII future work): cap on no-export configurations
  /// (0 disables the phase; it is an extension beyond the paper's plan).
  std::size_t max_community_configs = 0;
};

class ConfigGenerator {
 public:
  explicit ConfigGenerator(const bgp::OriginSpec& origin,
                           GeneratorOptions options = {});

  /// §III-A(a). The first configuration announces from every link.
  std::vector<bgp::Configuration> location_phase() const;

  /// §III-A(b): for each base configuration, one extra configuration per
  /// non-empty subset of its active links with size <= max_prepend_set,
  /// in increasing subset-size order.
  std::vector<bgp::Configuration> prepend_phase(
      const std::vector<bgp::Configuration>& bases) const;

  /// §III-A(c): per (link, provider-neighbor) pair, announce everywhere and
  /// poison that neighbor on that link. Neighbors are drawn from the
  /// topology (CAIDA + traceroute + feeds in the paper); the origin and the
  /// other link providers are excluded. Pairs are interleaved round-robin
  /// across links so a cap keeps balanced link coverage.
  std::vector<bgp::Configuration> poison_phase(
      const topology::AsGraph& graph) const;

  /// §VIII future work: like the poisoning phase, but steering with a
  /// no-export community honoured by the link's provider instead of path
  /// poisoning. Moves the same first-hop traffic without tripping loop
  /// prevention exemptions or tier-1 route-leak filters.
  std::vector<bgp::Configuration> community_phase(
      const topology::AsGraph& graph) const;

  /// All enabled phases concatenated in deployment order.
  std::vector<bgp::Configuration> full_plan(
      const topology::AsGraph& graph) const;

  /// Number of configurations the location (+ prepending) phases produce
  /// for `links` peering links and `removals` maximum removals — the
  /// paper's closed forms (e.g. 64 and 358 for 7 links, 3 removals).
  static std::size_t location_phase_size(std::size_t links,
                                         std::uint32_t removals);
  static std::size_t location_and_prepend_size(std::size_t links,
                                               std::uint32_t removals);

  const bgp::OriginSpec& origin() const noexcept { return origin_; }
  const GeneratorOptions& options() const noexcept { return options_; }

 private:
  bgp::OriginSpec origin_;
  GeneratorOptions options_;
};

/// All size-k subsets of {0..n-1} in lexicographic order.
std::vector<std::vector<std::uint32_t>> combinations(std::uint32_t n,
                                                     std::uint32_t k);

/// Seed-edit distance between two configurations: the number of peering
/// links whose announcement differs — absent vs announced, a different
/// announcement id (index within the configuration), or a different spec
/// (prepend count, poison set, no-export set). This counts exactly the
/// link providers whose seed entry the routing engine would see change,
/// i.e. the round-0 active set of a warm-started propagation between the
/// two configurations (before neighbor expansion).
std::uint32_t seed_distance(const bgp::Configuration& a,
                            const bgp::Configuration& b);

/// Greedy nearest-neighbor order over `configs` by seed_distance, starting
/// from index `start`: repeatedly appends the unvisited configuration
/// closest to the last appended one (ties resolved toward the lower
/// index, so the order is deterministic). Returns a permutation of
/// [0, configs.size()). plan_campaign uses this to chain warm-started
/// propagations over minimal seed deltas; O(n^2) in the number of
/// configurations.
std::vector<std::size_t> order_by_similarity(
    const std::vector<bgp::Configuration>& configs, std::size_t start = 0);

}  // namespace spooftrack::core
