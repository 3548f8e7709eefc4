// Synthetic Internet-like AS topology generator.
//
// The paper runs on the real Internet via the PEERING testbed; we cannot.
// This generator builds a hierarchical AS graph with the structural
// properties the techniques depend on: a tier-1 clique, a transit layer
// with preferential-attachment (power-law-ish) provider degrees, a large
// stub edge, valley-free customer-provider DAG, and full connectivity.
// Specific ASNs (the PEERING providers of Table I) can be reserved and are
// assigned to well-connected transit ASes so the poisoning phase has a rich
// provider neighbourhood to target, mirroring the paper's 347 neighbours.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/as_graph.hpp"

namespace spooftrack::topology {

struct SynthConfig {
  std::uint64_t seed = 1;

  std::uint32_t tier1_count = 8;
  std::uint32_t transit_count = 150;
  std::uint32_t stub_count = 4000;

  /// Mean number of extra providers beyond the first (multihoming).
  double transit_extra_providers = 0.9;
  double stub_extra_providers = 0.55;

  /// Probability that a given pair of transit ASes peers (IXP-style).
  double transit_peering_prob = 0.04;
  /// Number of random stub-stub peerings as a fraction of stub count.
  double stub_peering_fraction = 0.01;
  /// Probability a stub buys transit directly from a tier-1.
  double stub_tier1_provider_prob = 0.05;

  /// ASNs to embed as transit ASes (e.g. the Table I PEERING providers).
  std::vector<Asn> reserved_transit_asns;
  /// Extra preferential-attachment weight for reserved ASes so they end up
  /// with many customers (they model large regional transit providers).
  /// Must be a whole number in [0, 2^32]: attachment weights stay whole
  /// numbers, so the provider draw's sums are exact.
  double reserved_attract_bonus = 40.0;

  /// Where in the transit creation sequence the reserved ASes appear, as a
  /// fraction of transit_count. Earlier creation compounds preferential
  /// attachment; 0.0 makes the reserved ASes the largest hubs, 0.5 makes
  /// them mid-pack regional providers.
  double reserved_position_fraction = 0.0;

  /// When nonzero, an origin AS with this ASN is attached as a customer of
  /// every reserved transit AS (the multi-homed measurement network; the
  /// graph must contain it before freezing).
  Asn origin_asn = 0;
};

struct SynthTopology {
  AsGraph graph;
  std::vector<Asn> tier1;
  std::vector<Asn> transit;  // includes the reserved ASNs, in creation order
  std::vector<Asn> stubs;
};

/// Generates a frozen topology. Deterministic in config.seed. Each stub's
/// provider draws take O(log transit_count) through a Fenwick tree over the
/// transit weights.
/// Generated ASNs skip the reserved ones and the origin. Throws
/// std::invalid_argument when tier1_count is 0, when reserved ASNs exceed
/// transit_count or repeat an ASN, when stub_count is nonzero but
/// transit_count is 0, or when reserved_attract_bonus is not a whole number
/// in [0, 2^32].
SynthTopology synthesize(const SynthConfig& config);

}  // namespace spooftrack::topology
