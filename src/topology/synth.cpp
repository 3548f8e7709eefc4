#include "topology/synth.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <unordered_set>

#include "util/rng.hpp"

namespace spooftrack::topology {

namespace {

// Well-known tier-1 ASNs used for flavour; generation continues sequentially
// when more tier-1s are requested than listed here.
constexpr Asn kTier1Pool[] = {3356, 174,  3257, 1299, 2914,
                              6762, 6939, 701,  7018, 3320};

// Largest reserved_attract_bonus: 2^32 keeps every sum of whole-number
// attachment weights below 2^53, where doubles add them exactly.
constexpr double kMaxAttractBonus = 0x1p32;

std::uint64_t edge_key(Asn a, Asn b) noexcept {
  if (a > b) std::swap(a, b);
  return (std::uint64_t{a} << 32) | b;
}

class EdgeSet {
 public:
  bool insert(Asn a, Asn b) { return seen_.insert(edge_key(a, b)).second; }
  bool contains(Asn a, Asn b) const { return seen_.contains(edge_key(a, b)); }

 private:
  std::unordered_set<std::uint64_t> seen_;
};

}  // namespace

SynthTopology synthesize(const SynthConfig& config) {
  if (config.tier1_count == 0) {
    throw std::invalid_argument("tier1_count must be >= 1");
  }
  if (config.reserved_transit_asns.size() > config.transit_count) {
    throw std::invalid_argument("more reserved ASNs than transit slots");
  }
  if (config.stub_count > 0 && config.transit_count == 0) {
    // Stubs draw their providers from the transit layer.
    throw std::invalid_argument("stubs need at least one transit AS");
  }
  const double bonus = config.reserved_attract_bonus;
  if (!(bonus >= 0.0 && bonus <= kMaxAttractBonus) ||
      bonus != std::floor(bonus)) {
    throw std::invalid_argument(
        "reserved_attract_bonus must be a whole number in [0, 2^32]");
  }

  util::Rng rng{config.seed};
  SynthTopology topo;
  EdgeSet edges;

  std::unordered_set<Asn> taken(config.reserved_transit_asns.begin(),
                                config.reserved_transit_asns.end());
  if (taken.size() != config.reserved_transit_asns.size()) {
    throw std::invalid_argument("reserved transit ASNs must be distinct");
  }
  if (config.origin_asn != 0) taken.insert(config.origin_asn);
  Asn next_asn = 64500;
  auto fresh_asn = [&]() {
    while (taken.contains(next_asn)) ++next_asn;
    taken.insert(next_asn);
    return next_asn++;
  };

  // --- Tier-1 clique -------------------------------------------------------
  for (std::uint32_t i = 0; i < config.tier1_count; ++i) {
    Asn asn;
    if (i < std::size(kTier1Pool) && !taken.contains(kTier1Pool[i])) {
      asn = kTier1Pool[i];
      taken.insert(asn);
    } else {
      asn = fresh_asn();
    }
    topo.tier1.push_back(asn);
    topo.graph.add_as(asn);
  }
  for (std::size_t i = 0; i < topo.tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < topo.tier1.size(); ++j) {
      topo.graph.add_p2p(topo.tier1[i], topo.tier1[j]);
      edges.insert(topo.tier1[i], topo.tier1[j]);
    }
  }

  // Preferential-attachment weights over candidate providers: 1, plus the
  // reserved bonus, plus 1 per customer, so always whole numbers.
  std::vector<Asn> provider_pool = topo.tier1;
  std::vector<double> provider_weight(provider_pool.size(), 1.0);

  auto pick_providers = [&](Asn self, std::size_t count,
                            std::size_t pool_limit) {
    std::vector<Asn> chosen;
    std::vector<double> weights(provider_weight.begin(),
                                provider_weight.begin() +
                                    static_cast<std::ptrdiff_t>(pool_limit));
    // Each pick zeroes its weight, so a pool smaller than `count` runs out
    // of weight once every member is chosen: stop there.
    const std::size_t want = std::min(count, pool_limit);
    for (std::size_t attempt = 0;
         attempt < count * 8 && chosen.size() < want; ++attempt) {
      const std::size_t index = rng.weighted_index(weights);
      const Asn provider = provider_pool[index];
      if (provider == self || edges.contains(provider, self)) continue;
      chosen.push_back(provider);
      edges.insert(provider, self);
      weights[index] = 0.0;  // no duplicate providers
      provider_weight[index] += 1.0;
    }
    return chosen;
  };

  // --- Transit layer -------------------------------------------------------
  const std::size_t reserved_count = config.reserved_transit_asns.size();
  const std::size_t reserved_begin = std::min<std::size_t>(
      static_cast<std::size_t>(config.reserved_position_fraction *
                               static_cast<double>(config.transit_count)),
      config.transit_count - reserved_count);
  for (std::uint32_t i = 0; i < config.transit_count; ++i) {
    const bool is_reserved =
        i >= reserved_begin && i < reserved_begin + reserved_count;
    const Asn asn = is_reserved
                        ? config.reserved_transit_asns[i - reserved_begin]
                        : fresh_asn();
    topo.transit.push_back(asn);

    // Providers come only from already-created ASes, which keeps the
    // customer-provider graph acyclic by construction.
    const std::size_t pool_limit = provider_pool.size();
    const std::size_t provider_count =
        1 + (rng.uniform01() < config.transit_extra_providers ? 1u : 0u) +
        (rng.uniform01() < config.transit_extra_providers / 3.0 ? 1u : 0u);
    const auto providers = pick_providers(asn, provider_count, pool_limit);
    if (providers.empty()) {
      // Degenerate fallback: attach to the first tier-1.
      topo.graph.add_p2c(topo.tier1[0], asn);
      edges.insert(topo.tier1[0], asn);
    }
    for (Asn provider : providers) topo.graph.add_p2c(provider, asn);

    provider_pool.push_back(asn);
    provider_weight.push_back(1.0 + (is_reserved ? bonus : 0.0));
  }

  // Guarantee every tier-1 transits for someone: a tier-1 without
  // customers would be indistinguishable from an isolated stub.
  {
    std::size_t next_transit = 0;
    for (std::size_t i = 0; i < topo.tier1.size(); ++i) {
      bool has_customer = false;
      // Adjacency is not frozen yet; scan the transit list instead.
      for (Asn transit : topo.transit) {
        if (edges.contains(topo.tier1[i], transit)) {
          // The edge might be a peering, but transit ASes only ever peer
          // with each other, so tier1-transit edges are always p2c here.
          has_customer = true;
          break;
        }
      }
      if (!has_customer && !topo.transit.empty()) {
        const Asn customer = topo.transit[next_transit++ % topo.transit.size()];
        if (!edges.contains(topo.tier1[i], customer)) {
          edges.insert(topo.tier1[i], customer);
          topo.graph.add_p2c(topo.tier1[i], customer);
        }
      }
    }
  }

  // Transit-transit peering (IXP fabric).
  for (std::size_t i = 0; i < topo.transit.size(); ++i) {
    for (std::size_t j = i + 1; j < topo.transit.size(); ++j) {
      if (!rng.chance(config.transit_peering_prob)) continue;
      const Asn a = topo.transit[i];
      const Asn b = topo.transit[j];
      if (edges.contains(a, b)) continue;
      edges.insert(a, b);
      topo.graph.add_p2p(a, b);
    }
  }

  // --- Stub edge -----------------------------------------------------------
  // Stubs prefer transit providers; occasionally buy from tier-1 directly.
  // Transit weights move to a Fenwick tree, so each stub's draw is
  // O(log transit_count); tier-1 weights are never drawn again.
  const std::size_t transit_pool_begin = topo.tier1.size();
  util::WeightTree transit_weights(
      std::span<const double>(provider_weight).subspan(transit_pool_begin));
  for (std::uint32_t i = 0; i < config.stub_count; ++i) {
    const Asn asn = fresh_asn();
    topo.stubs.push_back(asn);

    const std::size_t provider_count =
        1 + (rng.uniform01() < config.stub_extra_providers ? 1u : 0u) +
        (rng.uniform01() < config.stub_extra_providers / 4.0 ? 1u : 0u);

    std::vector<Asn> chosen;
    for (std::size_t attempt = 0;
         attempt < provider_count * 8 && chosen.size() < provider_count;
         ++attempt) {
      std::size_t index;
      if (rng.chance(config.stub_tier1_provider_prob)) {
        index = static_cast<std::size_t>(rng.next_below(topo.tier1.size()));
      } else {
        // Weighted pick among transit ASes only.
        index = transit_pool_begin + transit_weights.draw(rng);
      }
      const Asn provider = provider_pool[index];
      if (provider == asn || edges.contains(provider, asn)) continue;
      if (std::find(chosen.begin(), chosen.end(), provider) != chosen.end()) {
        continue;
      }
      chosen.push_back(provider);
      edges.insert(provider, asn);
      if (index >= transit_pool_begin) {
        transit_weights.add(index - transit_pool_begin, 1.0);
      }
    }
    if (chosen.empty()) {
      const Asn fallback = topo.transit[rng.next_below(topo.transit.size())];
      chosen.push_back(fallback);
      edges.insert(fallback, asn);
    }
    for (Asn provider : chosen) topo.graph.add_p2c(provider, asn);
  }

  // Sparse stub-stub peering (e.g. content caches at regional IXPs).
  const auto stub_peerings = static_cast<std::size_t>(
      config.stub_peering_fraction * static_cast<double>(topo.stubs.size()));
  for (std::size_t k = 0; k < stub_peerings && topo.stubs.size() >= 2; ++k) {
    const Asn a = topo.stubs[rng.next_below(topo.stubs.size())];
    const Asn b = topo.stubs[rng.next_below(topo.stubs.size())];
    if (a == b || edges.contains(a, b)) continue;
    edges.insert(a, b);
    topo.graph.add_p2p(a, b);
  }

  // --- Origin attachment -----------------------------------------------
  if (config.origin_asn != 0) {
    for (Asn provider : config.reserved_transit_asns) {
      topo.graph.add_p2c(provider, config.origin_asn);
    }
  }

  topo.graph.freeze();
  return topo;
}

}  // namespace spooftrack::topology
