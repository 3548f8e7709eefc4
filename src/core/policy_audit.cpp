#include "core/policy_audit.hpp"

#include <algorithm>

namespace spooftrack::core {

ComplianceStats audit_compliance(const bgp::Engine& engine,
                                 const bgp::OriginSpec& origin,
                                 const bgp::Configuration& config,
                                 const bgp::RoutingOutcome& outcome) {
  ComplianceStats stats;
  const auto& graph = engine.graph();
  const auto origin_id = graph.id_of(origin.asn);
  // One seed table for the whole audit; the per-AS candidate enumeration
  // below must not re-validate the configuration graph-size times.
  const bgp::Engine::Prepared seeds = engine.prepare(origin, config);

  for (topology::AsId x = 0; x < graph.size(); ++x) {
    if (origin_id && x == *origin_id) continue;
    const bgp::Route& chosen = outcome.best[x];
    if (!chosen.valid()) continue;

    const auto candidates = engine.candidates(x, origin, seeds, outcome);
    if (candidates.empty()) continue;
    ++stats.audited;

    // Best available relationship class (canonical customer>peer>provider,
    // regardless of the AS's private LocalPref deviations).
    std::uint8_t best_class = 0;
    for (const auto& cand : candidates) {
      best_class =
          std::max(best_class, bgp::canonical_pref(cand.rel_of_sender));
    }
    const std::uint8_t chosen_class = bgp::canonical_pref(chosen.learned_from);
    if (chosen_class != best_class) continue;
    ++stats.best_relationship;

    std::uint32_t shortest_in_class =
        std::numeric_limits<std::uint32_t>::max();
    for (const auto& cand : candidates) {
      if (bgp::canonical_pref(cand.rel_of_sender) == best_class) {
        shortest_in_class = std::min(shortest_in_class, cand.length);
      }
    }
    if (outcome.paths.length(chosen.path) == shortest_in_class) {
      ++stats.both_criteria;
    }
  }
  return stats;
}

}  // namespace spooftrack::core
