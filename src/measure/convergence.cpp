#include "measure/convergence.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace spooftrack::measure {

ConvergenceModel::ConvergenceModel(const ConvergenceOptions& options)
    : options_(options) {}

double ConvergenceModel::mrai_of(std::uint32_t as_id) const {
  const double unit = util::unit01(util::hash_combine(options_.seed, as_id));
  const double low = options_.mrai_seconds * (1.0 - options_.spread);
  const double high = options_.mrai_seconds * (1.0 + options_.spread);
  return low + (high - low) * unit;
}

std::vector<double> ConvergenceModel::per_as_seconds(
    const bgp::RoutingOutcome& outcome) const {
  std::vector<double> seconds(outcome.settled_round.size(), 0.0);
  for (std::uint32_t as = 0; as < outcome.settled_round.size(); ++as) {
    const std::uint32_t rounds = outcome.settled_round[as];
    if (rounds == 0) continue;
    const double window = mrai_of(as);
    double total = 0.0;
    for (std::uint32_t r = 1; r <= rounds; ++r) {
      // The update that flips this AS in round r lands a uniform fraction
      // into the pacing window (updates coalesce; full-window waits are
      // the worst case, not the norm).
      total += window * util::unit_hash(options_.seed, as, r);
    }
    seconds[as] = total;
  }
  return seconds;
}

double ConvergenceModel::settle_seconds(
    const bgp::RoutingOutcome& outcome) const {
  const auto seconds = per_as_seconds(outcome);
  return seconds.empty() ? 0.0
                         : *std::max_element(seconds.begin(), seconds.end());
}

}  // namespace spooftrack::measure
