#include "measure/verfploeter.hpp"

#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace spooftrack::measure {

namespace {
double unit_hash(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return static_cast<double>(
             util::hash_combine(util::hash_combine(a, b), c) >> 11) *
         0x1.0p-53;
}

/// Clamps nonsensical options into their valid ranges rather than letting
/// them silently zero out coverage (rounds == 0 probed nothing at all).
VerfploeterOptions validated(VerfploeterOptions options) {
  bool clamped = false;
  if (options.rounds == 0) {
    options.rounds = 1;
    clamped = true;
  }
  const auto clamp01 = [&](double& p) {
    if (!(p >= 0.0)) {  // also catches NaN
      p = 0.0;
      clamped = true;
    } else if (p > 1.0) {
      p = 1.0;
      clamped = true;
    }
  };
  clamp01(options.responsive_prob);
  clamp01(options.loss_prob);
  if (clamped) OBS_COUNT("measure.verfploeter.options_clamped", 1);
  return options;
}
}  // namespace

VerfploeterProber::VerfploeterProber(const topology::AsGraph& graph,
                                     const AddressPlan& plan,
                                     const VerfploeterOptions& options)
    : graph_(graph), plan_(plan), options_(validated(options)) {}

bool VerfploeterProber::responsive(topology::AsId id) const noexcept {
  return unit_hash(options_.seed, 0xEC40, id) < options_.responsive_prob;
}

std::uint16_t VerfploeterProber::session_id() const noexcept {
  return static_cast<std::uint16_t>(util::mix64(options_.seed));
}

netcore::Datagram VerfploeterProber::make_probe(
    topology::AsId target, std::uint16_t sequence) const {
  return netcore::make_icmp_echo(AddressPlan::experiment_target(),
                                 plan_.router_address(target, 0),
                                 /*is_reply=*/false, session_id(), sequence);
}

bool VerfploeterProber::is_probe_reply(
    const netcore::Datagram& datagram) const {
  const auto ip = datagram.ip();
  if (!ip || ip->destination != AddressPlan::experiment_target()) {
    return false;
  }
  const auto echo = netcore::parse_icmp_echo(datagram);
  return echo && echo->is_reply && echo->identifier == session_id();
}

InferenceResult VerfploeterProber::probe(const bgp::RoutingOutcome& outcome,
                                         const bgp::Configuration& config,
                                         topology::AsId origin,
                                         std::uint64_t salt) const {
  InferenceResult result;
  result.catchments.link_of.assign(graph_.size(), bgp::kNoCatchment);

  for (topology::AsId target = 0; target < graph_.size(); ++target) {
    if (target == origin || !responsive(target)) continue;

    // The reply follows the responder's best route toward the prefix; no
    // route, no reply. (plan_ supplies the probed host address; the
    // address itself does not influence AS-level forwarding.)
    const bgp::Route& route = outcome.best[target];
    if (!route.valid()) continue;

    // Transient loss, retried across rounds.
    bool heard = false;
    for (std::uint32_t round = 0; round < options_.rounds && !heard;
         ++round) {
      heard = unit_hash(options_.seed ^ salt, round * 0x9341 + 7, target) >=
              options_.loss_prob;
    }
    if (!heard) continue;

    ++result.covered_count;
    result.catchments.link_of[target] =
        config.announcements[route.ann].link;
  }
  // Active probing assigns exactly one catchment per responder: the
  // multi-catchment ambiguity of path-based inference does not arise.
  result.multi_catchment_fraction = 0.0;
  return result;
}

}  // namespace spooftrack::measure
