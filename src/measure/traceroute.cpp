#include "measure/traceroute.hpp"

#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace spooftrack::measure {

namespace {

/// Deterministic uniform [0,1) from a tuple of identifiers.
double unit_hash(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                 std::uint64_t d) {
  return util::unit01(util::hash_combine(util::hash_combine(a, b),
                                        util::hash_combine(c, d)));
}

}  // namespace

TracerouteSim::TracerouteSim(const topology::AsGraph& graph,
                             const AddressPlan& plan, const IxpTable& ixps,
                             const TracerouteOptions& options)
    : graph_(graph), plan_(plan), ixps_(ixps), options_(options) {
  // Silent ASes are a persistent property of (seed, AS); precomputing the
  // bitmap keeps the per-hop path out of the hash.
  silent_.resize(graph_.size());
  for (topology::AsId id = 0; id < graph_.size(); ++id) {
    silent_[id] =
        unit_hash(options_.seed, 0xA5, id, 0) < options_.as_silent_prob;
  }
}

bool TracerouteSim::as_silent(topology::AsId id) const noexcept {
  return id < silent_.size() && silent_[id] != 0;
}

void TracerouteSim::run_on_path(std::span<const topology::AsId> path,
                                topology::AsId probe, topology::AsId origin,
                                std::uint64_t salt, Traceroute& trace) const {
  OBS_COUNT("measure.traceroute.runs", 1);
  trace.probe = probe;
  trace.hops.clear();
  trace.reached = false;
  trace.fault = 0;

  if (faults_ != nullptr &&
      faults_->fires(fault::Site::kTracerouteLoss, salt, probe)) {
    // The probe result never arrives: no hops at all, as opposed to a
    // routeless trace, which still shows the probe-side gateway.
    trace.fault = kTraceFaultLost;
    OBS_COUNT("fault.traceroute.lost", 1);
    OBS_COUNT("measure.traceroute.incomplete", 1);
    OBS_HIST("measure.traceroute.hops", "hops", 0);
    return;
  }

  auto transient_lost = [&](std::uint64_t hop_index) {
    return unit_hash(options_.seed, salt ^ 0x7C, probe, hop_index) <
           options_.hop_unresponsive_prob;
  };
  std::uint64_t hop_index = 0;
  auto emit = [&](topology::AsId as, std::optional<netcore::Ipv4Addr> addr) {
    ++hop_index;
    if (!addr || as_silent(as) || transient_lost(hop_index)) {
      trace.hops.push_back({std::nullopt});
    } else {
      trace.hops.push_back({addr});
    }
  };

  if (path.empty()) {
    // No route: the trace dies after the probe's own gateway.
    emit(probe, plan_.router_address(probe, 0));
    OBS_COUNT("measure.traceroute.incomplete", 1);
    OBS_HIST("measure.traceroute.hops", "hops", trace.hops.size());
    return;
  }

  for (std::size_t i = 0; i < path.size(); ++i) {
    const topology::AsId as = path[i];
    if (as == origin) break;  // the origin answers from the target address

    if (i == 0) {
      // Probe-side gateway inside the probe AS.
      emit(as, plan_.router_address(as, 0));
    } else {
      const topology::AsId prev = path[i - 1];
      // Ingress border interface of `as` facing `prev`.
      const auto ixp = ixps_.ixp_of_edge(prev, as);
      if (ixp) {
        emit(as, ixps_.member_address(*ixp, as));
      } else {
        const bool foreign =
            unit_hash(options_.seed, 0xB0, prev, as) <
            options_.border_foreign_addr_prob;
        const topology::AsId owner = foreign ? prev : as;
        emit(as, plan_.border_address(owner, as, prev));
      }
    }

    // Internal routers before the egress. Whether a trace catches one is a
    // transient property of the round, so the draw is salted like hop loss.
    // The last AS before the origin shows none: its egress toward the
    // experiment prefix is the target itself, which answers as the
    // destination hop below.
    const bool last_before_origin =
        i + 1 < path.size() && path[i + 1] == origin;
    if (!last_before_origin) {
      const double extra_draw =
          unit_hash(options_.seed, salt ^ 0xC1, as, probe);
      const std::uint32_t extra =
          extra_draw < options_.extra_internal_hops ? 1u : 0u;
      for (std::uint32_t r = 1; r <= extra; ++r) {
        emit(as, plan_.router_address(as, r));
      }
    }
  }

  // Destination: the experiment target inside the announced prefix. The
  // target host answers unless the probe lost the final reply.
  ++hop_index;
  if (transient_lost(hop_index)) {
    trace.hops.push_back({std::nullopt});
  } else {
    trace.hops.push_back({AddressPlan::experiment_target()});
    trace.reached = true;
  }

  if (faults_ != nullptr &&
      faults_->fires(fault::Site::kTracerouteTruncate, salt, probe)) {
    // Cut short at a hash-derived hop. keep == hops.size() (possible only
    // for single-hop traces) leaves the trace intact and is not counted.
    const std::size_t keep =
        1 + static_cast<std::size_t>(
                faults_->mix(fault::Site::kTracerouteTruncate, salt, probe) %
                trace.hops.size());
    if (keep < trace.hops.size()) {
      trace.hops.resize(keep);
      trace.reached = false;
      trace.fault |= kTraceFaultTruncated;
      OBS_COUNT("fault.traceroute.truncated", 1);
    }
  }
  if (!trace.reached) OBS_COUNT("measure.traceroute.incomplete", 1);
  OBS_HIST("measure.traceroute.hops", "hops", trace.hops.size());
}

}  // namespace spooftrack::measure
