// Verfploeter-style active catchment measurement (de Vries et al., cited by
// the paper's §I as the "send pings, see which link replies arrive at"
// alternative to passive inference).
//
// The origin sends ICMP-echo-style probes from an address inside the
// anycast prefix to a target host in every AS. A responding host replies
// toward the prefix; the reply follows the responder's best route and
// ingresses on exactly the peering link of the responder's catchment —
// direct, per-AS catchment ground truth limited only by responsiveness.
//
// Compared with the BGP-feed + traceroute pipeline (§IV), Verfploeter gets
// near-total coverage of responsive ASes but requires the prefix to carry
// the prober (impossible on PEERING, hence the paper's passive pipeline;
// we provide both and an ablation comparing them).
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/catchment.hpp"
#include "netcore/icmp.hpp"
#include "bgp/engine.hpp"
#include "measure/address_plan.hpp"
#include "measure/inference.hpp"
#include "topology/as_graph.hpp"

namespace spooftrack::measure {

struct VerfploeterOptions {
  /// Probability an AS hosts something that answers echo probes at all.
  double responsive_prob = 0.85;
  /// Per-round transient loss probability (probe or reply dropped).
  double loss_prob = 0.03;
  /// Probe rounds per configuration (losses are re-tried across rounds).
  /// Must be >= 1; the prober clamps 0 to 1 (counted via obs) because zero
  /// rounds would silently measure nothing.
  std::uint32_t rounds = 2;
  std::uint64_t seed = 4242;
};

class VerfploeterProber {
 public:
  VerfploeterProber(const topology::AsGraph& graph, const AddressPlan& plan,
                    const VerfploeterOptions& options);

  /// Probes every AS under one routing outcome; `salt` varies transient
  /// loss between invocations. The result mirrors the passive pipeline's
  /// InferenceResult so downstream code is agnostic to the source.
  InferenceResult probe(const bgp::RoutingOutcome& outcome,
                        const bgp::Configuration& config,
                        topology::AsId origin, std::uint64_t salt) const;

  /// Whether an AS answers probes at all under this option seed.
  bool responsive(topology::AsId id) const noexcept;

  /// The actual echo request sent to an AS's target host: source address
  /// inside the anycast prefix, identifier bound to this prober session.
  netcore::Datagram make_probe(topology::AsId target,
                               std::uint16_t sequence) const;

  /// Whether a datagram is a well-formed echo reply addressed to this
  /// prober's session (the packet the catchment link would deliver).
  bool is_probe_reply(const netcore::Datagram& datagram) const;

  /// This session's ICMP identifier (derived from the seed).
  std::uint16_t session_id() const noexcept;

 private:
  const topology::AsGraph& graph_;
  const AddressPlan& plan_;
  VerfploeterOptions options_;
};

}  // namespace spooftrack::measure
