// Data-plane traceroute simulation (RIPE Atlas stand-in).
//
// A traceroute follows the forwarding chain induced by the routing outcome
// from a probe AS toward the experiment prefix, emitting router-level hops
// with the realistic addressing artifacts the paper's §IV-b pipeline must
// survive:
//   * border interfaces numbered from the neighbor AS's prefix,
//   * hops on IXP LANs (mapping to no AS),
//   * transiently unresponsive hops and wholly silent ASes,
//   * truncated traces when the probe has no route.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "measure/address_plan.hpp"
#include "measure/ixp_table.hpp"
#include "netcore/ipv4.hpp"
#include "topology/as_graph.hpp"

namespace spooftrack::measure {

struct TracerouteHop {
  std::optional<netcore::Ipv4Addr> address;  // nullopt = '*' (no reply)

  bool responsive() const noexcept { return address.has_value(); }
};

/// Bits set in Traceroute::fault when injected faults altered the trace.
inline constexpr std::uint8_t kTraceFaultLost = 0x1;
inline constexpr std::uint8_t kTraceFaultTruncated = 0x2;

struct Traceroute {
  topology::AsId probe = topology::kInvalidAsId;
  std::vector<TracerouteHop> hops;
  bool reached = false;      // destination answered
  std::uint8_t fault = 0;    // kTraceFault* bits (0 = clean measurement)
};

struct TracerouteOptions {
  /// Probability a single hop does not answer (transient).
  double hop_unresponsive_prob = 0.05;
  /// Probability an AS never answers traceroute at all (persistent).
  double as_silent_prob = 0.02;
  /// Probability a border interface is numbered from the neighbor's space.
  double border_foreign_addr_prob = 0.35;
  /// Mean number of extra internal router hops per AS (0 => exactly one).
  double extra_internal_hops = 0.6;
  std::uint64_t seed = 99;
};

class TracerouteSim {
 public:
  TracerouteSim(const topology::AsGraph& graph, const AddressPlan& plan,
                const IxpTable& ixps, const TracerouteOptions& options);

  /// Runs one traceroute from `probe` along a precomputed forwarding path
  /// (the result of bgp::forwarding_path(outcome, probe, origin)), writing
  /// hops into `trace` (previous contents are discarded; hop storage is
  /// reused). `salt` varies transient effects between measurement rounds
  /// while keeping the simulation deterministic; persistent effects (silent
  /// ASes, border numbering) depend only on the seed. Callers measuring
  /// many rounds per configuration walk the routing outcome once and replay
  /// the path here. Thread-safe.
  void run_on_path(std::span<const topology::AsId> path, topology::AsId probe,
                   topology::AsId origin, std::uint64_t salt,
                   Traceroute& trace) const;

  /// Whether an AS is persistently silent under this option seed.
  bool as_silent(topology::AsId id) const noexcept;

  /// Installs a fault source (not owned; may be nullptr to disable).
  /// Per (salt, probe), a *loss* fault swallows the whole traceroute
  /// (empty hops, kTraceFaultLost) and a *truncate* fault cuts the trace
  /// at a hash-derived hop before the destination (kTraceFaultTruncated).
  /// A disabled injector leaves every trace bit-identical.
  void set_fault_injector(const fault::FaultInjector* injector) noexcept {
    faults_ = injector;
  }

 private:
  const topology::AsGraph& graph_;
  const AddressPlan& plan_;
  const IxpTable& ixps_;
  TracerouteOptions options_;
  std::vector<std::uint8_t> silent_;  // per-AsId persistent silence bitmap
  const fault::FaultInjector* faults_ = nullptr;
};

}  // namespace spooftrack::measure
