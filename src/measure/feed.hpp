// Public BGP feed simulation (RouteViews / RIPE RIS stand-in): a set of
// collector-peer ASes export their full AS-path toward the experiment
// prefix after each configuration converges. Paths are exactly what the
// routing engine computed — including origin prepending and PEERING's
// poison sandwich — so downstream inference must strip them, as the paper
// does.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/engine.hpp"
#include "fault/fault.hpp"
#include "topology/as_graph.hpp"

namespace spooftrack::measure {

struct FeedEntry {
  topology::AsId peer = topology::kInvalidAsId;
  /// AS-path as exported by the peer: [peer, ..., origin].
  std::vector<topology::Asn> as_path;
};

struct FeedOptions {
  /// Number of collector-peer ASes (RouteViews+RIS peer with hundreds).
  std::uint32_t peer_count = 250;
  /// Fraction of peers drawn from the largest-cone ASes (collectors peer
  /// predominantly with large transit networks).
  double large_cone_bias = 0.6;
  std::uint64_t seed = 17;
};

class FeedSimulator {
 public:
  FeedSimulator(const topology::AsGraph& graph, const FeedOptions& options);

  const std::vector<topology::AsId>& peers() const noexcept { return peers_; }

  /// Collects one RIB snapshot into `entries`: one entry per peer that
  /// currently has a route. Overwrites in place, recycling surviving slots
  /// (and their AS-path storage), so a deploy reuses a small buffer pool
  /// instead of allocating one snapshot per configuration. Thread-safe
  /// (const, no mutable state).
  void collect_into(const bgp::RoutingOutcome& outcome,
                    std::vector<FeedEntry>& entries) const;

  /// Applies deterministic collector faults to a clean snapshot, writing
  /// the surviving entries into `out` (overwritten in place, slot storage
  /// recycled; `out` must not alias `entries`). Per (salt, peer), an
  /// *outage* drops the peer's entry entirely and a *stale* snapshot
  /// truncates its AS-path before the first occurrence of `origin_asn` (the
  /// collector dumped a RIB that predates the announcement, so the entry
  /// yields no catchment votes). `salt` is the configuration index. Fault
  /// draws are stateless, so degrading a snapshot shared by several
  /// configurations (campaign memo fan-out) stays per-config deterministic.
  /// With both feed probabilities zero `out` equals the input. Increments
  /// *faulted (when given) once per dropped or staled entry.
  static void degrade_into(const std::vector<FeedEntry>& entries,
                           const fault::FaultInjector& injector,
                           std::uint64_t salt, topology::Asn origin_asn,
                           std::uint32_t* faulted,
                           std::vector<FeedEntry>& out);

 private:
  const topology::AsGraph& graph_;
  std::vector<topology::AsId> peers_;
};

}  // namespace spooftrack::measure
