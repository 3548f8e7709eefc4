// Catchment inference (§IV-b/§IV-c): turns measured AS-paths — BGP feed
// entries and repaired traceroutes — into a per-AS catchment assignment.
//
// Every AS appearing on a measured path before the announcement seed voted
// for the catchment that path descends into (its own best route is the
// path's suffix). Conflicting votes are resolved per the paper: BGP votes
// outrank traceroute votes; within a type, the most common catchment wins.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bgp/announcement.hpp"
#include "bgp/catchment.hpp"
#include "measure/feed.hpp"
#include "measure/repair.hpp"
#include "topology/as_graph.hpp"

namespace spooftrack::measure {

/// Identifies the peering link a measured AS-path descends into, by
/// locating the announcement seed (the first occurrence of the origin ASN)
/// and mapping the preceding AS to a link provider. Returns nullopt when
/// the path does not reach the origin or the provider is unknown.
std::optional<bgp::LinkId> link_from_as_path(
    std::span<const topology::Asn> path, const bgp::OriginSpec& origin);

struct InferenceResult {
  /// Measured catchments: kNoCatchment exactly where the AS was not
  /// observed on any measured path.
  bgp::CatchmentMap catchments;
  /// Number of observed ASes.
  std::size_t covered_count = 0;
  /// Fraction of observed ASes whose votes named more than one catchment
  /// (the paper reports 2.28% on the real Internet).
  double multi_catchment_fraction = 0.0;

  friend bool operator==(const InferenceResult&,
                         const InferenceResult&) = default;
};

class CatchmentInference {
 public:
  /// Reusable vote-accumulation buffers; one per worker. Reuse across
  /// infer() calls never changes results (each call resets the buffers).
  struct Scratch {
    std::vector<std::uint16_t> votes;
  };

  CatchmentInference(const topology::AsGraph& graph,
                     const bgp::OriginSpec& origin);

  /// Infers catchments for one configuration from its measurements,
  /// reusing `scratch` instead of allocating vote buffers.
  InferenceResult infer(std::span<const FeedEntry> feeds,
                        std::span<const AsLevelPath> traces,
                        Scratch& scratch) const;

 private:
  const topology::AsGraph& graph_;
  const bgp::OriginSpec& origin_;
};

}  // namespace spooftrack::measure
