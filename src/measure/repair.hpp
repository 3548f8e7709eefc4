// §IV-b traceroute-to-AS-path pipeline, including the paper's repair steps:
//
//  1. Map hop addresses to ASes (longest-prefix match) and flag IXP hops.
//  2. If consecutive unresponsive hops are surrounded by responsive ones,
//     and the surrounding addresses have a *single* responsive sequence
//     between them in other traceroutes, substitute it.
//  3. Map remaining unresponsive/unmapped hops to the surrounding AS when
//     both sides agree.
//  4. When the sides disagree, substitute the unique AS sequence between
//     them in public BGP feed paths, if one exists.
//  5. Drop hops that remain unknown; collapse consecutive duplicates.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bgp/announcement.hpp"
#include "measure/feed.hpp"
#include "measure/ip2as.hpp"
#include "measure/ixp_table.hpp"
#include "measure/traceroute.hpp"
#include "topology/as_graph.hpp"

namespace spooftrack::measure {

/// AS-level view of one traceroute after repair.
struct AsLevelPath {
  topology::AsId probe = topology::kInvalidAsId;
  /// Collapsed AS path: probe ASN first; ends with the origin ASN when the
  /// trace reached the experiment prefix.
  std::vector<topology::Asn> path;
  bool complete = false;  // reaches the origin ASN

  friend bool operator==(const AsLevelPath&, const AsLevelPath&) = default;
};

class PathRepair {
 public:
  /// Maximum gap width (in hops) the substitution steps bridge. A run of
  /// exactly this many unresponsive hops between responsive anchors is
  /// still substitutable; one more never is.
  static constexpr std::size_t kSubstitutionWindow = 5;

  /// Reusable working memory. The step-2 index holds only the anchor pairs
  /// the batch's own gaps look up: a first pass over the batch collects
  /// them, a second records the responsive runs between them and nothing
  /// else. The step-4 index holds the feed snapshot's collapsed paths. Both
  /// are cleared per batch in O(1) and keep their capacity. The hop memo
  /// caches each hop address's step-1 class (IXP, unmapped or an ASN) across
  /// batches; it is keyed to the serial of the repairer that filled it, so
  /// a scratch handed to another repairer starts a fresh memo even when
  /// that repairer sits at the first one's address. A Scratch may be reused
  /// across any number of repair() batches and repairers but must not be
  /// shared between concurrent calls; results are identical to a fresh
  /// Scratch. Contents are opaque.
  class Scratch {
   public:
    Scratch();
    ~Scratch();
    Scratch(Scratch&&) noexcept;
    Scratch& operator=(Scratch&&) noexcept;

    struct Impl;  // defined in repair.cpp

   private:
    friend class PathRepair;
    std::unique_ptr<Impl> impl_;
  };

  /// The referenced graph, ip2as map and IXP table must outlive the
  /// repairer and must not change while it lives: scratches memoize their
  /// answers under the repairer's serial.
  PathRepair(const topology::AsGraph& graph, const Ip2AsMap& ip2as,
             const IxpTable& ixps, topology::Asn origin_asn);

  /// Repairs a batch of traceroutes measured under the same configuration,
  /// using the batch itself for step 2 and the feed snapshot for step 4.
  /// Reuses `scratch` for all intermediate state and writes the repaired
  /// paths into `out`, resized to one path per trace; each path is
  /// rewritten in place and keeps its capacity, so the measurement
  /// driver's steady state allocates nothing.
  void repair(std::span<const Traceroute> traces,
              std::span<const FeedEntry> feeds, Scratch& scratch,
              std::vector<AsLevelPath>& out) const;

 private:
  const topology::AsGraph& graph_;
  const Ip2AsMap& ip2as_;
  const IxpTable& ixps_;
  topology::Asn origin_asn_;
  std::uint64_t serial_;  // process-unique; keys the scratch hop memo
};

}  // namespace spooftrack::measure
