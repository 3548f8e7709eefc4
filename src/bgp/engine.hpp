// Synchronous path-vector routing engine.
//
// Computes, for one announcement configuration, the best route of every AS
// toward the experiment prefix by iterating synchronous Jacobi rounds to a
// fixed point: each round, every (active) AS recomputes its best route from
// its neighbors' round-(k-1) routes under the RoutingPolicy. Gao-Rexford
// class ordering is preserved by every policy this library constructs, so
// the instance is dispute-wheel-free and the iteration converges; a round
// cap turns pathological custom policies into a reported error instead of a
// hang.
//
// AS-paths live in a hash-consed PathArena that each outcome owns by value
// (see path_arena.hpp); routes are POD and the propagation loop never
// allocates per route. Each round evaluates only its frontier — the ASes a
// changed neighbor could export to — and its compute phase is read-only
// over the previous round's state: every write, including all arena
// interning, happens in the commit phase, in frontier order. One run is
// serial; configurations run in parallel as separate runs
// (core::ChainStepper).
//
// The origin AS is modelled explicitly: it originates the prefix on the
// configured peering links (with prepending / poisoning encoded in the seed
// AS-path) and never transits routes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bgp/announcement.hpp"
#include "bgp/path_arena.hpp"
#include "bgp/policy.hpp"
#include "bgp/route.hpp"
#include "topology/as_graph.hpp"

namespace spooftrack::bgp {

namespace detail {
struct SeedTable;
}  // namespace detail

struct EngineOptions {
  /// Hard cap on Jacobi rounds; converging instances use far fewer
  /// (roughly the AS-level diameter).
  std::uint32_t max_rounds = 512;
  /// A warm start whose baseline arena holds more nodes than this compacts
  /// it (re-interning only live paths) instead of extending it; bounds
  /// memory along long warm-start chains.
  std::size_t arena_compact_nodes = std::size_t{1} << 21;
};

struct RoutingOutcome {
  /// Best route per AsId; invalid (ann == kNoAnnouncement) when the AS has
  /// no route to the prefix. The origin's own entry is invalid by
  /// convention (it originates rather than routes). Route::path ids live
  /// in `paths`.
  std::vector<Route> best;
  /// Data-plane next hop per AsId (kInvalidAsId when unrouted).
  std::vector<topology::AsId> next_hop;
  /// Per AsId: the 1-based Jacobi round after which the AS never changed
  /// its route again (0 = never held a route / never changed). Feeds the
  /// convergence-time model: deeper ripples settle later. On a warm-started
  /// outcome the rounds are counted from the warm start (0 = carried over
  /// unchanged from the baseline), not from an empty routing table.
  std::vector<std::uint32_t> settled_round;
  /// Arena holding every Route::path above. The outcome owns it: a copy of
  /// the outcome copies it, and a warm start that consumes the outcome
  /// moves it in.
  PathArena paths;
  std::uint32_t rounds = 0;
  bool converged = false;
};

/// Content equality of one AS's routing entry across two outcomes,
/// regardless of which arenas the outcomes use (Route::operator== compares
/// PathIds and is only meaningful within one arena).
bool routes_equal(const RoutingOutcome& a, const RoutingOutcome& b,
                  topology::AsId id);

/// What outcome_checksum covers: kRoutes hashes the converged routing state
/// (best routes with full paths + next hops) — identical across cold and
/// warm runs of the same configuration; kFull additionally hashes
/// settled_round and rounds, which warm starts deliberately change.
enum class ChecksumScope { kRoutes, kFull };

/// FNV-1a 64 digest of an outcome, stable across processes and platforms.
/// The golden-equivalence suite pins these against checksums captured from
/// the pre-arena engine.
std::uint64_t outcome_checksum(const RoutingOutcome& outcome,
                               ChecksumScope scope);

class Engine {
 public:
  /// The graph and policy must outlive the engine.
  Engine(const topology::AsGraph& graph, const RoutingPolicy& policy,
         EngineOptions options = {});

  /// A validated, reusable seed table for one (origin, configuration)
  /// pair: the per-link-provider seed routes plus the precomputed
  /// no-export block bitmaps. Campaigns that propagate the same
  /// configuration repeatedly (or chain warm starts through it) prepare it
  /// once instead of re-validating per run. Tied to the Engine's graph.
  class Prepared {
   public:
    Prepared(Prepared&&) noexcept;
    Prepared& operator=(Prepared&&) noexcept;
    ~Prepared();

   private:
    friend class Engine;
    explicit Prepared(std::unique_ptr<detail::SeedTable> table);
    std::unique_ptr<detail::SeedTable> table_;
  };

  /// Validates `config` against the topology and builds its seed table.
  /// Throws std::invalid_argument for malformed configurations or origins
  /// whose link providers are not providers of the origin in the graph.
  Prepared prepare(const OriginSpec& origin, const Configuration& config) const;

  /// Routes one configuration. Thread-safe: `run` is const and keeps all
  /// mutable state on the stack, so configurations can run in parallel.
  /// Throws like `prepare`.
  RoutingOutcome run(const OriginSpec& origin,
                     const Configuration& config) const;
  /// As above, reusing a prepared seed table (skips validation entirely).
  RoutingOutcome run(const OriginSpec& origin, const Prepared& seeds) const;

  /// Warm-start incremental propagation: routes `config` (prepared as
  /// `seeds`) starting from `baseline`, the converged outcome of
  /// `baseline_config` (prepared as `baseline_seeds`) under the same
  /// origin, engine options and policy. Campaign chains prepare each
  /// configuration once and step through the chain without ever rebuilding
  /// a table. Only ASes whose announcement inputs changed (link providers
  /// that gained/lost/changed seeds, plus their neighbors, which apply the
  /// no-export filter to routes learned from them) are active in round 0;
  /// everything else is re-activated on demand by the ordinary
  /// changed-neighbor tracking.
  ///
  /// Equivalence guarantee: `best` and `next_hop` (including announcement
  /// ids and full AS-paths inside each Route) are content-identical to a
  /// cold `run(origin, config)` — outcome_checksum(., kRoutes) matches
  /// exactly. The instance is dispute-wheel-free (see the file comment),
  /// so the fixed point is unique and the iteration reaches it from any
  /// starting state. `rounds` and `settled_round` are relative to the warm
  /// run (typically much smaller than the cold values) and therefore NOT
  /// comparable across cold and warm outcomes.
  ///
  /// The warm run consumes `baseline`: its routing state and arena move
  /// into the result. The arena is compacted (re-interning only live
  /// paths, counted by `engine.arena.compactions`) only when it holds more
  /// than `arena_compact_nodes` nodes. A caller that keeps its baseline
  /// passes a copy.
  ///
  /// Throws std::invalid_argument when the baseline outcome does not match
  /// this graph's size or did not converge. Thread-safe like `run`.
  RoutingOutcome run_warm(const OriginSpec& origin,
                          const Configuration& config, const Prepared& seeds,
                          const Configuration& baseline_config,
                          const Prepared& baseline_seeds,
                          RoutingOutcome&& baseline) const;

  /// A route available to an AS (used by the policy-compliance audit of
  /// Figure 9): what a neighbor exported and the AS accepted.
  struct CandidateInfo {
    topology::AsId sender = topology::kInvalidAsId;
    topology::Rel rel_of_sender = topology::Rel::kProvider;
    std::uint8_t local_pref = kPrefProvider;
    std::uint32_t length = 0;
    std::uint32_t ann = kNoAnnouncement;
  };

  /// Enumerates the candidate routes `as_id` could choose under `outcome`,
  /// routed with the prepared configuration `seeds` (its neighbors'
  /// exported routes plus any direct origin announcement, after import
  /// filtering), in neighbor order, from the walker whose list the
  /// propagation loop takes the maximum of. The audit calls this per AS
  /// with one seed table.
  std::vector<CandidateInfo> candidates(topology::AsId as_id,
                                        const OriginSpec& origin,
                                        const Prepared& seeds,
                                        const RoutingOutcome& outcome) const;

  const topology::AsGraph& graph() const noexcept { return graph_; }
  const RoutingPolicy& policy() const noexcept { return policy_; }

 private:
  const topology::AsGraph& graph_;
  const RoutingPolicy& policy_;
  EngineOptions options_;
};

/// Walks data-plane next hops from `source` to `origin`. Returns the AsId
/// sequence including both endpoints, or an empty vector when the source
/// has no route or the forwarding state is inconsistent — an invalid
/// next hop mid-walk or a forwarding loop (either would indicate an engine
/// bug or a non-converged outcome). Never throws on malformed outcomes.
std::vector<topology::AsId> forwarding_path(const RoutingOutcome& outcome,
                                            topology::AsId source,
                                            topology::AsId origin);

/// As above, writing into a caller-owned buffer (cleared first) so batch
/// extractors — measure::ProbePathSet over hundreds of probes per
/// configuration — recycle one allocation instead of paying one per probe.
void forwarding_path_into(const RoutingOutcome& outcome,
                          topology::AsId source, topology::AsId origin,
                          std::vector<topology::AsId>& path);

}  // namespace spooftrack::bgp
