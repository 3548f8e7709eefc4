#include "bgp/engine.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace spooftrack::bgp {

using topology::AsId;
using topology::kInvalidAsId;
using topology::Rel;

namespace detail {

struct Seed {
  std::uint32_t ann = kNoAnnouncement;
  std::vector<topology::Asn> path;
};

struct SeedTable {
  AsId origin_id = kInvalidAsId;
  std::vector<Seed> seed_of;    // indexed by AsId (link providers only)
  std::vector<bool> has_seed;
  /// Per link provider: receiver-AsId bitmap of that provider's seed
  /// announcement's no-export targets; empty when the announcement has
  /// none. Precomputed so the hot loop replaces a std::find over the
  /// target ASN list with one bit test.
  std::vector<std::vector<bool>> no_export_block;
};

}  // namespace detail

Engine::Engine(const topology::AsGraph& graph, const RoutingPolicy& policy,
               EngineOptions options)
    : graph_(graph), policy_(policy), options_(options) {
  if (!graph_.frozen()) {
    throw std::invalid_argument("engine requires a frozen AsGraph");
  }
}

Engine::Prepared::Prepared(std::unique_ptr<detail::SeedTable> table)
    : table_(std::move(table)) {}
Engine::Prepared::Prepared(Prepared&&) noexcept = default;
Engine::Prepared& Engine::Prepared::operator=(Prepared&&) noexcept = default;
Engine::Prepared::~Prepared() = default;

namespace {

using detail::Seed;
using detail::SeedTable;

/// Validates the configuration against the topology and builds the seed
/// routes each link provider hears from the origin.
SeedTable build_seeds(const topology::AsGraph& graph,
                      const OriginSpec& origin, const Configuration& config) {
  validate(config, origin);

  const auto origin_id = graph.id_of(origin.asn);
  if (!origin_id) {
    throw std::invalid_argument("origin AS " + std::to_string(origin.asn) +
                                " not present in topology");
  }

  SeedTable table;
  table.origin_id = *origin_id;
  table.seed_of.resize(graph.size());
  table.has_seed.assign(graph.size(), false);
  table.no_export_block.resize(graph.size());

  for (std::uint32_t ann = 0; ann < config.announcements.size(); ++ann) {
    const AnnouncementSpec& spec = config.announcements[ann];
    const PeeringLink& link = origin.links[spec.link];
    const auto provider_id = graph.id_of(link.provider);
    if (!provider_id) {
      throw std::invalid_argument("link provider AS " +
                                  std::to_string(link.provider) +
                                  " not present in topology");
    }
    const auto rel = graph.relationship(*origin_id, *provider_id);
    if (!rel || *rel != Rel::kProvider) {
      throw std::invalid_argument(
          "origin is not a customer of link provider AS " +
          std::to_string(link.provider));
    }
    if (table.has_seed[*provider_id]) {
      throw std::invalid_argument("two peering links share provider AS " +
                                  std::to_string(link.provider));
    }
    table.has_seed[*provider_id] = true;
    table.seed_of[*provider_id] = Seed{ann, seed_path(origin.asn, spec)};
    if (!spec.no_export_to.empty()) {
      auto& blocked = table.no_export_block[*provider_id];
      blocked.assign(graph.size(), false);
      for (const topology::Asn target : spec.no_export_to) {
        // Targets absent from the topology can never receive the route
        // anyway; they simply have no bit to set.
        if (const auto id = graph.id_of(target)) blocked[*id] = true;
      }
    }
  }
  return table;
}

/// True when AS `p` sees exactly the same announcement behaviour under both
/// configurations: same seed presence, announcement id, seed AS-path, and
/// no-export target set of that announcement. This is the full set of
/// configuration inputs that influence p's own route computation and the
/// no-export filtering its neighbors apply to routes learned from p.
bool seed_entry_equal(AsId p, const SeedTable& a, const Configuration& ca,
                      const SeedTable& b, const Configuration& cb) {
  if (a.has_seed[p] != b.has_seed[p]) return false;
  if (!a.has_seed[p]) return true;
  const Seed& sa = a.seed_of[p];
  const Seed& sb = b.seed_of[p];
  if (sa.ann != sb.ann || sa.path != sb.path) return false;
  return ca.announcements[sa.ann].no_export_to ==
         cb.announcements[sb.ann].no_export_to;
}

/// True when p's export filtering toward its neighbors is identical under
/// both configurations. A neighbor blocks a route learned from p iff p is
/// seeded, the route carries p's seed announcement, and the neighbor is on
/// that announcement's no-export list — so the decision function is
/// unchanged when both effective no-export lists are empty (nothing is ever
/// blocked), or when p is seeded on the same announcement id with the same
/// list under both. Only when this differs do p's neighbors need round-0
/// activation; a change to p's own route reaches them through ordinary
/// changed-neighbor tracking.
bool export_filter_equal(AsId p, const SeedTable& a, const Configuration& ca,
                         const SeedTable& b, const Configuration& cb) {
  static const std::vector<topology::Asn> kEmpty;
  const auto& ea = a.has_seed[p]
                       ? ca.announcements[a.seed_of[p].ann].no_export_to
                       : kEmpty;
  const auto& eb = b.has_seed[p]
                       ? cb.announcements[b.seed_of[p].ann].no_export_to
                       : kEmpty;
  if (ea.empty() && eb.empty()) return true;
  return a.has_seed[p] && b.has_seed[p] &&
         a.seed_of[p].ann == b.seed_of[p].ann && ea == eb;
}

/// Calls `visit(cand)`, in neighbor order, for each route AS `x` can
/// choose: the origin's seed over x's peering link (`seed_path` in
/// `seed_arena`), and each neighbor's valid route in `best` (paths in
/// `arena`) that passes the Gao-Rexford export rule, the no-export bitmap
/// and x's import filter. Each candidate carries x's LocalPref. Propagation
/// and Engine::candidates (the Figure 9 audit) both list candidates here.
template <typename Visit>
void for_each_candidate(const topology::AsGraph& graph,
                        const RoutingPolicy& policy, const SeedTable& seeds,
                        const std::vector<Route>& best, const PathArena& arena,
                        const PathArena& seed_arena, PathId seed_path, AsId x,
                        Visit&& visit) {
  const topology::Asn x_asn = graph.asn_of(x);
  for (const topology::Neighbor& nb : graph.neighbors(x)) {
    CandidateRef cand;
    if (nb.id == seeds.origin_id) {
      if (!seeds.has_seed[x]) continue;
      // Direct announcement from the origin over this peering link.
      cand.ann = seeds.seed_of[x].ann;
      cand.arena = &seed_arena;
      cand.learned_path = seed_path;
      cand.path_includes_sender = true;
    } else {
      const Route& learned = best[nb.id];
      if (!learned.valid()) continue;
      // Valley-free export rule at the sender: from the sender's
      // perspective, x is reverse(nb.rel).
      if (!policy.exports(learned.learned_from, topology::reverse(nb.rel))) {
        continue;
      }
      // BGP-community export control: a link provider whose best route
      // is its own seed withholds it from no-export targets (one bit
      // test against the precomputed bitmap).
      const auto& blocked = seeds.no_export_block[nb.id];
      if (!blocked.empty() && seeds.seed_of[nb.id].ann == learned.ann &&
          blocked[x]) {
        continue;
      }
      cand.ann = learned.ann;
      cand.arena = &arena;
      cand.learned_path = learned.path;
      cand.path_includes_sender = false;
    }
    cand.sender = nb.id;
    cand.sender_asn = graph.asn_of(nb.id);
    cand.rel_of_sender = nb.rel;
    cand.local_pref = policy.local_pref(x, nb.rel);
    if (policy.accepts(x, x_asn, nb.rel, cand)) visit(cand);
  }
}

/// A route change produced by the compute phase, before interning. The
/// winner's path is NOT interned here — it is described as (sender_asn,
/// parent) and interned by the commit phase, which keeps the compute phase
/// free of writes: every AS of round k reads round k-1 only.
struct StagedWrite {
  AsId x = kInvalidAsId;
  AsId from = kInvalidAsId;
  std::uint32_t ann = kNoAnnouncement;
  PathId parent = kEmptyPath;
  topology::Asn sender_asn = 0;
  Rel learned_from = Rel::kProvider;
  std::uint8_t local_pref = kPrefProvider;
  bool includes_sender = false;
  bool has_route = false;
};

/// The shared Jacobi fixed-point loop behind Engine::run and
/// Engine::run_warm. `current`/`current_from` is the starting routing state
/// (all-invalid on a cold start, the baseline fixed point on a warm start)
/// with path ids in `arena`, which moves into the outcome, and
/// `active_round0` selects which ASes recompute in round 0.
RoutingOutcome propagate(const topology::AsGraph& graph_,
                         const RoutingPolicy& policy_,
                         const EngineOptions& options_,
                         const SeedTable& seeds, PathArena arena,
                         std::vector<Route> current,
                         std::vector<AsId> current_from,
                         const std::vector<bool>& active_round0) {
  OBS_TIMER("engine.propagate_ns");
  OBS_COUNT("engine.propagations", 1);
  const AsId origin_id = seeds.origin_id;
  const std::size_t n = graph_.size();
  const std::size_t nodes_before = arena.node_count();
  const std::uint64_t hits_before = arena.hits();

  RoutingOutcome outcome;

  // The origin never holds a route to its own prefix.
  current[origin_id] = Route{};
  current_from[origin_id] = kInvalidAsId;

  // Intern the seed paths up front, in ascending provider order — the only
  // interning outside the commit phase, and deterministic by construction.
  std::vector<PathId> seed_path_of(n, kEmptyPath);
  for (AsId p = 0; p < n; ++p) {
    if (seeds.has_seed[p]) {
      seed_path_of[p] = arena.intern(seeds.seed_of[p].path);
    }
  }

  std::vector<std::uint32_t> settled(n, 0);

  // Jacobi iteration over an explicit active frontier: an AS is recomputed
  // only when one of its neighbors changed in the previous round, and each
  // round touches only the frontier — never all of the topology. Round 0's
  // frontier is `active_round0` (every AS on a cold start, only
  // delta-affected ASes on a warm start).
  //
  // Each round splits into a compute phase that reads ONLY round-(k-1)
  // state (current/current_from/arena) and stages changed routes, and a
  // commit phase that interns paths and applies the writes in frontier
  // order. These are the Jacobi semantics: no AS sees a round-k write
  // before every AS of round k has been evaluated.
  std::vector<AsId> active_list;
  active_list.reserve(n);
  for (AsId x = 0; x < n; ++x) {
    if (x != origin_id && active_round0[x]) active_list.push_back(x);
  }
  const bool had_initial_frontier = !active_list.empty();
  std::vector<bool> queued(n, false);

  // Evaluates one active AS against its neighbors' round-(k-1) routes and
  // stages a write when its best route changed. Read-only on shared state.
  std::vector<StagedWrite> staged;
  const auto evaluate = [&](AsId x) {
    const topology::Asn x_asn = graph_.asn_of(x);
    CandidateRef best_ref;
    bool have_best = false;
    for_each_candidate(graph_, policy_, seeds, current, arena, arena,
                       seed_path_of[x], x, [&](const CandidateRef& cand) {
                         if (!have_best ||
                             policy_.better(x, x_asn, cand, best_ref)) {
                           best_ref = cand;
                           have_best = true;
                         }
                       });

    // Compare the winner with the previous round's route WITHOUT interning
    // its path: hash-consing makes "current path == [sender] + learned
    // path" a head/tail id check.
    const Route& cur = current[x];
    if (!have_best) {
      // Unrouted entries are always stored as exactly Route{}, so validity
      // plus next hop cover full equality with the (invalid) winner.
      if (current_from[x] == kInvalidAsId && !cur.valid()) return;
      StagedWrite w;
      w.x = x;
      staged.push_back(w);
      return;
    }
    const bool same =
        current_from[x] == best_ref.sender && cur.ann == best_ref.ann &&
        cur.learned_from == best_ref.rel_of_sender &&
        cur.local_pref == best_ref.local_pref &&
        (best_ref.path_includes_sender
             ? cur.path == best_ref.learned_path
             : (cur.path != kEmptyPath &&
                arena.head(cur.path) == best_ref.sender_asn &&
                arena.tail(cur.path) == best_ref.learned_path));
    if (same) return;
    StagedWrite w;
    w.x = x;
    w.from = best_ref.sender;
    w.ann = best_ref.ann;
    w.parent = best_ref.learned_path;
    w.sender_asn = best_ref.sender_asn;
    w.learned_from = best_ref.rel_of_sender;
    w.local_pref = best_ref.local_pref;
    w.includes_sender = best_ref.path_includes_sender;
    w.has_route = true;
    staged.push_back(w);
  };

  std::uint32_t round = 0;
  std::uint32_t last_staged_round = 0;
  bool any_staged = false;
  for (; round < options_.max_rounds && !active_list.empty(); ++round) {
    OBS_HIST("engine.frontier", "ases", active_list.size());
    staged.clear();
    for (const AsId x : active_list) evaluate(x);

    // Commit phase: intern winners and apply the writes in active_list
    // order, deriving the next frontier as we go. Activation is
    // export-filtered: neighbor `nb` of a changed AS joins the frontier
    // only when Gao-Rexford export rules let nb see the old or the new
    // route — a stub whose provider-learned route changed exports to
    // nobody, so its change activates nobody. Skipped neighbors provably
    // have unchanged candidate sets and would stage nothing.
    active_list.clear();
    for (const StagedWrite& w : staged) {
      Route& slot = current[w.x];
      const bool old_valid = slot.valid();
      const Rel old_learned_from = slot.learned_from;
      if (w.has_route) {
        Route route;
        route.ann = w.ann;
        route.path = w.includes_sender ? w.parent
                                       : arena.prepend(w.sender_asn, w.parent);
        route.learned_from = w.learned_from;
        route.local_pref = w.local_pref;
        slot = route;
      } else {
        slot = Route{};
      }
      current_from[w.x] = w.from;
      settled[w.x] = round + 1;
      for (const topology::Neighbor& nb : graph_.neighbors(w.x)) {
        if (nb.id == origin_id || queued[nb.id]) continue;
        // nb.rel is nb's relationship as seen from w.x, which is exactly
        // the receiver side of the sender's export decision.
        if (!((old_valid && policy_.exports(old_learned_from, nb.rel)) ||
              (w.has_route && policy_.exports(w.learned_from, nb.rel)))) {
          continue;
        }
        queued[nb.id] = true;
        active_list.push_back(nb.id);
      }
    }
    OBS_COUNT("engine.routes_staged", staged.size());
    if (!staged.empty()) {
      any_staged = true;
      last_staged_round = round;
    }
    for (const AsId x : active_list) queued[x] = false;
  }

  OBS_HIST("engine.rounds", "rounds", round);
  OBS_HIST("engine.arena.nodes", "nodes", arena.node_count());
  OBS_COUNT("engine.arena.interned", arena.node_count() - nodes_before);
  OBS_COUNT("engine.arena.hits", arena.hits() - hits_before);
  outcome.converged = active_list.empty();
  // Report rounds with unfiltered-frontier semantics: the last staging
  // round, plus the trailing no-op round an unfiltered frontier would run,
  // plus the empty round that detects convergence. Export-filtered
  // activation may terminate the loop earlier (it skips evaluations that
  // provably stage nothing), but the reported count stays bit-compatible
  // with the pre-arena engine the goldens were captured from.
  if (!outcome.converged) {
    outcome.rounds = round;
  } else if (any_staged) {
    outcome.rounds = std::min(last_staged_round + 2, options_.max_rounds);
  } else {
    outcome.rounds = had_initial_frontier ? 1u : 0u;
  }
  outcome.best = std::move(current);
  outcome.next_hop = std::move(current_from);
  outcome.settled_round = std::move(settled);
  outcome.paths = std::move(arena);
  return outcome;
}

}  // namespace

Engine::Prepared Engine::prepare(const OriginSpec& origin,
                                 const Configuration& config) const {
  return Prepared(
      std::make_unique<detail::SeedTable>(build_seeds(graph_, origin, config)));
}

RoutingOutcome Engine::run(const OriginSpec& origin,
                           const Configuration& config) const {
  return run(origin, prepare(origin, config));
}

RoutingOutcome Engine::run(const OriginSpec& /*origin*/,
                           const Prepared& seeds) const {
  OBS_COUNT("engine.cold_runs", 1);
  return propagate(graph_, policy_, options_, *seeds.table_,
                   PathArena{}, std::vector<Route>(graph_.size()),
                   std::vector<AsId>(graph_.size(), kInvalidAsId),
                   std::vector<bool>(graph_.size(), true));
}

RoutingOutcome Engine::run_warm(const OriginSpec& /*origin*/,
                                const Configuration& config,
                                const Prepared& seeds_prep,
                                const Configuration& baseline_config,
                                const Prepared& baseline_seeds,
                                RoutingOutcome&& baseline) const {
  OBS_COUNT("engine.warm_runs", 1);
  const SeedTable& seeds = *seeds_prep.table_;
  const SeedTable& base_seeds = *baseline_seeds.table_;

  if (baseline.best.size() != graph_.size() ||
      baseline.next_hop.size() != graph_.size()) {
    throw std::invalid_argument(
        "warm-start baseline outcome does not match the topology");
  }
  if (!baseline.converged) {
    throw std::invalid_argument(
        "warm start requires a converged baseline outcome");
  }

  // Seed delta: an AS must be recomputed in round 0 when its own
  // announcement inputs changed. Its neighbors additionally need round-0
  // activation only when its export *filtering* changed (the no-export
  // filter a neighbor applies to routes learned from p reads p's seed
  // announcement) — a change to p's own route reaches them through the
  // ordinary changed-neighbor tracking as the delta ripples outward.
  std::vector<bool> active(graph_.size(), false);
  bool any_delta = false;
  for (AsId p = 0; p < graph_.size(); ++p) {
    if (seed_entry_equal(p, seeds, config, base_seeds, baseline_config)) {
      continue;
    }
    any_delta = true;
    active[p] = true;
    if (!export_filter_equal(p, seeds, config, base_seeds, baseline_config)) {
      for (const topology::Neighbor& n : graph_.neighbors(p)) {
        active[n.id] = true;
      }
    }
  }

  OBS_HIST("engine.warm.round0_frontier", "ases",
           std::count(active.begin(), active.end(), true));

  if (!any_delta) {
    // Identical seed tables: the baseline fixed point is the answer.
    OBS_COUNT("engine.warm.noop_hits", 1);
    RoutingOutcome outcome;
    outcome.best = std::move(baseline.best);
    outcome.next_hop = std::move(baseline.next_hop);
    outcome.settled_round.assign(graph_.size(), 0);
    outcome.paths = std::move(baseline.paths);
    outcome.rounds = 0;
    outcome.converged = true;
    return outcome;
  }

  // The baseline's arena moves in and grows in place. Along a long warm
  // chain it accumulates paths no route references any more; past
  // arena_compact_nodes, re-intern only the live ones into a fresh arena.
  std::vector<Route> current = std::move(baseline.best);
  PathArena arena = std::move(baseline.paths);
  if (arena.node_count() > options_.arena_compact_nodes) {
    OBS_COUNT("engine.arena.compactions", 1);
    PathArena fresh;
    std::vector<PathId> memo(arena.node_count() + 1, PathArena::kNoMigration);
    for (Route& r : current) {
      if (r.path != kEmptyPath) r.path = fresh.migrate(arena, r.path, memo);
    }
    arena = std::move(fresh);
  }

  return propagate(graph_, policy_, options_, seeds, std::move(arena),
                   std::move(current), std::move(baseline.next_hop), active);
}

std::vector<Engine::CandidateInfo> Engine::candidates(
    AsId as_id, const OriginSpec& /*origin*/, const Prepared& prepared,
    const RoutingOutcome& outcome) const {
  const SeedTable& seeds = *prepared.table_;
  std::vector<CandidateInfo> out;
  if (as_id == seeds.origin_id) return out;

  // Seed paths are configuration data, not outcome data; intern the one
  // this AS may hear into a throwaway arena (CandidateRef carries its own
  // arena pointer, so mixing it with outcome-arena candidates is fine).
  PathArena seed_arena;
  const PathId seed_path = seeds.has_seed[as_id]
                               ? seed_arena.intern(seeds.seed_of[as_id].path)
                               : kEmptyPath;
  for_each_candidate(graph_, policy_, seeds, outcome.best, outcome.paths,
                     seed_arena, seed_path, as_id,
                     [&](const CandidateRef& cand) {
                       out.push_back({cand.sender, cand.rel_of_sender,
                                      cand.local_pref, cand.length(),
                                      cand.ann});
                     });
  return out;
}

bool routes_equal(const RoutingOutcome& a, const RoutingOutcome& b,
                  AsId id) {
  if (a.next_hop[id] != b.next_hop[id]) return false;
  const Route& ra = a.best[id];
  const Route& rb = b.best[id];
  if (ra.ann != rb.ann || ra.learned_from != rb.learned_from ||
      ra.local_pref != rb.local_pref) {
    return false;
  }
  if (!ra.valid()) return true;
  return a.paths.equal(ra.path, b.paths, rb.path);
}

std::uint64_t outcome_checksum(const RoutingOutcome& outcome,
                               ChecksumScope scope) {
  // FNV-1a 64. The mixing order is a compatibility contract with the
  // goldens in tests/test_equivalence.cpp, captured from the pre-arena
  // engine — do not reorder.
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (AsId as = 0; as < outcome.best.size(); ++as) {
    const Route& r = outcome.best[as];
    mix(r.ann);
    mix(static_cast<std::uint64_t>(r.learned_from));
    mix(r.local_pref);
    mix(outcome.paths.length(r.path));
    for (const topology::Asn asn : outcome.paths.view(r.path)) mix(asn);
    mix(outcome.next_hop[as] == kInvalidAsId
            ? ~0ULL
            : static_cast<std::uint64_t>(outcome.next_hop[as]));
    if (scope == ChecksumScope::kFull) mix(outcome.settled_round[as]);
  }
  if (scope == ChecksumScope::kFull) mix(outcome.rounds);
  return h;
}

void forwarding_path_into(const RoutingOutcome& outcome, AsId source,
                          AsId origin, std::vector<AsId>& path) {
  path.clear();
  if (source == origin) {
    path.push_back(origin);
    return;
  }
  if (source >= outcome.best.size() || !outcome.best[source].valid()) {
    return;
  }
  AsId cursor = source;
  const std::size_t limit = outcome.best.size() + 1;
  while (true) {
    path.push_back(cursor);
    if (cursor == origin) return;
    if (path.size() > limit) {
      // Forwarding loop: inconsistent state (an engine bug or a
      // non-converged outcome); surface as an empty path like the
      // invalid-hop case below.
      path.clear();
      return;
    }
    const AsId hop = outcome.next_hop[cursor];
    if (hop == kInvalidAsId) {
      // Inconsistent forwarding state (should not happen on converged
      // outcomes); surface as an empty path.
      path.clear();
      return;
    }
    cursor = hop;
  }
}

std::vector<AsId> forwarding_path(const RoutingOutcome& outcome,
                                  AsId source, AsId origin) {
  std::vector<AsId> path;
  forwarding_path_into(outcome, source, origin, path);
  return path;
}

}  // namespace spooftrack::bgp
