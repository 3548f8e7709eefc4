// Warm-start incremental propagation: the equivalence guarantee
// (Engine::run_warm produces bit-identical best routes, next hops and
// announcement ids to a cold Engine::run) exercised over randomized
// configuration pairs on a >= 1000-AS synthetic topology, plus the
// campaign plan and chain stepper built on top of it (memoization,
// similarity ordering, warm-start chains).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "bgp/catchment.hpp"
#include "bgp/engine.hpp"
#include "bgp/policy.hpp"
#include "core/campaign.hpp"
#include "core/config_gen.hpp"
#include "helpers.hpp"
#include "obs/obs.hpp"
#include "topology/synth.hpp"
#include "util/rng.hpp"

namespace spooftrack {
namespace {

constexpr topology::Asn kOriginAsn = 47065;
constexpr std::uint32_t kLinkCount = 7;

/// A >= 1000-AS synthetic Internet with a 7-link origin, shared across the
/// tests in this file (propagation state lives on the stack, so sharing
/// the immutable graph/policy/engine is safe).
struct WarmWorld {
  topology::SynthTopology topo;
  bgp::OriginSpec origin;
  bgp::RoutingPolicy policy;
  bgp::Engine engine;

  WarmWorld()
      : topo(make_topology()),
        origin(make_origin()),
        policy(topo.graph, make_policy()),
        engine(topo.graph, policy) {}

  static topology::SynthTopology make_topology() {
    topology::SynthConfig synth;
    synth.seed = 20260805;
    synth.tier1_count = 8;
    synth.transit_count = 120;
    synth.stub_count = 900;  // total >= 1028 ASes
    synth.origin_asn = kOriginAsn;
    for (std::uint32_t l = 0; l < kLinkCount; ++l) {
      synth.reserved_transit_asns.push_back(60000 + l);
    }
    return topology::synthesize(synth);
  }

  static bgp::OriginSpec make_origin() {
    bgp::OriginSpec origin;
    origin.asn = kOriginAsn;
    for (std::uint32_t l = 0; l < kLinkCount; ++l) {
      origin.links.push_back({l, "pop-" + std::to_string(l), 60000 + l});
    }
    return origin;
  }

  static bgp::PolicyConfig make_policy() {
    // Default fractions: keep the Figure 9 policy violators in play so the
    // equivalence test covers non-canonical preference orders too.
    return bgp::PolicyConfig{};
  }
};

const WarmWorld& world() {
  static const WarmWorld w;
  return w;
}

/// A random but valid configuration: random link subset, prepends, poisons
/// and no-export targets (announcement ids permute as the subset changes,
/// stressing the warm-start ann-id remapping).
bgp::Configuration random_config(util::Rng& rng) {
  const WarmWorld& w = world();
  const auto random_target = [&]() -> topology::Asn {
    for (;;) {
      const auto id = static_cast<topology::AsId>(
          rng.next_below(w.topo.graph.size()));
      const topology::Asn asn = w.topo.graph.asn_of(id);
      if (asn != kOriginAsn) return asn;
    }
  };

  bgp::Configuration config;
  config.label = "random";
  for (std::uint32_t l = 0; l < kLinkCount; ++l) {
    if (rng.uniform01() < 0.35) continue;  // link withdrawn
    bgp::AnnouncementSpec spec{l, 0, {}, {}};
    if (rng.uniform01() < 0.3) {
      spec.prepend = static_cast<std::uint32_t>(rng.next_below(5));
    }
    if (rng.uniform01() < 0.3) {
      const std::size_t poisons = 1 + rng.next_below(2);
      for (std::size_t p = 0; p < poisons; ++p) {
        spec.poisoned.push_back(random_target());
      }
    }
    if (rng.uniform01() < 0.3) {
      const std::size_t targets = 1 + rng.next_below(3);
      for (std::size_t t = 0; t < targets; ++t) {
        spec.no_export_to.push_back(random_target());
      }
    }
    config.announcements.push_back(std::move(spec));
  }
  if (config.announcements.empty()) {
    config.announcements.push_back(
        {static_cast<bgp::LinkId>(rng.next_below(kLinkCount)), 0, {}, {}});
  }
  return config;
}

/// Counts ASes whose (best route, next hop) differ between two outcomes.
/// Route equality includes the announcement id, AS-path, local-pref and
/// learned-from relationship — compared by content via routes_equal, since
/// the outcomes come from different propagations and hence different
/// arenas.
std::size_t mismatch_count(const bgp::RoutingOutcome& a,
                           const bgp::RoutingOutcome& b) {
  EXPECT_EQ(a.best.size(), b.best.size());
  EXPECT_EQ(a.next_hop.size(), b.next_hop.size());
  std::size_t mismatches = 0;
  for (topology::AsId as = 0; as < a.best.size(); ++as) {
    if (!bgp::routes_equal(a, b, as)) ++mismatches;
  }
  return mismatches;
}

/// engine.arena.compactions counted so far in this process (0 when OBS is
/// compiled out).
std::uint64_t compactions() {
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const obs::MetricSnapshot* m = snap.find("engine.arena.compactions");
  return m == nullptr ? std::uint64_t{0} : m->value;
}

TEST(WarmStart, TopologyIsLargeEnough) {
  ASSERT_GE(world().topo.graph.size(), 1000u);
}

TEST(WarmStart, EquivalentToColdOverRandomizedPairs) {
  const WarmWorld& w = world();
  util::Rng rng{0xC0FFEE};

  // 51 consecutive pairs over 52 randomized configurations: warm-start
  // config k+1 from config k's cold outcome and compare against config
  // k+1's own cold outcome.
  constexpr std::size_t kConfigs = 52;
  std::vector<bgp::Configuration> configs;
  configs.reserve(kConfigs);
  for (std::size_t i = 0; i < kConfigs; ++i) {
    configs.push_back(random_config(rng));
  }

  bgp::RoutingOutcome baseline = w.engine.run(w.origin, configs[0]);
  ASSERT_TRUE(baseline.converged);
  std::size_t warm_total_rounds = 0;
  std::size_t cold_total_rounds = 0;
  for (std::size_t i = 1; i < kConfigs; ++i) {
    const bgp::RoutingOutcome cold = w.engine.run(w.origin, configs[i]);
    const bgp::RoutingOutcome warm =
        test::warm_run(w.engine, w.origin, configs[i], configs[i - 1],
                       baseline);
    ASSERT_TRUE(cold.converged);
    ASSERT_TRUE(warm.converged);
    EXPECT_EQ(mismatch_count(cold, warm), 0u)
        << "pair " << i - 1 << " -> " << i;
    warm_total_rounds += warm.rounds;
    cold_total_rounds += cold.rounds;
    baseline = cold;
  }
  // The whole point: the warm ripples are much shallower than cold
  // re-convergence across the pair set.
  EXPECT_LT(warm_total_rounds, cold_total_rounds);
}

TEST(WarmStart, ChainedWarmStartsStayOnTheFixedPoint) {
  // Warm-from-warm must not drift: compare a fully chained warm run of 12
  // configurations against per-config cold runs.
  const WarmWorld& w = world();
  util::Rng rng{0xBEEF};
  bgp::RoutingOutcome prev;
  bgp::Configuration prev_config;
  for (std::size_t i = 0; i < 12; ++i) {
    const bgp::Configuration config = random_config(rng);
    const bgp::RoutingOutcome warm =
        i == 0 ? w.engine.run(w.origin, config)
               : test::warm_run(w.engine, w.origin, config, prev_config, prev);
    const bgp::RoutingOutcome cold = w.engine.run(w.origin, config);
    EXPECT_EQ(mismatch_count(cold, warm), 0u) << "chain step " << i;
    prev = warm;
    prev_config = config;
  }
}

TEST(WarmStart, CompactingEveryWarmStartStaysOnTheFixedPoint) {
  // arena_compact_nodes = 1 makes every warm start re-intern its
  // baseline's live paths into a fresh arena (PathArena::migrate) instead
  // of extending the arena it was handed. Routes must not notice.
  const WarmWorld& w = world();
  bgp::EngineOptions options;
  options.arena_compact_nodes = 1;
  const bgp::Engine compacting(w.topo.graph, w.policy, options);
  const std::uint64_t compactions_before = compactions();

  util::Rng rng{0xC0DE};
  bgp::RoutingOutcome prev;
  bgp::Configuration prev_config;
  for (std::size_t i = 0; i < 12; ++i) {
    const bgp::Configuration config = random_config(rng);
    bgp::RoutingOutcome warm =
        i == 0 ? compacting.run(w.origin, config)
               : test::warm_run(compacting, w.origin, config, prev_config,
                                std::move(prev));
    ASSERT_TRUE(warm.converged) << "chain step " << i;
    EXPECT_EQ(bgp::outcome_checksum(warm, bgp::ChecksumScope::kRoutes),
              bgp::outcome_checksum(w.engine.run(w.origin, config),
                                    bgp::ChecksumScope::kRoutes))
        << "chain step " << i;
    prev = std::move(warm);
    prev_config = config;
  }
#if SPOOFTRACK_OBS_ENABLED
  EXPECT_GT(compactions() - compactions_before, 0u);
#else
  (void)compactions_before;
#endif
}

TEST(WarmStart, RunFromCopyLeavesOriginalUnchanged) {
  // A warm start consumes its baseline; a caller that keeps its outcome
  // hands in a copy. The copy owns its own arena, so the warm run extends
  // it in place (no compaction) and the original reads as before.
  const WarmWorld& w = world();
  util::Rng rng{0xC0B1};
  const bgp::Configuration a = random_config(rng);
  const bgp::Configuration b = random_config(rng);
  ASSERT_GT(core::seed_distance(a, b), 0u);
  const bgp::RoutingOutcome original = w.engine.run(w.origin, a);
  const std::uint64_t checksum =
      bgp::outcome_checksum(original, bgp::ChecksumScope::kFull);
  const std::size_t nodes = original.paths.node_count();
  const std::uint64_t compactions_before = compactions();

  const bgp::RoutingOutcome warm =
      test::warm_run(w.engine, w.origin, b, a, original);
  EXPECT_EQ(mismatch_count(w.engine.run(w.origin, b), warm), 0u);
  EXPECT_EQ(bgp::outcome_checksum(original, bgp::ChecksumScope::kFull),
            checksum);
  EXPECT_EQ(original.paths.node_count(), nodes);
#if SPOOFTRACK_OBS_ENABLED
  EXPECT_EQ(compactions() - compactions_before, 0u);
#else
  (void)compactions_before;
#endif
}

TEST(WarmStart, IdenticalSeedTableShortCircuits) {
  const WarmWorld& w = world();
  util::Rng rng{0xABBA};
  const bgp::Configuration config = random_config(rng);
  const bgp::RoutingOutcome cold = w.engine.run(w.origin, config);

  bgp::Configuration relabeled = config;
  relabeled.label = "same announcements, different label";
  const bgp::RoutingOutcome warm =
      test::warm_run(w.engine, w.origin, relabeled, config, cold);
  EXPECT_EQ(warm.rounds, 0u);
  EXPECT_TRUE(warm.converged);
  EXPECT_EQ(mismatch_count(cold, warm), 0u);
}

TEST(WarmStart, NoExportOnlyDeltaRipples) {
  // The subtle delta: the provider's own best route does not change when
  // an announcement gains a no-export target, but its neighbors' candidate
  // filtering does. The warm start must activate them.
  const WarmWorld& w = world();
  bgp::Configuration base;
  for (std::uint32_t l = 0; l < kLinkCount; ++l) {
    base.announcements.push_back({l, 0, {}, {}});
  }
  const bgp::RoutingOutcome base_outcome = w.engine.run(w.origin, base);

  // Block a neighbor that actually routes via link 0's provider on the
  // link-0 announcement, so withholding the seed is guaranteed to move it.
  const auto provider_id = *w.topo.graph.id_of(w.origin.links[0].provider);
  topology::Asn blocked = 0;
  for (const topology::Neighbor& n : w.topo.graph.neighbors(provider_id)) {
    const topology::Asn asn = w.topo.graph.asn_of(n.id);
    if (asn != kOriginAsn && base_outcome.next_hop[n.id] == provider_id &&
        base_outcome.best[n.id].valid() && base_outcome.best[n.id].ann == 0) {
      blocked = asn;
      break;
    }
  }
  ASSERT_NE(blocked, 0u);

  bgp::Configuration steered = base;
  steered.announcements[0].no_export_to.push_back(blocked);
  const bgp::RoutingOutcome cold = w.engine.run(w.origin, steered);
  const bgp::RoutingOutcome warm =
      test::warm_run(w.engine, w.origin, steered, base, base_outcome);
  EXPECT_EQ(mismatch_count(cold, warm), 0u);
  // The steering had an effect (otherwise the test is vacuous).
  EXPECT_GT(mismatch_count(base_outcome, cold), 0u);
}

TEST(WarmStart, RejectsBadBaselines) {
  const WarmWorld& w = world();
  util::Rng rng{0xD1CE};
  const bgp::Configuration a = random_config(rng);
  const bgp::Configuration b = random_config(rng);
  bgp::RoutingOutcome outcome = w.engine.run(w.origin, a);

  bgp::RoutingOutcome unconverged = outcome;
  unconverged.converged = false;
  EXPECT_THROW(test::warm_run(w.engine, w.origin, b, a, unconverged),
               std::invalid_argument);

  bgp::RoutingOutcome wrong_size = outcome;
  wrong_size.best.pop_back();
  EXPECT_THROW(test::warm_run(w.engine, w.origin, b, a, wrong_size),
               std::invalid_argument);
}

TEST(SeedDistance, CountsChangedLinks) {
  bgp::Configuration a;
  a.announcements.push_back({0, 0, {}, {}});
  a.announcements.push_back({1, 0, {}, {}});

  EXPECT_EQ(core::seed_distance(a, a), 0u);

  bgp::Configuration relabeled = a;
  relabeled.label = "other";
  EXPECT_EQ(core::seed_distance(a, relabeled), 0u);

  bgp::Configuration prepended = a;
  prepended.announcements[1].prepend = 4;
  EXPECT_EQ(core::seed_distance(a, prepended), 1u);

  bgp::Configuration withdrawn;
  withdrawn.announcements.push_back({0, 0, {}, {}});
  EXPECT_EQ(core::seed_distance(a, withdrawn), 1u);

  // Same specs, permuted announcement ids: both links' seeds change.
  bgp::Configuration permuted;
  permuted.announcements.push_back({1, 0, {}, {}});
  permuted.announcements.push_back({0, 0, {}, {}});
  EXPECT_EQ(core::seed_distance(a, permuted), 2u);
}

TEST(OrderBySimilarity, ProducesAPermutation) {
  util::Rng rng{0xFACE};
  std::vector<bgp::Configuration> configs;
  for (std::size_t i = 0; i < 40; ++i) configs.push_back(random_config(rng));
  const auto order = core::order_by_similarity(configs);
  ASSERT_EQ(order.size(), configs.size());
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_EQ(order.front(), 0u);
}

/// Walks every chain of `campaign` to completion with ChainStepper and
/// returns the outcomes in input order plus the summed chain stats. Each
/// copy owns a copy of its step's arena, so the chain's own arena keeps
/// growing in place.
std::vector<bgp::RoutingOutcome> step_campaign(
    const WarmWorld& w, const std::vector<bgp::Configuration>& plan,
    const core::CampaignPlan& campaign,
    core::CampaignRunStats* stats = nullptr) {
  std::vector<bgp::RoutingOutcome> outcomes(plan.size());
  for (std::size_t c = 0; c < campaign.chains(); ++c) {
    core::ChainStepper stepper(w.engine, w.origin, plan, campaign, c);
    while (!stepper.done()) {
      const std::size_t u = stepper.next_slot();
      const bgp::RoutingOutcome& outcome = stepper.step();
      for (const std::size_t i : campaign.fanout[u]) outcomes[i] = outcome;
    }
    if (stats != nullptr) {
      stats->cold_runs += stepper.stats().cold_runs;
      stats->warm_runs += stepper.stats().warm_runs;
      stats->total_rounds += stepper.stats().total_rounds;
    }
  }
  return outcomes;
}

TEST(PropagateCampaign, MatchesColdPropagation) {
  const WarmWorld& w = world();
  util::Rng rng{0x5EED};
  std::vector<bgp::Configuration> plan;
  for (std::size_t i = 0; i < 30; ++i) plan.push_back(random_config(rng));
  // Inject duplicates to exercise memoization.
  plan.push_back(plan[3]);
  plan.push_back(plan[7]);

  const core::CampaignPlan campaign = core::plan_campaign(plan);
  core::CampaignRunStats warm_stats;
  const auto warm = step_campaign(w, plan, campaign, &warm_stats);

  // Cold baseline: one full propagation per configuration.
  std::uint64_t cold_rounds = 0;
  ASSERT_EQ(warm.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const bgp::RoutingOutcome cold = w.engine.run(w.origin, plan[i]);
    cold_rounds += cold.rounds;
    EXPECT_EQ(mismatch_count(cold, warm[i]), 0u) << "config " << i;
    const auto warm_catchments = bgp::extract_catchments(warm[i], plan[i]);
    const auto cold_catchments = bgp::extract_catchments(cold, plan[i]);
    EXPECT_TRUE(warm_catchments == cold_catchments) << "config " << i;
  }

  EXPECT_EQ(campaign.unique.size(), 30u);
  EXPECT_EQ(campaign.fanout[3].size(), 2u);
  EXPECT_EQ(campaign.fanout[7].size(), 2u);
  EXPECT_TRUE(campaign.ordered);
  EXPECT_GT(warm_stats.warm_runs, 0u);
  EXPECT_EQ(warm_stats.warm_runs + warm_stats.cold_runs, 30u);
  EXPECT_EQ(warm_stats.cold_runs, campaign.chains());
  // Warm chains must do strictly less Jacobi work than cold-per-config.
  EXPECT_LT(warm_stats.total_rounds, cold_rounds);
}

TEST(PropagateCampaign, SingleWorkerChainIsDeterministic) {
  const WarmWorld& w = world();
  util::Rng rng{0x0DDB};
  std::vector<bgp::Configuration> plan;
  for (std::size_t i = 0; i < 10; ++i) plan.push_back(random_config(rng));

  // One chain walking the whole similarity order must reproduce every
  // partition of that order into contiguous chains.
  const core::CampaignPlan campaign = core::plan_campaign(plan);
  std::vector<std::size_t> order;
  for (const auto& steps : campaign.chain_steps) {
    order.insert(order.end(), steps.begin(), steps.end());
  }
  core::CampaignPlan single = campaign;
  single.chain_steps = {order};
  const auto a = step_campaign(w, plan, single);
  for (const std::size_t chains : {2u, 3u, 5u}) {
    core::CampaignPlan split = campaign;
    split.chain_steps.assign(chains, {});
    for (std::size_t c = 0; c < chains; ++c) {
      split.chain_steps[c].assign(order.begin() + c * order.size() / chains,
                                  order.begin() +
                                      (c + 1) * order.size() / chains);
    }
    const auto b = step_campaign(w, plan, split);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      EXPECT_EQ(mismatch_count(a[i], b[i]), 0u)
          << "config " << i << ", " << chains << " chains";
    }
  }
}

TEST(PropagateCampaign, PropagatesEngineErrors) {
  const WarmWorld& w = world();
  bgp::Configuration bad;
  bad.announcements.push_back({kLinkCount + 3, 0, {}, {}});  // no such link
  std::vector<bgp::Configuration> plan{bad};
  const core::CampaignPlan campaign = core::plan_campaign(plan);
  ASSERT_EQ(campaign.chains(), 1u);
  core::ChainStepper stepper(w.engine, w.origin, plan, campaign, 0);
  EXPECT_THROW(stepper.step(), std::invalid_argument);
}

TEST(PropagateCampaign, StepAfterUnconvergedOutcomeRunsCold) {
  // One Jacobi round never reaches a fixed point, so no step may serve as
  // a warm baseline: every step after the head must fall back to a cold
  // run (a warm start from an unconverged baseline throws).
  const WarmWorld& w = world();
  bgp::EngineOptions options;
  options.max_rounds = 1;
  const bgp::Engine engine(w.topo.graph, w.policy, options);
  util::Rng rng{0xC01D};
  std::vector<bgp::Configuration> plan;
  for (std::size_t i = 0; i < 4; ++i) plan.push_back(random_config(rng));
  core::CampaignPlan campaign = core::plan_campaign(plan);
  ASSERT_EQ(campaign.unique.size(), plan.size());
  std::vector<std::size_t> order;
  for (const auto& steps : campaign.chain_steps) {
    order.insert(order.end(), steps.begin(), steps.end());
  }
  campaign.chain_steps = {order};

  core::ChainStepper stepper(engine, w.origin, plan, campaign, 0);
  std::size_t steps = 0;
  while (!stepper.done()) {
    const bgp::Configuration& config =
        plan[campaign.unique[stepper.next_slot()]];
    const bgp::RoutingOutcome& outcome = stepper.step();
    ++steps;
    EXPECT_FALSE(outcome.converged) << "step " << steps;
    EXPECT_EQ(bgp::outcome_checksum(outcome, bgp::ChecksumScope::kFull),
              bgp::outcome_checksum(engine.run(w.origin, config),
                                    bgp::ChecksumScope::kFull))
        << "step " << steps;
  }
  EXPECT_EQ(steps, plan.size());
  EXPECT_EQ(stepper.stats().cold_runs, steps);
  EXPECT_EQ(stepper.stats().warm_runs, 0u);
}

}  // namespace
}  // namespace spooftrack
