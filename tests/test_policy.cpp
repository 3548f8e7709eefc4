#include "bgp/policy.hpp"

#include <gtest/gtest.h>

#include <span>
#include <unordered_set>
#include <vector>

#include "helpers.hpp"
#include "oracles.hpp"
#include "topology/metrics.hpp"
#include "util/rng.hpp"

namespace spooftrack::bgp {
namespace {

class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest()
      : graph_(test::small_topology()),
        policy_(graph_, test::clean_policy_config()) {}

  topology::AsId id(topology::Asn asn) const { return *graph_.id_of(asn); }

  topology::AsGraph graph_;
  RoutingPolicy policy_;
};

TEST_F(PolicyTest, CanonicalLocalPref) {
  const auto any = id(test::kA);
  EXPECT_EQ(policy_.local_pref(any, topology::Rel::kCustomer), kPrefCustomer);
  EXPECT_EQ(policy_.local_pref(any, topology::Rel::kPeer), kPrefPeer);
  EXPECT_EQ(policy_.local_pref(any, topology::Rel::kProvider), kPrefProvider);
}

TEST_F(PolicyTest, SwappedLocalPref) {
  AsPolicyFlags flags;
  flags.peer_provider_swapped = true;
  policy_.override_flags(id(test::kA), flags);
  EXPECT_EQ(policy_.local_pref(id(test::kA), topology::Rel::kProvider),
            kPrefPeer);
  EXPECT_EQ(policy_.local_pref(id(test::kA), topology::Rel::kPeer),
            kPrefProvider);
  EXPECT_EQ(policy_.local_pref(id(test::kA), topology::Rel::kCustomer),
            kPrefCustomer);
}

TEST_F(PolicyTest, ExportRulesAreValleyFree) {
  // Customer-learned routes go everywhere.
  for (auto to : {topology::Rel::kCustomer, topology::Rel::kPeer,
                  topology::Rel::kProvider}) {
    EXPECT_TRUE(policy_.exports(topology::Rel::kCustomer, to));
  }
  // Peer/provider-learned routes go only to customers.
  for (auto from : {topology::Rel::kPeer, topology::Rel::kProvider}) {
    EXPECT_TRUE(policy_.exports(from, topology::Rel::kCustomer));
    EXPECT_FALSE(policy_.exports(from, topology::Rel::kPeer));
    EXPECT_FALSE(policy_.exports(from, topology::Rel::kProvider));
  }
}

TEST_F(PolicyTest, LoopPreventionRejectsOwnAsn) {
  const std::vector<topology::Asn> path{test::kP1, test::kT1, 47065};
  EXPECT_FALSE(test::accepts(policy_, id(test::kT1), test::kT1,
                             topology::Rel::kCustomer, std::span(path)));
  EXPECT_TRUE(test::accepts(policy_, id(test::kT2), test::kT2,
                            topology::Rel::kPeer, std::span(path)));
}

TEST_F(PolicyTest, IgnorePoisonFlagDisablesLoopPrevention) {
  AsPolicyFlags flags;
  flags.ignores_poison = true;
  policy_.override_flags(id(test::kT1), flags);
  const std::vector<topology::Asn> path{test::kP1, test::kT1, 47065};
  EXPECT_TRUE(test::accepts(policy_, id(test::kT1), test::kT1,
                            topology::Rel::kCustomer, std::span(path)));
}

TEST_F(PolicyTest, Tier1FilterDropsPoisonedCustomerRoutes) {
  // t2 (tier-1) hears a customer route whose path contains t1 (tier-1).
  const std::vector<topology::Asn> path{test::kP2, 47065, test::kT1, 47065};
  EXPECT_FALSE(test::accepts(policy_, id(test::kT2), test::kT2,
                             topology::Rel::kCustomer, std::span(path)));
  // The same path from a peer is fine (only customer announcements are
  // suspicious).
  EXPECT_TRUE(test::accepts(policy_, id(test::kT2), test::kT2,
                            topology::Rel::kPeer, std::span(path)));
  // Non-tier-1 receivers do not filter (receiver must not be in the path,
  // or loop prevention fires first).
  EXPECT_TRUE(test::accepts(policy_, id(test::kB), test::kB,
                            topology::Rel::kCustomer, std::span(path)));
}

TEST_F(PolicyTest, Tier1FilterCanBeDisabledGlobally) {
  auto config = test::clean_policy_config();
  config.tier1_filters_poisoned = false;
  RoutingPolicy lenient(graph_, config);
  const std::vector<topology::Asn> path{test::kP2, 47065, test::kT1, 47065};
  EXPECT_TRUE(test::accepts(lenient, id(test::kT2), test::kT2,
                            topology::Rel::kCustomer, std::span(path)));
}

TEST_F(PolicyTest, CandidateRefAcceptChecksRelayedSender) {
  // A tier-1 hearing a customer candidate relayed BY another tier-1 must
  // reject it even though the tier-1 ASN is not yet in the learned path.
  PathArena arena;
  CandidateRef cand;
  cand.sender_asn = test::kT1;
  cand.rel_of_sender = topology::Rel::kCustomer;
  cand.ann = 0;
  cand.arena = &arena;
  cand.learned_path = arena.intern(std::vector<topology::Asn>{47065});
  cand.path_includes_sender = false;
  EXPECT_FALSE(policy_.accepts(id(test::kT2), test::kT2,
                               topology::Rel::kCustomer, cand));
  // Same candidate relayed by a non-tier-1 passes.
  cand.sender_asn = test::kP2;
  EXPECT_TRUE(policy_.accepts(id(test::kT2), test::kT2,
                              topology::Rel::kCustomer, cand));
}

TEST_F(PolicyTest, AcceptsMatchesPlainPathWalk) {
  // RoutingPolicy::accepts answers most candidates from Bloom signatures;
  // the oracle walks every path. Random candidates over the diagram's ASNs
  // (repeats model prepending and poisoning) must get the same verdict.
  std::unordered_set<topology::Asn> tier1_asns;
  for (topology::AsId t : topology::tier1_set(graph_)) {
    tier1_asns.insert(graph_.asn_of(t));
  }
  constexpr topology::Rel kRels[] = {topology::Rel::kCustomer,
                                     topology::Rel::kPeer,
                                     topology::Rel::kProvider};
  const std::uint64_t n = graph_.size();
  util::Rng rng{2019};
  PathArena arena;
  constexpr std::size_t kDraws = 20000;
  std::size_t accepted = 0;
  for (std::size_t draw = 0; draw < kDraws; ++draw) {
    const auto receiver = static_cast<topology::AsId>(rng.next_below(n));
    AsPolicyFlags flags = policy_.flags(receiver);
    flags.ignores_poison = rng.chance(0.3);
    policy_.override_flags(receiver, flags);

    std::vector<topology::Asn> path(1 + rng.next_below(6));
    for (topology::Asn& asn : path) {
      asn = graph_.asn_of(static_cast<topology::AsId>(rng.next_below(n)));
    }
    CandidateRef cand;
    cand.rel_of_sender = kRels[rng.next_below(3)];
    cand.path_includes_sender = rng.chance(0.5);
    // A relayed sender is any other AS; a seed's sender heads its path.
    cand.sender_asn =
        cand.path_includes_sender
            ? path.front()
            : graph_.asn_of(static_cast<topology::AsId>(
                  (receiver + 1 + rng.next_below(n - 1)) % n));
    cand.arena = &arena;
    cand.learned_path = arena.intern(path);

    const topology::Asn receiver_asn = graph_.asn_of(receiver);
    const bool verdict =
        policy_.accepts(receiver, receiver_asn, cand.rel_of_sender, cand);
    ASSERT_EQ(verdict,
              test::legacy_accepts(policy_, tier1_asns, receiver,
                                   receiver_asn, cand.rel_of_sender, cand))
        << "draw " << draw;
    accepted += verdict;
  }
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(kDraws - accepted, 1000u);
}

TEST_F(PolicyTest, BetterPrefersLocalPrefThenLength) {
  const auto receiver = id(test::kD);
  PathArena arena;
  const std::vector<topology::Asn> short_vec{test::kP1, 47065};
  const std::vector<topology::Asn> long_vec{test::kP2, test::kT2, test::kT1,
                                            47065};

  CandidateRef customer_long;
  customer_long.sender_asn = test::kP2;
  customer_long.local_pref = kPrefCustomer;
  customer_long.arena = &arena;
  customer_long.learned_path = arena.intern(long_vec);
  customer_long.path_includes_sender = true;

  CandidateRef provider_short;
  provider_short.sender_asn = test::kP1;
  provider_short.local_pref = kPrefProvider;
  provider_short.arena = &arena;
  provider_short.learned_path = arena.intern(short_vec);
  provider_short.path_includes_sender = true;

  EXPECT_TRUE(policy_.better(receiver, test::kD, customer_long,
                             provider_short));
  EXPECT_FALSE(policy_.better(receiver, test::kD, provider_short,
                              customer_long));

  // Same pref: shorter wins.
  CandidateRef provider_long = customer_long;
  provider_long.local_pref = kPrefProvider;
  EXPECT_TRUE(policy_.better(receiver, test::kD, provider_short,
                             provider_long));
}

TEST_F(PolicyTest, TieScoreIsStable) {
  EXPECT_EQ(policy_.tie_score(1, 2), policy_.tie_score(1, 2));
  EXPECT_NE(policy_.tie_score(1, 2), policy_.tie_score(2, 1));
}

TEST_F(PolicyTest, RandomFlagFractionsRoughlyRespected) {
  // Large synthetic population; fractions should land near their targets.
  topology::AsGraph g;
  for (topology::Asn asn = 1; asn <= 4000; ++asn) g.add_p2c(900000, asn);
  g.freeze();
  PolicyConfig config;
  config.seed = 99;
  config.ignore_poison_fraction = 0.10;
  config.shortest_violator_fraction = 0.20;
  config.peer_provider_swap_fraction = 0.05;
  RoutingPolicy policy(g, config);
  std::size_t ignore = 0, shortest = 0, swapped = 0;
  for (topology::AsId id = 0; id < g.size(); ++id) {
    ignore += policy.flags(id).ignores_poison;
    shortest += policy.flags(id).shortest_violator;
    swapped += policy.flags(id).peer_provider_swapped;
  }
  const double n = static_cast<double>(g.size());
  EXPECT_NEAR(ignore / n, 0.10, 0.02);
  EXPECT_NEAR(shortest / n, 0.20, 0.02);
  EXPECT_NEAR(swapped / n, 0.05, 0.02);
}

}  // namespace
}  // namespace spooftrack::bgp
