// Unit tests of the §IV-b traceroute repair pipeline on hand-crafted traces.
#include "measure/repair.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <span>

#include "helpers.hpp"

namespace spooftrack::measure {
namespace {

class RepairTest : public ::testing::Test {
 protected:
  RepairTest()
      : graph_(test::small_topology()),
        plan_(graph_),
        ixps_(graph_, 1, 0.0, 5),
        ip2as_(Ip2AsMap::from_plan(graph_, plan_, test::kOrigin, {0.0, 1})),
        repair_(graph_, ip2as_, ixps_, test::kOrigin) {}

  topology::AsId id(topology::Asn asn) const { return *graph_.id_of(asn); }

  netcore::Ipv4Addr router(topology::Asn asn, std::uint32_t k = 0) const {
    return plan_.router_address(id(asn), k);
  }

  Traceroute trace_of(topology::Asn probe,
                      std::vector<std::optional<netcore::Ipv4Addr>> hops,
                      bool reached = true) const {
    Traceroute t;
    t.probe = id(probe);
    for (auto& h : hops) t.hops.push_back({h});
    t.reached = reached;
    return t;
  }

  topology::AsGraph graph_;
  AddressPlan plan_;
  IxpTable ixps_;
  Ip2AsMap ip2as_;
  PathRepair repair_;
};

TEST_F(RepairTest, CleanTraceMapsDirectly) {
  const auto t = trace_of(
      test::kC, {router(test::kC), router(test::kT1), router(test::kP1),
                 AddressPlan::experiment_target()});
  const auto path = test::repair(repair_, std::span(&t, 1), {})[0];
  EXPECT_TRUE(path.complete);
  EXPECT_EQ(path.path, (std::vector<topology::Asn>{test::kC, test::kT1,
                                                   test::kP1, test::kOrigin}));
}

TEST_F(RepairTest, ConsecutiveSameAsHopsCollapse) {
  const auto t = trace_of(
      test::kC, {router(test::kC), router(test::kT1, 0), router(test::kT1, 1),
                 router(test::kP1), AddressPlan::experiment_target()});
  const auto path = test::repair(repair_, std::span(&t, 1), {})[0];
  EXPECT_EQ(path.path, (std::vector<topology::Asn>{test::kC, test::kT1,
                                                   test::kP1, test::kOrigin}));
}

TEST_F(RepairTest, UnresponsiveGapWithSameAsSidesBridged) {
  const auto t = trace_of(
      test::kC, {router(test::kC), router(test::kT1, 0), std::nullopt,
                 router(test::kT1, 1), router(test::kP1),
                 AddressPlan::experiment_target()});
  const auto path = test::repair(repair_, std::span(&t, 1), {})[0];
  EXPECT_TRUE(path.complete);
  EXPECT_EQ(path.path, (std::vector<topology::Asn>{test::kC, test::kT1,
                                                   test::kP1, test::kOrigin}));
}

TEST_F(RepairTest, Step2SubstitutesFromOtherTraces) {
  // Trace A is complete; trace B has an unresponsive run between the same
  // surrounding addresses, and must inherit A's interior.
  const auto complete = trace_of(
      test::kC, {router(test::kC), router(test::kT1), router(test::kP1),
                 AddressPlan::experiment_target()});
  const auto gappy = trace_of(
      test::kC, {router(test::kC), std::nullopt, std::nullopt,
                 AddressPlan::experiment_target()});
  const std::vector<Traceroute> batch = {complete, gappy};
  const auto repaired = test::repair(repair_, batch, {});
  ASSERT_EQ(repaired.size(), 2u);
  EXPECT_EQ(repaired[1].path, repaired[0].path);
  EXPECT_TRUE(repaired[1].complete);
}

TEST_F(RepairTest, Step2RefusesConflictingInteriors) {
  // Two different interiors between the same endpoints: no substitution.
  const auto via_t1 = trace_of(
      test::kC, {router(test::kC), router(test::kT1),
                 AddressPlan::experiment_target()});
  const auto via_t2 = trace_of(
      test::kC, {router(test::kC), router(test::kT2),
                 AddressPlan::experiment_target()});
  const auto gappy = trace_of(
      test::kC,
      {router(test::kC), std::nullopt, AddressPlan::experiment_target()});
  const std::vector<Traceroute> batch = {via_t1, via_t2, gappy};
  const auto repaired = test::repair(repair_, batch, {});
  // The gap cannot be bridged by step 2; sides differ (kC vs origin), and
  // no feeds were given, so the unknown hop is dropped.
  EXPECT_EQ(repaired[2].path,
            (std::vector<topology::Asn>{test::kC, test::kOrigin}));
}

TEST_F(RepairTest, Step4FillsAsGapsFromFeeds) {
  // Gap between c and p1 (different ASes): the feed path c t1 p1 origin
  // supplies the unique interior t1.
  FeedEntry feed;
  feed.peer = id(test::kC);
  feed.as_path = {test::kC, test::kT1, test::kP1, test::kOrigin};
  const auto gappy = trace_of(
      test::kC, {router(test::kC), std::nullopt, router(test::kP1),
                 AddressPlan::experiment_target()});
  const std::vector<Traceroute> batch = {gappy};
  const std::vector<FeedEntry> feeds = {feed};
  const auto repaired = test::repair(repair_, batch, feeds);
  EXPECT_EQ(repaired[0].path,
            (std::vector<topology::Asn>{test::kC, test::kT1, test::kP1,
                                        test::kOrigin}));
}

TEST_F(RepairTest, OriginSandwichNeverRecordedAsFeedInterior) {
  // A poisoned announcement puts the origin mid-path in feed exports:
  // c t1 ORIGIN t2 p1 ORIGIN. Interiors crossing the origin are encoding
  // artifacts, so the feed index must never bridge a gap through them —
  // even though (t1, t2) and (c, p1) have unique "interiors" in this feed.
  FeedEntry feed;
  feed.peer = id(test::kC);
  feed.as_path = {test::kC, test::kT1, test::kOrigin,
                  test::kT2, test::kP1, test::kOrigin};
  const std::vector<FeedEntry> feeds = {feed};

  // Gap between c and t2: the only feed route between them crosses the
  // origin, so it must stay unbridged (unknown hop dropped, step 5).
  const auto gappy = trace_of(
      test::kC, {router(test::kC), std::nullopt, router(test::kT2),
                 AddressPlan::experiment_target()});
  const auto repaired =
      test::repair(repair_, std::vector<Traceroute>{gappy}, feeds);
  ASSERT_EQ(repaired.size(), 1u);
  EXPECT_EQ(repaired[0].path,
            (std::vector<topology::Asn>{test::kC, test::kT2, test::kOrigin}));
  // The origin never materializes mid-path from the sandwich.
  for (std::size_t h = 0; h + 1 < repaired[0].path.size(); ++h) {
    EXPECT_NE(repaired[0].path[h], test::kOrigin);
  }
}

TEST_F(RepairTest, FeedInteriorsBeforeTheOriginStillBridge) {
  // The sandwich break must not be overeager: the pair (c -> origin) with
  // interior {t1} terminates at the origin without crossing it, and stays
  // usable for step 4.
  FeedEntry feed;
  feed.peer = id(test::kC);
  feed.as_path = {test::kC, test::kT1, test::kOrigin,
                  test::kT2, test::kP1, test::kOrigin};
  const std::vector<FeedEntry> feeds = {feed};
  const auto gappy = trace_of(
      test::kC, {router(test::kC), std::nullopt,
                 AddressPlan::experiment_target()});
  const auto repaired =
      test::repair(repair_, std::vector<Traceroute>{gappy}, feeds);
  ASSERT_EQ(repaired.size(), 1u);
  EXPECT_TRUE(repaired[0].complete);
  EXPECT_EQ(repaired[0].path,
            (std::vector<topology::Asn>{test::kC, test::kT1, test::kOrigin}));
}

TEST_F(RepairTest, ScratchReuseAcrossBatchesMatchesFreshScratch) {
  const auto complete = trace_of(
      test::kC, {router(test::kC), router(test::kT1), router(test::kP1),
                 AddressPlan::experiment_target()});
  const auto gappy = trace_of(
      test::kC, {router(test::kC), std::nullopt, std::nullopt,
                 AddressPlan::experiment_target()});
  const std::vector<Traceroute> batch_a = {complete, gappy};
  const std::vector<Traceroute> batch_b = {gappy};

  PathRepair::Scratch scratch;
  std::vector<AsLevelPath> out;
  repair_.repair(batch_a, {}, scratch, out);
  EXPECT_EQ(out, test::repair(repair_, batch_a, {}));
  // Batch B must not see batch A's index: the gap has no donor now, so
  // the interior hops are dropped instead of inherited from batch A.
  repair_.repair(batch_b, {}, scratch, out);
  EXPECT_EQ(out, test::repair(repair_, batch_b, {}));
  EXPECT_EQ(out[0].path,
            (std::vector<topology::Asn>{test::kC, test::kOrigin}));
}

TEST_F(RepairTest, UnknownHopsDroppedWhenUnresolvable) {
  const auto t = trace_of(
      test::kC, {router(test::kC), std::nullopt, router(test::kP1),
                 AddressPlan::experiment_target()});
  const auto path = test::repair(repair_, std::span(&t, 1), {})[0];
  EXPECT_EQ(path.path, (std::vector<topology::Asn>{test::kC, test::kP1,
                                                   test::kOrigin}));
}

TEST_F(RepairTest, IxpHopsAreDropped) {
  IxpTable all_ixp(graph_, 1, 1.0, 5);
  PathRepair repair(graph_, ip2as_, all_ixp, test::kOrigin);
  const auto t = trace_of(
      test::kC, {router(test::kC), all_ixp.member_address(0, id(test::kT1)),
                 router(test::kT1), router(test::kP1),
                 AddressPlan::experiment_target()});
  const auto path = test::repair(repair, std::span(&t, 1), {})[0];
  EXPECT_EQ(path.path, (std::vector<topology::Asn>{test::kC, test::kT1,
                                                   test::kP1, test::kOrigin}));
}

TEST_F(RepairTest, IncompleteTraceFlagged) {
  const auto t = trace_of(test::kC, {router(test::kC), router(test::kT1)},
                          false);
  const auto path = test::repair(repair_, std::span(&t, 1), {})[0];
  EXPECT_FALSE(path.complete);
  EXPECT_EQ(path.path.back(), test::kT1);
}

TEST_F(RepairTest, ProbeAsAlwaysAnchorsThePath) {
  // Even when the probe's own hops are unresponsive, the path starts at
  // the probe AS (known from probe metadata).
  const auto t = trace_of(
      test::kC, {std::nullopt, router(test::kP1),
                 AddressPlan::experiment_target()});
  const auto path = test::repair(repair_, std::span(&t, 1), {})[0];
  ASSERT_FALSE(path.path.empty());
  EXPECT_EQ(path.path.front(), test::kC);
}

TEST_F(RepairTest, EmptyTraceYieldsProbeOnly) {
  Traceroute t;
  t.probe = id(test::kA);
  const auto path = test::repair(repair_, std::span(&t, 1), {})[0];
  EXPECT_EQ(path.path, (std::vector<topology::Asn>{test::kA}));
  EXPECT_FALSE(path.complete);
}

TEST(RepairScratch, ReusedAcrossRepairersAtOneAddress) {
  // Each round rebuilds the ip2as map, the IXP table and the repairer in
  // the storage of the round before, so all three sit at the old
  // addresses, but the maps now answer differently: the first round maps
  // every AS prefix and puts the c-t1 hop on an IXP LAN, the second maps
  // none and has no IXPs. A scratch carried over from the first repairer
  // must not serve the second the first one's hop classes.
  const topology::AsGraph graph = test::small_topology();
  const AddressPlan plan(graph);
  const topology::AsId c = *graph.id_of(test::kC);
  const topology::AsId t1 = *graph.id_of(test::kT1);
  const topology::AsId p1 = *graph.id_of(test::kP1);
  const netcore::Ipv4Addr fabric = IxpTable(graph, 1, 1.0, 5)
                                       .member_address(0, t1);

  Traceroute trace;
  trace.probe = c;
  trace.hops = {{plan.router_address(c, 0)}, {fabric},
                {plan.router_address(t1, 0)}, {std::nullopt},
                {plan.router_address(p1, 0)},
                {AddressPlan::experiment_target()}};
  const std::vector<Traceroute> batch = {trace, trace};

  std::optional<Ip2AsMap> ip2as;
  std::optional<IxpTable> ixps;
  std::optional<PathRepair> repair;
  PathRepair::Scratch scratch;
  std::vector<AsLevelPath> out;
  std::vector<std::vector<topology::Asn>> paths;
  for (const bool mapped : {true, false}) {
    repair.reset();
    ixps.reset();
    ip2as.reset();
    ip2as.emplace(Ip2AsMap::from_plan(graph, plan, test::kOrigin,
                                      {mapped ? 0.0 : 1.0, 1}));
    ixps.emplace(graph, mapped ? 1u : 0u, 1.0, 5);
    repair.emplace(graph, *ip2as, *ixps, test::kOrigin);
    repair->repair(batch, {}, scratch, out);
    EXPECT_EQ(out, test::repair(*repair, batch, {})) << "mapped " << mapped;
    paths.push_back(out[0].path);
  }
  EXPECT_EQ(paths[0], (std::vector<topology::Asn>{test::kC, test::kT1,
                                                  test::kP1, test::kOrigin}));
  EXPECT_EQ(paths[1], (std::vector<topology::Asn>{test::kC, test::kOrigin}));
}

}  // namespace
}  // namespace spooftrack::measure
