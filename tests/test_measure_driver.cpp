// Pinned equivalence of MeasurementDriver::measure_one: per configuration
// it must produce byte-identical InferenceResults equal to a
// straightforward serial composition of the pipeline stages (feed collect
// -> per-round traceroutes -> the legacy repair oracle -> inference),
// whatever the scratch it runs on measured before. The reference shares no
// repair code with the driver, so a change to PathRepair that alters a
// repaired path fails here too. Worker-count invariance of the deploy that
// fans measure_one out is pinned by MeasureDriverDeploy below and by the
// PipelineEquivalence suite.
#include "measure/driver.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "helpers.hpp"
#include "oracles.hpp"
#include "util/rng.hpp"

namespace spooftrack::measure {
namespace {

core::TestbedConfig driver_testbed() {
  core::TestbedConfig config;
  config.seed = 23;
  config.tier1_count = 4;
  config.transit_count = 24;
  config.stub_count = 180;
  config.probe_count = 70;
  config.feed.peer_count = 40;
  config.traceroute_rounds = 2;
  return config;
}

class MeasureDriverTest : public ::testing::Test {
 protected:
  MeasureDriverTest()
      : testbed_(driver_testbed()),
        plan_(testbed_.graph()),
        ixps_(testbed_.graph(), 4, 0.5, 77),
        ip2as_(Ip2AsMap::from_plan(testbed_.graph(), plan_,
                                   core::kPeeringAsn, {0.05, 3})),
        feeds_(testbed_.graph(), {40, 0.6, 17}),
        tracer_(testbed_.graph(), plan_, ixps_, TracerouteOptions{}),
        repair_(testbed_.graph(), ip2as_, ixps_, core::kPeeringAsn),
        inference_(testbed_.graph(), testbed_.origin()) {}

  static constexpr std::uint32_t kRounds = 2;

  /// One configuration's measurement inputs, as the deploy snapshots them.
  struct Inputs {
    std::vector<FeedEntry> feeds;
    ProbePathSet paths;
  };

  std::vector<Inputs> snapshot(
      const std::vector<bgp::Configuration>& configs) const {
    std::vector<Inputs> inputs(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const auto outcome = testbed_.route(configs[i]);
      feeds_.collect_into(outcome, inputs[i].feeds);
      ProbePathSet::extract_into(outcome, testbed_.probe_ases(),
                                 testbed_.origin_id(), inputs[i].paths);
    }
    return inputs;
  }

  /// The pre-driver inline pipeline, verbatim: per config, feeds +
  /// probe-major round-minor traceroutes salted with (config index, round),
  /// batch repair by test::legacy_repair, inference.
  std::vector<InferenceResult> serial_reference(
      const std::vector<bgp::Configuration>& configs) const {
    std::vector<InferenceResult> results(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const auto outcome = testbed_.route(configs[i]);
      std::vector<FeedEntry> feed_entries;
      feeds_.collect_into(outcome, feed_entries);
      std::vector<Traceroute> traces;
      traces.reserve(testbed_.probe_ases().size() * kRounds);
      for (topology::AsId probe : testbed_.probe_ases()) {
        for (std::uint32_t round = 0; round < kRounds; ++round) {
          traces.push_back(test::trace(tracer_, outcome, probe,
                                       testbed_.origin_id(),
                                       util::hash_combine(i, round)));
        }
      }
      const auto paths =
          test::legacy_repair(testbed_.graph(), ip2as_, ixps_,
                              core::kPeeringAsn, traces, feed_entries);
      results[i] = test::infer(inference_, feed_entries, paths);
    }
    return results;
  }

  MeasurementDriver driver() const {
    return MeasurementDriver(tracer_, repair_, inference_,
                             testbed_.probe_ases(), testbed_.origin_id(),
                             kRounds);
  }

  core::PeeringTestbed testbed_;
  AddressPlan plan_;
  IxpTable ixps_;
  Ip2AsMap ip2as_;
  FeedSimulator feeds_;
  TracerouteSim tracer_;
  PathRepair repair_;
  CatchmentInference inference_;
};

TEST_F(MeasureDriverTest, MatchesSerialReferenceForAnyWorkerCount) {
  // A worker measures whichever configurations the deploy hands it, in any
  // order: forward and then reverse on one scratch must both reproduce the
  // serial reference.
  auto configs = testbed_.generator().location_phase();
  configs.resize(5);
  const auto reference = serial_reference(configs);
  const auto inputs = snapshot(configs);
  const MeasurementDriver measure = driver();
  MeasurementDriver::Scratch scratch;

  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(measure.measure_one(i, inputs[i].feeds, inputs[i].paths,
                                  scratch),
              reference[i])
        << "forward, config=" << i;
  }
  for (std::size_t i = configs.size(); i-- > 0;) {
    EXPECT_EQ(measure.measure_one(i, inputs[i].feeds, inputs[i].paths,
                                  scratch),
              reference[i])
        << "reverse, config=" << i;
  }
}

TEST_F(MeasureDriverTest, ScratchReuseAcrossTasksIsInert) {
  // The same configuration measured twice on one scratch, with another in
  // between, must produce the same result both times: nothing may leak
  // between a scratch's calls.
  auto configs = testbed_.generator().location_phase();
  configs.resize(2);
  const auto inputs = snapshot(configs);
  const MeasurementDriver measure = driver();
  MeasurementDriver::Scratch scratch;

  std::vector<InferenceResult> first;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    first.push_back(
        measure.measure_one(i, inputs[i].feeds, inputs[i].paths, scratch));
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(
        measure.measure_one(i, inputs[i].feeds, inputs[i].paths, scratch),
        first[i])
        << "config " << i;
  }
}

TEST_F(MeasureDriverTest, SharedSnapshotsAcrossTasksStayIndependent) {
  // Fan-out duplicates share feed/path snapshots but carry their own
  // config index: their traceroute rounds (and thus results) may differ,
  // and a shared snapshot must never alias results.
  auto configs = testbed_.generator().location_phase();
  configs.resize(1);
  const auto inputs = snapshot(configs);
  const Inputs& shared = inputs[0];
  const MeasurementDriver measure = driver();
  MeasurementDriver::Scratch scratch;

  const auto a0 = measure.measure_one(0, shared.feeds, shared.paths, scratch);
  const auto a1 = measure.measure_one(1, shared.feeds, shared.paths, scratch);
  // Same snapshot, same pipeline: results for the *same* index are
  // reproducible.
  EXPECT_EQ(measure.measure_one(0, shared.feeds, shared.paths, scratch), a0);
  EXPECT_EQ(measure.measure_one(1, shared.feeds, shared.paths, scratch), a1);
}

TEST_F(MeasureDriverTest, ProbePathSetMatchesForwardingPaths) {
  // Rebuilding into a set that held another configuration's paths leaves
  // nothing of them behind.
  auto configs = testbed_.generator().location_phase();
  configs.resize(2);
  const auto outcome = testbed_.route(configs[0]);
  ProbePathSet set;
  ProbePathSet::extract_into(testbed_.route(configs[1]),
                             testbed_.probe_ases(), testbed_.origin_id(),
                             set);
  ProbePathSet::extract_into(outcome, testbed_.probe_ases(),
                             testbed_.origin_id(), set);
  ASSERT_EQ(set.offsets.size(), testbed_.probe_ases().size() + 1);
  for (std::size_t p = 0; p < testbed_.probe_ases().size(); ++p) {
    const auto expect = bgp::forwarding_path(
        outcome, testbed_.probe_ases()[p], testbed_.origin_id());
    const auto got = set.path(p);
    ASSERT_EQ(got.size(), expect.size()) << "probe " << p;
    for (std::size_t h = 0; h < got.size(); ++h) {
      EXPECT_EQ(got[h], expect[h]) << "probe " << p << " hop " << h;
    }
  }
}

TEST(MeasureDriverDeploy, WorkerCountNeverChangesDeployment) {
  core::TestbedConfig config = driver_testbed();
  config.measured_catchments = true;

  core::TestbedConfig serial = config;
  serial.measure_workers = 1;
  core::TestbedConfig wide = config;
  wide.measure_workers = 8;

  const core::PeeringTestbed a(serial);
  const core::PeeringTestbed b(wide);
  auto configs = a.generator().location_phase();
  configs.resize(3);

  const auto ra = a.deploy(configs);
  const auto rb = b.deploy(configs);
  ASSERT_EQ(ra.measured.size(), rb.measured.size());
  for (std::size_t i = 0; i < ra.measured.size(); ++i) {
    EXPECT_EQ(ra.measured[i], rb.measured[i]) << "config " << i;
  }
  EXPECT_EQ(ra.sources, rb.sources);
  EXPECT_EQ(ra.matrix, rb.matrix);
  EXPECT_EQ(ra.mean_coverage, rb.mean_coverage);
  EXPECT_EQ(ra.mean_multi_catchment, rb.mean_multi_catchment);
}

}  // namespace
}  // namespace spooftrack::measure
