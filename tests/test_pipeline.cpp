// The deterministic task-graph executor (spooftrack::pipeline) and the
// streaming deploy path built on it.
//
// Three layers of coverage:
//   1. executor contract — commit ordering, per-chain produce
//      serialization, backpressure bound, exception drain, inline
//      single-worker execution, plan validation;
//   2. golden digests — PeeringTestbed::deploy reproduces a pinned digest
//      per scenario (measured, faults, ground truth, all abandoned,
//      one-configuration plans) and returns an empty deployment for an
//      empty plan;
//   3. end-to-end equivalence — every worker count x queue depth
//      combination is byte-identical to the single-worker run and its
//      golden digest, including handoff-buffer lifetimes when fault
//      injection abandons configurations (the ASan job turns a leaked
//      buffer into a failure).
#include "pipeline/pipeline.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bgp/engine.hpp"
#include "core/campaign.hpp"
#include "core/config_gen.hpp"
#include "core/experiment.hpp"
#include "core/io.hpp"
#include "helpers.hpp"
#include "obs/obs.hpp"
#include "topology/metrics.hpp"

namespace spooftrack {
namespace {

// ---------------------------------------------------------------------------
// Executor contract
// ---------------------------------------------------------------------------

/// chain_steps with one item per step, chains striding over [0, items).
pipeline::GraphPlan strided_plan(std::size_t items, std::size_t chains) {
  pipeline::GraphPlan plan;
  plan.items = items;
  plan.chain_steps.resize(chains);
  for (std::size_t i = 0; i < items; ++i) {
    plan.chain_steps[i % chains].push_back({i});
  }
  return plan;
}

TEST(PipelineExecutor, RunsEveryStageExactlyOnceAndCommitsInOrder) {
  for (const std::size_t workers : {1u, 2u, 8u}) {
    for (const std::size_t depth : {1u, 2u, 4u}) {
      const pipeline::GraphPlan plan = strided_plan(23, 3);
      std::mutex mutex;
      std::vector<int> produced(23, 0);
      std::vector<int> worked(23, 0);
      std::vector<std::size_t> commit_order;

      pipeline::Stages stages;
      stages.produce = [&](std::size_t chain, std::size_t step) {
        const std::lock_guard<std::mutex> lock(mutex);
        for (std::size_t item : plan.chain_steps[chain][step]) {
          ++produced[item];
        }
      };
      stages.work = [&](std::size_t item, std::size_t worker) {
        ASSERT_LT(worker, workers);
        const std::lock_guard<std::mutex> lock(mutex);
        EXPECT_EQ(produced[item], 1) << "worked before produced";
        ++worked[item];
      };
      stages.commit = [&](std::size_t item) {
        const std::lock_guard<std::mutex> lock(mutex);
        EXPECT_EQ(worked[item], 1) << "committed before worked";
        commit_order.push_back(item);
      };

      pipeline::run_graph(plan, stages, {workers, depth});
      ASSERT_EQ(commit_order.size(), 23u);
      for (std::size_t i = 0; i < commit_order.size(); ++i) {
        EXPECT_EQ(commit_order[i], i) << "commits must ascend globally";
      }
      EXPECT_TRUE(std::all_of(produced.begin(), produced.end(),
                              [](int c) { return c == 1; }));
      EXPECT_TRUE(std::all_of(worked.begin(), worked.end(),
                              [](int c) { return c == 1; }));
    }
  }
}

TEST(PipelineExecutor, ProduceIsSerialPerChainAndAscending) {
  const pipeline::GraphPlan plan = strided_plan(40, 4);
  std::mutex mutex;
  std::vector<std::vector<std::size_t>> seen(plan.chains());
  std::vector<int> in_produce(plan.chains(), 0);

  pipeline::Stages stages;
  stages.produce = [&](std::size_t chain, std::size_t step) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      EXPECT_EQ(in_produce[chain], 0) << "chain produced concurrently";
      ++in_produce[chain];
      seen[chain].push_back(step);
    }
    std::this_thread::yield();
    const std::lock_guard<std::mutex> lock(mutex);
    --in_produce[chain];
  };
  pipeline::run_graph(plan, stages, {8, 2});

  for (std::size_t c = 0; c < plan.chains(); ++c) {
    ASSERT_EQ(seen[c].size(), plan.chain_steps[c].size());
    for (std::size_t s = 0; s < seen[c].size(); ++s) {
      EXPECT_EQ(seen[c][s], s) << "steps must ascend within a chain";
    }
  }
}

TEST(PipelineExecutor, BackpressureBoundsOutstandingSteps) {
  for (const std::size_t depth : {1u, 2u, 4u}) {
    const pipeline::GraphPlan plan = strided_plan(32, 2);
    std::mutex mutex;
    std::vector<std::size_t> outstanding(plan.chains(), 0);
    std::size_t worst = 0;
    std::vector<std::size_t> chain_of(plan.items, 0);
    for (std::size_t c = 0; c < plan.chains(); ++c) {
      for (const auto& step : plan.chain_steps[c]) {
        for (std::size_t item : step) chain_of[item] = c;
      }
    }

    pipeline::Stages stages;
    stages.produce = [&](std::size_t chain, std::size_t) {
      const std::lock_guard<std::mutex> lock(mutex);
      ++outstanding[chain];
      worst = std::max(worst, outstanding[chain]);
    };
    stages.work = [&](std::size_t item, std::size_t) {
      const std::lock_guard<std::mutex> lock(mutex);
      --outstanding[chain_of[item]];
    };
    pipeline::run_graph(plan, stages, {4, depth});
    EXPECT_LE(worst, depth) << "a chain ran further ahead than queue_depth";
  }
}

TEST(PipelineExecutor, SingleWorkerRunsInlineOnCallingThread) {
  const pipeline::GraphPlan plan = strided_plan(9, 3);
  const std::thread::id caller = std::this_thread::get_id();
  pipeline::Stages stages;
  stages.produce = [&](std::size_t, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  };
  stages.work = [&](std::size_t, std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  };
  stages.commit = [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  };
  pipeline::run_graph(plan, stages, {1, 2});
}

TEST(PipelineExecutor, ExceptionsPropagateFromEveryStage) {
  for (const std::size_t workers : {1u, 4u}) {
    for (int stage = 0; stage < 3; ++stage) {
      const pipeline::GraphPlan plan = strided_plan(16, 2);
      pipeline::Stages stages;
      if (stage == 0) {
        stages.produce = [](std::size_t chain, std::size_t step) {
          if (chain == 1 && step == 3) throw std::runtime_error("produce");
        };
      } else if (stage == 1) {
        stages.work = [](std::size_t item, std::size_t) {
          if (item == 7) throw std::runtime_error("work");
        };
      } else {
        stages.commit = [](std::size_t item) {
          if (item == 5) throw std::runtime_error("commit");
        };
      }
      EXPECT_THROW(pipeline::run_graph(plan, stages, {workers, 2}),
                   std::runtime_error)
          << "stage " << stage << ", workers " << workers;
    }
  }
}

TEST(PipelineExecutor, RejectsPlansThatAreNotAPermutation) {
  pipeline::Stages stages;  // all no-ops
  {
    pipeline::GraphPlan duplicate;
    duplicate.items = 3;
    duplicate.chain_steps = {{{0, 1}, {1}}, {{2}}};
    EXPECT_THROW(pipeline::run_graph(duplicate, stages),
                 std::invalid_argument);
  }
  {
    pipeline::GraphPlan out_of_range;
    out_of_range.items = 2;
    out_of_range.chain_steps = {{{0}, {5}}};
    EXPECT_THROW(pipeline::run_graph(out_of_range, stages),
                 std::invalid_argument);
  }
  {
    pipeline::GraphPlan missing;
    missing.items = 3;
    missing.chain_steps = {{{0}, {2}}};
    EXPECT_THROW(pipeline::run_graph(missing, stages), std::invalid_argument);
  }
}

TEST(PipelineExecutor, EmptyGraphAndEmptyStepsAreFine) {
  pipeline::Stages stages;
  pipeline::run_graph({}, stages);  // no chains, no items

  pipeline::GraphPlan sparse;
  sparse.items = 2;
  sparse.chain_steps = {{{}, {1}, {}}, {{0}}};
  std::vector<std::size_t> committed;
  stages.commit = [&](std::size_t item) { committed.push_back(item); };
  pipeline::run_graph(sparse, stages, {2, 1});
  EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1}));
}

// ---------------------------------------------------------------------------
// Deploy scenarios
// ---------------------------------------------------------------------------

core::TestbedConfig equivalence_testbed() {
  core::TestbedConfig config;
  config.seed = 11;
  config.tier1_count = 5;
  config.transit_count = 40;
  config.stub_count = 300;
  config.probe_count = 100;
  config.traceroute_rounds = 2;
  config.feed.peer_count = 40;
  config.audit_policies = true;
  return config;
}

/// A 10-config plan with memo fan-out: the location phase plus two
/// duplicated announcement lists, so unique < n and outcomes are shared.
std::vector<bgp::Configuration> equivalence_plan(
    const core::PeeringTestbed& testbed) {
  core::GeneratorOptions gen;
  gen.max_removals = 1;
  auto plan = testbed.generator(gen).location_phase();  // 8 configs
  plan.push_back(plan[2]);
  plan.push_back(plan[0]);
  return plan;
}

void expect_same_deployment(const core::DeploymentResult& expected,
                            const core::DeploymentResult& actual,
                            const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(expected.configs.size(), actual.configs.size());
  EXPECT_EQ(expected.truth, actual.truth);
  EXPECT_EQ(expected.measured, actual.measured);
  EXPECT_EQ(expected.sources, actual.sources);
  EXPECT_EQ(expected.matrix, actual.matrix);
  EXPECT_EQ(expected.min_route_distance, actual.min_route_distance);
  EXPECT_EQ(expected.engine_rounds, actual.engine_rounds);
  ASSERT_EQ(expected.compliance.size(), actual.compliance.size());
  for (std::size_t i = 0; i < expected.compliance.size(); ++i) {
    EXPECT_EQ(expected.compliance[i].audited, actual.compliance[i].audited);
    EXPECT_EQ(expected.compliance[i].best_relationship,
              actual.compliance[i].best_relationship);
    EXPECT_EQ(expected.compliance[i].both_criteria,
              actual.compliance[i].both_criteria);
  }
  EXPECT_EQ(expected.mean_multi_catchment, actual.mean_multi_catchment);
  EXPECT_EQ(expected.mean_coverage, actual.mean_coverage);
  ASSERT_EQ(expected.quality.size(), actual.quality.size());
  for (std::size_t i = 0; i < expected.quality.size(); ++i) {
    EXPECT_EQ(expected.quality[i].grade, actual.quality[i].grade) << i;
    EXPECT_EQ(expected.quality[i].deploy_attempts,
              actual.quality[i].deploy_attempts) << i;
    EXPECT_EQ(expected.quality[i].feed_entries,
              actual.quality[i].feed_entries) << i;
    EXPECT_EQ(expected.quality[i].feed_faults,
              actual.quality[i].feed_faults) << i;
    EXPECT_EQ(expected.quality[i].traces, actual.quality[i].traces) << i;
    EXPECT_EQ(expected.quality[i].trace_faults,
              actual.quality[i].trace_faults) << i;
  }
}

// ---------------------------------------------------------------------------
// Golden deploy digests
//
// One digest per scenario pins what deploy() returns for the equivalence
// testbed: the saved artifact bytes plus truth, measured and quality. The
// digests were recorded while the barrier and streaming schedules both
// existed and agreed byte for byte, so they keep pinning the output without
// a second implementation to compare against. engine_rounds is left out:
// it depends on the chain count, and so on SPOOFTRACK_THREADS.
// ---------------------------------------------------------------------------

core::TestbedConfig faulty_testbed() {
  core::TestbedConfig config = equivalence_testbed();
  config.faults.feed_outage_prob = 0.1;
  config.faults.feed_stale_prob = 0.05;
  config.faults.traceroute_loss_prob = 0.05;
  config.faults.traceroute_truncate_prob = 0.05;
  config.faults.deploy_failure_prob = 0.25;
  config.faults.deploy_retry_budget = 0;
  return config;
}

core::TestbedConfig ground_truth_testbed() {
  core::TestbedConfig config = equivalence_testbed();
  config.measured_catchments = false;
  return config;
}

/// Every deployment attempt fails: all configurations are abandoned.
core::TestbedConfig abandoning_testbed() {
  core::TestbedConfig config = equivalence_testbed();
  config.faults.deploy_failure_prob = 1.0;
  config.faults.deploy_retry_budget = 0;
  return config;
}

struct GoldenCase {
  const char* name;
  core::TestbedConfig (*testbed)();
  bool single_config;  // deploy only the plan's first configuration
  const char* digest;
};

constexpr GoldenCase kMeasured{"measured", equivalence_testbed, false,
                               "ba6f689c1a50e480"};
constexpr GoldenCase kFaulty{"active fault plan", faulty_testbed, false,
                             "413c8e95ae5c5329"};
constexpr GoldenCase kGroundTruth{"ground truth", ground_truth_testbed, false,
                                  "40b057bbfd0bdeb8"};
constexpr GoldenCase kAbandoned{"all abandoned", abandoning_testbed, false,
                                "575837f65dada3f2"};
constexpr GoldenCase kSingleMeasured{"one config, measured",
                                     equivalence_testbed, true,
                                     "b1d7ec0a9f6084ef"};
constexpr GoldenCase kSingleGroundTruth{"one config, ground truth",
                                        ground_truth_testbed, true,
                                        "93dce9a9075205e0"};
constexpr const GoldenCase* kGoldenCases[] = {
    &kMeasured,  &kFaulty,         &kGroundTruth,
    &kAbandoned, &kSingleMeasured, &kSingleGroundTruth,
};

std::vector<bgp::Configuration> golden_plan(const core::PeeringTestbed& testbed,
                                            const GoldenCase& golden) {
  auto plan = equivalence_plan(testbed);
  if (golden.single_config) plan.resize(1);
  return plan;
}

/// FNV-1a over the deployment's saved artifact, truth, measured and
/// quality, as 16 hex digits.
std::string deploy_digest(const core::PeeringTestbed& testbed,
                          const core::DeploymentResult& result) {
  test::Fnv1a fnv;
  const auto bytes = [&fnv](const void* data, std::size_t size) {
    fnv.bytes(data, size);
  };
  const auto u64 = [&bytes](std::uint64_t v) { bytes(&v, sizeof v); };
  const auto vec = [&](const auto& v) {
    u64(v.size());
    bytes(v.data(), v.size() * sizeof(v[0]));
  };
  // The pinned digests were recorded over one 32-bit LinkId per AS, so each
  // one-byte map is hashed widened to that layout.
  const auto links_of = [](const bgp::CatchmentMap& map) {
    std::vector<bgp::LinkId> links(map.size());
    for (topology::AsId id = 0; id < links.size(); ++id) links[id] = map[id];
    return links;
  };

  std::ostringstream artifact;
  core::save_artifact(
      core::make_artifact(result, testbed.config().seed,
                          testbed.graph().size(),
                          testbed.origin().links.size()),
      artifact);
  const std::string saved = artifact.str();
  vec(saved);
  u64(result.truth.size());
  for (const bgp::CatchmentMap& truth : result.truth) vec(links_of(truth));
  u64(result.measured.size());
  for (const measure::InferenceResult& inferred : result.measured) {
    const std::vector<bgp::LinkId> links = links_of(inferred.catchments);
    vec(links);
    // The per-AS observed flags, which InferenceResult once stored and the
    // pinned digests still cover: 1 exactly where the link is known.
    std::vector<std::uint8_t> observed(links.size());
    std::transform(links.begin(), links.end(), observed.begin(),
                   [](bgp::LinkId link) { return link != bgp::kNoCatchment; });
    vec(observed);
    u64(inferred.covered_count);
    bytes(&inferred.multi_catchment_fraction, sizeof(double));
  }
  u64(result.quality.size());
  for (const fault::ConfigQuality& q : result.quality) {
    u64(static_cast<std::uint64_t>(q.grade));
    for (const std::uint32_t count : {q.deploy_attempts, q.feed_entries,
                                      q.feed_faults, q.traces,
                                      q.trace_faults}) {
      u64(count);
    }
  }
  return fnv.hex();
}

TEST(DeployGolden, EveryScenarioMatchesItsPinnedDigest) {
  for (const GoldenCase* golden : kGoldenCases) {
    SCOPED_TRACE(golden->name);
    const core::PeeringTestbed testbed(golden->testbed());
    const auto result = testbed.deploy(golden_plan(testbed, *golden));
    EXPECT_EQ(deploy_digest(testbed, result), golden->digest);
    if (!testbed.config().measured_catchments) {
      // Ground truth has no measurement stage: nothing is measured, and
      // the sources come from routing.
      EXPECT_TRUE(result.measured.empty());
      EXPECT_FALSE(result.sources.empty());
    }
  }
}

TEST(DeployGolden, EmptyPlanYieldsAnEmptyDeployment) {
  for (const bool measured : {true, false}) {
    SCOPED_TRACE(measured ? "measured" : "ground truth");
    core::TestbedConfig config = equivalence_testbed();
    config.measured_catchments = measured;
    const core::PeeringTestbed testbed(config);
    const auto result = testbed.deploy({});
    EXPECT_TRUE(result.truth.empty());
    EXPECT_TRUE(result.measured.empty());
    EXPECT_TRUE(result.sources.empty());
    EXPECT_TRUE(result.engine_rounds.empty());
    EXPECT_EQ(result.matrix.size(), 0u);
    EXPECT_EQ(result.matrix.sources(), 0u);
    EXPECT_EQ(result.mean_multi_catchment, 0.0);
    EXPECT_EQ(result.mean_coverage, 0.0);
    ASSERT_EQ(result.min_route_distance.size(), testbed.graph().size());
    for (const std::uint32_t distance : result.min_route_distance) {
      EXPECT_EQ(distance, topology::kUnreachable);
    }
  }
}

/// The bytes of the one segment a journaled deploy of `config` writes: its
/// ten records fit the active segment.
std::string journal_segment(core::TestbedConfig config) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("spooftrack-identity-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  config.journal.dir = dir.string();
  config.journal.fsync = false;
  {
    const core::PeeringTestbed testbed(config);
    testbed.deploy(equivalence_plan(testbed));
  }
  std::ifstream in(dir / "seg-000000.open", std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  fs::remove_all(dir);
  return bytes;
}

/// The campaign identity hash a journaled deploy of `config` writes into its
/// segment header, after the u64 magic, u32 version and u32 sequence.
std::uint64_t journal_identity(const core::TestbedConfig& config) {
  const std::string segment = journal_segment(config);
  std::uint64_t identity = 0;
  EXPECT_GE(segment.size(), 16 + sizeof identity);
  if (segment.size() >= 16 + sizeof identity) {
    std::memcpy(&identity, segment.data() + 16, sizeof identity);
  }
  return identity;
}

TEST(DeployGolden, JournalIdentityMatchesPinnedValue) {
  // A resume rejects a journal whose identity differs, so any change to
  // campaign_identity strands every journal written before it.
  EXPECT_EQ(journal_identity(equivalence_testbed()),
            0xe54e26170d6ad96dULL);
}

TEST(DeployGolden, JournalBytesDoNotDependOnTheThreadCount) {
  // SPOOFTRACK_THREADS sets the default worker count and with it the
  // campaign plan's chain count; a journal records results, never the
  // execution shape, so its bytes stay the same.
  test::ThreadsEnvGuard guard;
  test::ThreadsEnvGuard::set("1");
  const std::string one = journal_segment(equivalence_testbed());
  test::ThreadsEnvGuard::set("4");
  const std::string four = journal_segment(equivalence_testbed());
  EXPECT_TRUE(one == four) << one.size() << " vs " << four.size() << " bytes";
  test::Fnv1a fnv;
  fnv.bytes(one.data(), one.size());
  EXPECT_EQ(fnv.hex(), "43769de99259d481");
}

// ---------------------------------------------------------------------------
// Deploy equivalence: every worker count x queue depth reproduces the
// workers-1, depth-1 deployment and the scenario's golden digest. The
// digests pin the output of the barrier schedule this executor replaced,
// so "matches barrier" still holds byte for byte.
// ---------------------------------------------------------------------------

void run_equivalence_sweep(const GoldenCase& golden) {
  core::TestbedConfig base = golden.testbed();
  base.measure_workers = 1;
  base.pipeline_depth = 1;
  const core::PeeringTestbed reference_bed(base);
  const auto plan = golden_plan(reference_bed, golden);
  const auto reference = reference_bed.deploy(plan);
  EXPECT_EQ(deploy_digest(reference_bed, reference), golden.digest);

  for (const std::size_t workers : {1u, 2u, 8u}) {
    for (const std::size_t depth : {1u, 2u, 4u}) {
      const std::string what = std::string(golden.name) +
                               " workers=" + std::to_string(workers) +
                               " depth=" + std::to_string(depth);
      core::TestbedConfig config = base;
      config.measure_workers = workers;
      config.pipeline_depth = depth;
      const core::PeeringTestbed testbed(config);
      const auto result = testbed.deploy(plan);
      expect_same_deployment(reference, result, what);
      EXPECT_EQ(deploy_digest(testbed, result), golden.digest) << what;
    }
  }
}

TEST(PipelineEquivalence, MatchesBarrierForAllWorkerAndDepthCombos) {
  run_equivalence_sweep(kMeasured);
}

TEST(PipelineEquivalence, MatchesBarrierUnderActiveFaultPlan) {
  run_equivalence_sweep(kFaulty);
}

TEST(PipelineEquivalence, MatchesBarrierForGroundTruth) {
  run_equivalence_sweep(kGroundTruth);
}

// ---------------------------------------------------------------------------
// Handoff-buffer lifetimes under fault abandonment (ASan job catches leaks)
// ---------------------------------------------------------------------------

TEST(PipelineLease, AbandonedConfigsStillDrainAndReleaseLeases) {
  // Every deployment attempt fails: all configs abandoned, no step ever
  // takes handoff buffers — yet every warm-engine outcome and buffer must
  // be dropped by the time deploy returns (leak-checked under ASan).
  core::TestbedConfig config = abandoning_testbed();
  config.measure_workers = 2;
  const core::PeeringTestbed testbed(config);
  const auto plan = equivalence_plan(testbed);
  const auto result = testbed.deploy(plan);

  EXPECT_TRUE(result.sources.empty());
  EXPECT_EQ(result.matrix.size(), plan.size());
  EXPECT_EQ(result.matrix.sources(), 0u);
  for (const auto& q : result.quality) {
    EXPECT_EQ(q.grade, fault::Grade::kFailed);
  }
  // Ground truth is routing-plane state and survives abandonment.
  for (const auto& truth : result.truth) {
    EXPECT_NE(truth.size(), 0u);
  }

  // And the all-abandoned case still matches its golden digest.
  EXPECT_EQ(deploy_digest(testbed, result), kAbandoned.digest);
}

#if SPOOFTRACK_OBS_ENABLED
TEST(PipelineLease, WarmChainsAccountEveryStep) {
  core::TestbedConfig config = equivalence_testbed();
  config.measure_workers = 2;
  const core::PeeringTestbed testbed(config);
  const auto plan = equivalence_plan(testbed);

  const auto before = obs::Registry::global().snapshot();
  const auto result = testbed.deploy(plan);
  const auto after = obs::Registry::global().snapshot();
  ASSERT_FALSE(result.matrix.empty());

  const auto delta = [&](const char* name) {
    const auto value = [name](const obs::Snapshot& snap) {
      const obs::MetricSnapshot* metric = snap.find(name);
      return metric == nullptr ? std::uint64_t{0} : metric->value;
    };
    return value(after) - value(before);
  };
  // Every unique configuration is propagated exactly once: each chain head
  // cold, every later step warm from its predecessor. The plan has 9
  // unique configs over a handful of chains, so warm steps must exist.
  const core::CampaignPlan campaign = core::plan_campaign(plan);
  const std::uint64_t cold = delta("engine.cold_runs");
  const std::uint64_t warm = delta("engine.warm_runs");
  EXPECT_EQ(cold, campaign.chains());
  EXPECT_EQ(cold + warm, campaign.unique.size());
  EXPECT_GE(warm, 1u);
  EXPECT_EQ(delta("pipeline.runs"), 1u);
  EXPECT_EQ(delta("pipeline.items"), plan.size());
}
#endif  // SPOOFTRACK_OBS_ENABLED

}  // namespace
}  // namespace spooftrack
