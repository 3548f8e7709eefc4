// Chaos suite for spooftrack::fault (docs/faults.md).
//
// Pins the two properties the fault layer is built on — disabled is a
// provable no-op, and fault schedules are monotone subsets in the rate —
// plus the acceptance contract: one nonzero-fault deployment schedule is
// byte-identical across worker counts {1, 2, 8}, degradation is monotone
// and bounded across a rate sweep, and every emitted `fault.*` metric is
// documented in docs/faults.md.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "core/experiment.hpp"
#include "measure/address_plan.hpp"
#include "traffic/honeypot.hpp"
#include "traffic/spoofer.hpp"
#include "util/rng.hpp"

namespace spooftrack::fault {
namespace {

// ---------------------------------------------------------------------------
// Injector unit properties.
// ---------------------------------------------------------------------------

TEST(FaultInjector, DefaultConstructedNeverFires) {
  const FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  for (std::uint64_t a = 0; a < 50; ++a) {
    EXPECT_FALSE(injector.fires(Site::kFeedOutage, a, a * 3));
  }
}

TEST(FaultInjector, AllZeroPlanIsDisabled) {
  FaultPlan plan;
  plan.seed = 1234;  // seed alone never enables faults
  EXPECT_FALSE(plan.any());
  EXPECT_FALSE(FaultInjector(plan).enabled());
  plan.traceroute_loss_prob = 0.01;
  EXPECT_TRUE(plan.any());
  EXPECT_TRUE(FaultInjector(plan).enabled());
}

TEST(FaultInjector, DrawsAreDeterministicAndSiteSeparated) {
  FaultPlan plan;
  plan.set_all(0.5);
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  bool sites_differ = false;
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.draw(Site::kFeedOutage, i, 7), b.draw(Site::kFeedOutage, i, 7));
    EXPECT_EQ(a.mix(Site::kFeedOutage, i, 7), b.mix(Site::kFeedOutage, i, 7));
    sites_differ |= a.fires(Site::kFeedOutage, i, 7) !=
                    a.fires(Site::kFeedStale, i, 7);
  }
  EXPECT_TRUE(sites_differ) << "sites share one schedule — salt missing?";
}

TEST(FaultInjector, FiresMonotoneInRate) {
  // The core subset property: every fault fired at a low rate also fires
  // at any higher rate under the same seed. Exact, not statistical.
  FaultPlan low;
  low.set_all(0.1);
  FaultPlan high = low;
  high.set_all(0.4);
  const FaultInjector lo(low);
  const FaultInjector hi(high);
  std::size_t lo_count = 0;
  std::size_t hi_count = 0;
  for (std::uint64_t a = 0; a < 400; ++a) {
    for (const Site site : {Site::kFeedOutage, Site::kTracerouteLoss,
                            Site::kHoneypotDrop, Site::kDeployFailure}) {
      if (lo.fires(site, a, 1)) {
        ++lo_count;
        EXPECT_TRUE(hi.fires(site, a, 1))
            << "fault fired at 0.1 but not 0.4: site "
            << site_name(site) << " a=" << a;
      }
      hi_count += hi.fires(site, a, 1) ? 1 : 0;
    }
  }
  EXPECT_GT(lo_count, 0u);
  EXPECT_GT(hi_count, lo_count);
}

TEST(FaultInjector, DrawRateTracksProbability) {
  FaultPlan plan;
  plan.feed_outage_prob = 0.25;
  const FaultInjector injector(plan);
  std::size_t fired = 0;
  constexpr std::size_t kTrials = 4000;
  for (std::uint64_t a = 0; a < kTrials; ++a) {
    fired += injector.fires(Site::kFeedOutage, a, 0) ? 1 : 0;
  }
  const double rate = static_cast<double>(fired) / kTrials;
  EXPECT_NEAR(rate, 0.25, 0.03);
}

TEST(FaultGrade, ThresholdsAndRetries) {
  FaultPlan plan;  // degraded_feed_fraction = degraded_trace_fraction = 0.05
  ConfigQuality q;
  EXPECT_EQ(grade_config(q, plan), Grade::kGood);
  q.deploy_attempts = 2;
  EXPECT_EQ(grade_config(q, plan), Grade::kDegraded);
  q.deploy_attempts = 1;
  q.feed_entries = 90;
  q.feed_faults = 10;  // 10% > 5%
  EXPECT_EQ(grade_config(q, plan), Grade::kDegraded);
  q.feed_faults = 2;  // ~2.2% below threshold
  EXPECT_EQ(grade_config(q, plan), Grade::kGood);
  q.traces = 100;
  q.trace_faults = 6;  // 6% > 5%
  EXPECT_EQ(grade_config(q, plan), Grade::kDegraded);
}

// ---------------------------------------------------------------------------
// Injection sites in isolation.
// ---------------------------------------------------------------------------

measure::FeedEntry entry(topology::AsId peer,
                         std::initializer_list<topology::Asn> path) {
  measure::FeedEntry e;
  e.peer = peer;
  e.as_path.assign(path);
  return e;
}

TEST(FeedFaults, DegradeDropsAndTruncatesMonotonically) {
  constexpr topology::Asn kOrigin = 47065;
  std::vector<measure::FeedEntry> clean;
  for (topology::AsId peer = 0; peer < 200; ++peer) {
    clean.push_back(entry(peer, {1000 + peer, 77, kOrigin, 666, kOrigin}));
  }

  FaultPlan lo_plan;
  lo_plan.feed_outage_prob = 0.1;
  lo_plan.feed_stale_prob = 0.1;
  FaultPlan hi_plan = lo_plan;
  hi_plan.feed_outage_prob = 0.4;
  hi_plan.feed_stale_prob = 0.4;

  std::uint32_t lo_faults = 0;
  std::uint32_t hi_faults = 0;
  std::vector<measure::FeedEntry> lo;
  std::vector<measure::FeedEntry> hi;
  measure::FeedSimulator::degrade_into(clean, FaultInjector(lo_plan), 3,
                                       kOrigin, &lo_faults, lo);
  measure::FeedSimulator::degrade_into(clean, FaultInjector(hi_plan), 3,
                                       kOrigin, &hi_faults, hi);

  EXPECT_LT(lo_faults, hi_faults);
  EXPECT_GT(lo_faults, 0u);
  // Peers surviving the high rate are a subset of those surviving the low
  // rate, and a peer staled at the low rate is also staled (or gone) at
  // the high rate.
  auto find_peer = [](const std::vector<measure::FeedEntry>& entries,
                      topology::AsId peer) -> const measure::FeedEntry* {
    for (const auto& e : entries) {
      if (e.peer == peer) return &e;
    }
    return nullptr;
  };
  for (const auto& e : hi) {
    ASSERT_NE(find_peer(lo, e.peer), nullptr)
        << "peer " << e.peer << " survived 0.4 but not 0.1";
  }
  for (const auto& e : lo) {
    if (const auto* h = find_peer(hi, e.peer)) {
      EXPECT_LE(h->as_path.size(), e.as_path.size());
    }
  }
  // Stale paths are truncated before the announcement seed: they keep the
  // peer but never contain the origin ASN.
  std::size_t stale = 0;
  for (const auto& e : lo) {
    if (e.as_path.size() < 5) {
      ++stale;
      EXPECT_EQ(e.as_path.front(), 1000 + e.peer);
      EXPECT_EQ(std::count(e.as_path.begin(), e.as_path.end(), kOrigin), 0);
    }
  }
  EXPECT_GT(stale, 0u);
}

TEST(FeedFaults, DisabledDegradeReturnsInputVerbatim) {
  constexpr topology::Asn kOrigin = 47065;
  std::vector<measure::FeedEntry> clean;
  for (topology::AsId peer = 0; peer < 20; ++peer) {
    clean.push_back(entry(peer, {1000 + peer, kOrigin}));
  }
  std::uint32_t faulted = 0;
  std::vector<measure::FeedEntry> out;
  measure::FeedSimulator::degrade_into(clean, FaultInjector{}, 0, kOrigin,
                                       &faulted, out);
  EXPECT_EQ(faulted, 0u);
  ASSERT_EQ(out.size(), clean.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].peer, clean[i].peer);
    EXPECT_EQ(out[i].as_path, clean[i].as_path);
  }
}

TEST(HoneypotFaults, DropAndDuplicateBalanceTotals) {
  FaultPlan plan;
  plan.honeypot_drop_prob = 0.2;
  plan.honeypot_duplicate_prob = 0.2;
  const FaultInjector injector(plan);

  const auto payload = traffic::make_query_payload(traffic::AmpProtocol::kDnsAny);
  const auto packet = netcore::Datagram::make_udp(
      {203, 0, 113, 9}, measure::AddressPlan::experiment_target(), 4242,
      traffic::info(traffic::AmpProtocol::kDnsAny).udp_port, payload);

  traffic::AmpPotHoneypot pot(1);
  pot.set_fault_injector(&injector, 11);
  constexpr std::uint64_t kPackets = 500;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    pot.receive(0, packet, static_cast<double>(i));
  }
  EXPECT_GT(pot.fault_dropped(), 0u);
  EXPECT_GT(pot.fault_duplicated(), 0u);
  EXPECT_EQ(pot.total_packets(),
            kPackets - pot.fault_dropped() + pot.fault_duplicated());

  // Re-derive the schedule independently: the injector is stateless, so
  // accounting code never needs the honeypot's cooperation.
  std::uint64_t drops = 0;
  for (std::uint64_t seq = 0; seq < kPackets; ++seq) {
    drops += injector.fires(Site::kHoneypotDrop, 11, seq) ? 1 : 0;
  }
  EXPECT_EQ(pot.fault_dropped(), drops);
}

TEST(HoneypotFaults, NullInjectorIsIdentical) {
  const auto payload = traffic::make_query_payload(traffic::AmpProtocol::kDnsAny);
  const auto packet = netcore::Datagram::make_udp(
      {203, 0, 113, 9}, measure::AddressPlan::experiment_target(), 4242,
      traffic::info(traffic::AmpProtocol::kDnsAny).udp_port, payload);
  traffic::AmpPotHoneypot plain(2);
  traffic::AmpPotHoneypot wired(2);
  const FaultInjector disabled;
  wired.set_fault_injector(&disabled, 5);
  for (std::uint64_t i = 0; i < 50; ++i) {
    plain.receive(i % 2, packet, static_cast<double>(i));
    wired.receive(i % 2, packet, static_cast<double>(i));
  }
  EXPECT_EQ(plain.total_packets(), wired.total_packets());
  EXPECT_EQ(plain.responses_sent(), wired.responses_sent());
  EXPECT_EQ(wired.fault_dropped(), 0u);
  EXPECT_EQ(wired.fault_duplicated(), 0u);
}

// ---------------------------------------------------------------------------
// Deployment-level chaos: no-op, worker invariance, graceful degradation.
// ---------------------------------------------------------------------------

core::TestbedConfig chaos_testbed() {
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

std::vector<bgp::Configuration> chaos_plan(const core::PeeringTestbed& testbed,
                                           std::size_t n) {
  auto configs = testbed.generator().location_phase();
  configs.resize(std::min(n, configs.size()));
  return configs;
}

void expect_same_deployment(const core::DeploymentResult& a,
                            const core::DeploymentResult& b,
                            const char* what) {
  ASSERT_EQ(a.measured.size(), b.measured.size()) << what;
  for (std::size_t i = 0; i < a.measured.size(); ++i) {
    EXPECT_EQ(a.measured[i], b.measured[i]) << what << " config " << i;
  }
  EXPECT_EQ(a.sources, b.sources) << what;
  EXPECT_EQ(a.matrix, b.matrix) << what;
  EXPECT_EQ(a.mean_coverage, b.mean_coverage) << what;
  EXPECT_EQ(a.mean_multi_catchment, b.mean_multi_catchment) << what;
  ASSERT_EQ(a.quality.size(), b.quality.size()) << what;
  for (std::size_t i = 0; i < a.quality.size(); ++i) {
    EXPECT_EQ(a.quality[i], b.quality[i]) << what << " config " << i;
  }
}

TEST(FaultDeploy, ZeroRatePlanIsProvableNoOp) {
  // A fault plan with every probability at zero — even with a different
  // seed and budget — must be bit-identical to the default deployment.
  const core::TestbedConfig baseline = chaos_testbed();
  core::TestbedConfig zeroed = baseline;
  zeroed.faults.seed = 0xDEADBEEF;
  zeroed.faults.deploy_retry_budget = 9;

  const core::PeeringTestbed a(baseline);
  const core::PeeringTestbed b(zeroed);
  const auto plan = chaos_plan(a, 4);
  const auto ra = a.deploy(plan);
  const auto rb = b.deploy(plan);
  EXPECT_TRUE(ra.quality.empty());
  EXPECT_TRUE(rb.quality.empty());
  expect_same_deployment(ra, rb, "zero-rate");
}

TEST(FaultDeploy, NonzeroScheduleIsWorkerCountInvariant) {
  core::TestbedConfig config = chaos_testbed();
  config.faults.set_all(0.08);
  config.faults.deploy_failure_prob = 0.3;
  config.faults.deploy_retry_budget = 1;

  std::vector<core::DeploymentResult> runs;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    core::TestbedConfig c = config;
    c.measure_workers = workers;
    const core::PeeringTestbed testbed(c);
    runs.push_back(testbed.deploy(chaos_plan(testbed, 6)));
  }
  ASSERT_FALSE(runs[0].quality.empty());
  expect_same_deployment(runs[0], runs[1], "workers 1 vs 2");
  expect_same_deployment(runs[0], runs[2], "workers 1 vs 8");
}

TEST(FaultDeploy, DegradationIsMonotoneAndBounded) {
  // Sweep the fault rate upward under one seed. Every aggregate is
  // deterministic, and the monotone-subset property keeps the comparison
  // like-with-like: more faults can only remove or shorten measurements.
  const double rates[] = {0.0, 0.05, 0.2};
  std::vector<core::DeploymentResult> results;
  std::vector<std::size_t> config_counts;
  for (const double rate : rates) {
    core::TestbedConfig config = chaos_testbed();
    config.faults.set_all(rate);
    config.faults.deploy_failure_prob = 0.0;  // keep every config measured
    const core::PeeringTestbed testbed(config);
    const auto plan = chaos_plan(testbed, 5);
    config_counts.push_back(plan.size());
    results.push_back(testbed.deploy(plan));
  }

  for (std::size_t k = 0; k + 1 < results.size(); ++k) {
    // Coverage shrinks (or holds) as the rate grows, and never collapses
    // to nothing at these rates: degradation is graceful, not a cliff.
    EXPECT_LE(results[k + 1].mean_coverage, results[k].mean_coverage)
        << "rate " << rates[k + 1];
  }
  EXPECT_GT(results.back().mean_coverage, 0.0);
  EXPECT_FALSE(results.back().sources.empty());

  // Quality accounting: clean run grades everything good; faulty runs
  // count monotonically more fault events.
  ASSERT_EQ(results[1].quality.size(), config_counts[1]);
  std::uint64_t faults_mid = 0;
  std::uint64_t faults_high = 0;
  for (std::size_t i = 0; i < results[1].quality.size(); ++i) {
    const ConfigQuality& mid = results[1].quality[i];
    const ConfigQuality& high = results[2].quality[i];
    faults_mid += mid.feed_faults + mid.trace_faults;
    faults_high += high.feed_faults + high.trace_faults;
    EXPECT_LE(mid.feed_faults, high.feed_faults) << "config " << i;
    EXPECT_LE(mid.trace_faults, high.trace_faults) << "config " << i;
    EXPECT_EQ(mid.deploy_attempts, 1u);
  }
  EXPECT_GT(faults_mid, 0u);
  EXPECT_GT(faults_high, faults_mid);
}

TEST(FaultDeploy, AbandonedConfigsAreMissingNotEmptyVotes) {
  core::TestbedConfig config = chaos_testbed();
  config.faults.deploy_failure_prob = 0.55;
  config.faults.deploy_retry_budget = 0;  // abandon on first failure
  const core::PeeringTestbed testbed(config);
  const auto plan = chaos_plan(testbed, 6);
  const auto result = testbed.deploy(plan);

  ASSERT_EQ(result.quality.size(), plan.size());
  std::size_t failed = 0;
  std::size_t first_live = plan.size();
  for (std::size_t i = 0; i < result.quality.size(); ++i) {
    if (result.quality[i].grade == Grade::kFailed) {
      ++failed;
      // Missing measurement: nothing observed, whole matrix row missing.
      EXPECT_EQ(result.measured[i].covered_count, 0u);
      EXPECT_EQ(result.measured[i].catchments.routed_count(), 0u);
      for (std::size_t s = 0; s < result.sources.size(); ++s) {
        EXPECT_EQ(result.matrix.cell(i, s), bgp::kNoCatchment8)
            << "config " << i << " source " << s;
      }
    } else if (first_live == plan.size()) {
      first_live = i;
    }
  }
  ASSERT_GT(failed, 0u) << "rate 0.55 with budget 0 produced no failures";
  ASSERT_LT(failed, plan.size()) << "every config failed; weak test";
  // Quorum-aware baseline: sources anchor at the first *live* config.
  ASSERT_LT(first_live, plan.size());
  std::vector<topology::AsId> expected =
      measure::baseline_sources(result.measured[first_live]);
  EXPECT_EQ(result.sources, expected);
  // Ground truth is untouched by measurement-plane faults.
  EXPECT_EQ(result.truth.size(), plan.size());
  for (const auto& truth : result.truth) {
    EXPECT_EQ(truth.size(), testbed.graph().size());
  }
}

TEST(FaultDeploy, RetryBudgetRecoversTransientFailures) {
  // Same failure draws, different budgets: with a generous budget every
  // config that would be abandoned at budget 0 either recovers (kDegraded)
  // or still fails — never the reverse.
  core::TestbedConfig strict = chaos_testbed();
  strict.faults.deploy_failure_prob = 0.45;
  strict.faults.deploy_retry_budget = 0;
  core::TestbedConfig generous = strict;
  generous.faults.deploy_retry_budget = 4;

  const core::PeeringTestbed a(strict);
  const core::PeeringTestbed b(generous);
  const auto plan = chaos_plan(a, 6);
  const auto ra = a.deploy(plan);
  const auto rb = b.deploy(plan);
  ASSERT_EQ(ra.quality.size(), rb.quality.size());
  std::size_t recovered = 0;
  for (std::size_t i = 0; i < ra.quality.size(); ++i) {
    if (rb.quality[i].grade == Grade::kFailed) {
      EXPECT_EQ(ra.quality[i].grade, Grade::kFailed)
          << "config " << i << " failed with retries but not without";
    }
    if (ra.quality[i].grade == Grade::kFailed &&
        rb.quality[i].grade != Grade::kFailed) {
      ++recovered;
      EXPECT_GT(rb.quality[i].deploy_attempts, 1u);
      EXPECT_EQ(rb.quality[i].grade, Grade::kDegraded);
    }
  }
  EXPECT_GT(recovered, 0u) << "budget 4 recovered nothing at rate 0.45";
}

// ---------------------------------------------------------------------------
// Docs contract: every fault.* metric the code emits is documented in
// docs/faults.md (mirrors ObsDocsContract for docs/observability.md).
// ---------------------------------------------------------------------------

#ifdef SPOOFTRACK_SOURCE_DIR

TEST(FaultDocsContract, EveryEmittedFaultMetricIsDocumented) {
  const std::filesystem::path doc_path =
      std::filesystem::path(SPOOFTRACK_SOURCE_DIR) / "docs" / "faults.md";
  ASSERT_TRUE(std::filesystem::exists(doc_path)) << "docs/faults.md missing";
  std::ifstream in(doc_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();

  const std::regex call(R"re(OBS_(?:COUNT|GAUGE|HIST|TIMER)\(\s*"(fault\.[^"]+)")re");
  std::set<std::string> names;
  for (const char* dir : {"src", "bench", "tools"}) {
    const std::filesystem::path root =
        std::filesystem::path(SPOOFTRACK_SOURCE_DIR) / dir;
    for (const auto& file :
         std::filesystem::recursive_directory_iterator(root)) {
      const auto ext = file.path().extension();
      if (ext != ".cpp" && ext != ".hpp") continue;
      std::ifstream src(file.path());
      std::stringstream text;
      text << src.rdbuf();
      const std::string content = text.str();
      for (auto it = std::sregex_iterator(content.begin(), content.end(), call);
           it != std::sregex_iterator(); ++it) {
        names.insert((*it)[1].str());
      }
    }
  }
  ASSERT_FALSE(names.empty()) << "no fault.* call sites found — regex broken?";
  for (const std::string& name : names) {
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "metric '" << name
        << "' is emitted by the code but not documented (backticked) in "
           "docs/faults.md";
  }
}

#endif  // SPOOFTRACK_SOURCE_DIR

}  // namespace
}  // namespace spooftrack::fault
