// Warm-start campaign propagation: wall-clock comparison of per-config
// cold propagation (one Engine::run per configuration) versus the
// memoized, similarity-ordered, warm-started campaign plan
// (core::plan_campaign walked by core::ChainStepper, as the deploy
// executor's produce stage walks it) on a 100-configuration plan (location
// + prepending phases, the paper's §III-A(a)/(b) shapes). Verifies outcome
// equivalence while timing and reports machine-readable JSON.
//
// Outcomes are digested to checksums as they are produced rather than
// collected: retaining every outcome would keep each chain step's baseline
// alive (shared), forcing the warm path off its steal-the-arena fast path —
// and a digest is all the equivalence check needs.
//
// Usage: perf_campaign_warm [--stubs=N] [--transit=N] [--seed=N]
//                           [--obs-report=PATH]
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/campaign.hpp"
#include "core/config_gen.hpp"
#include "core/experiment.hpp"
#include "obs/obs.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace {

using namespace spooftrack;

struct Pass {
  double ms = 0.0;
  core::CampaignRunStats stats;
  std::vector<std::uint64_t> checksums;  // per configuration index
};

/// Cold baseline: one Engine::run per configuration, fanned out over the
/// default worker count.
Pass run_cold(const core::PeeringTestbed& testbed,
              const std::vector<bgp::Configuration>& plan) {
  Pass pass;
  pass.checksums.assign(plan.size(), 0);
  std::vector<std::uint32_t> rounds(plan.size(), 0);
  const obs::Stopwatch watch;
  util::parallel_for(plan.size(), [&](std::size_t i) {
    const bgp::RoutingOutcome outcome =
        testbed.engine().run(testbed.origin(), plan[i]);
    rounds[i] = outcome.rounds;
    pass.checksums[i] =
        bgp::outcome_checksum(outcome, bgp::ChecksumScope::kRoutes);
  });
  pass.ms = watch.elapsed_ms();
  pass.stats.cold_runs = plan.size();
  for (const std::uint32_t r : rounds) pass.stats.total_rounds += r;
  return pass;
}

/// Warm campaign: every chain of the plan stepped to completion on its own
/// worker. Nothing holds an outcome past its checksum, so every warm step
/// consumes its baseline.
Pass run_warm(const core::PeeringTestbed& testbed,
              const std::vector<bgp::Configuration>& plan,
              std::size_t* memo_hits) {
  Pass pass;
  pass.checksums.assign(plan.size(), 0);
  const obs::Stopwatch watch;
  const core::CampaignPlan campaign = core::plan_campaign(plan);
  std::vector<core::CampaignRunStats> chain_stats(campaign.chains());
  util::parallel_for(
      campaign.chains(),
      [&](std::size_t c) {
        core::ChainStepper stepper(testbed.engine(), testbed.origin(), plan,
                                   campaign, c);
        while (!stepper.done()) {
          const std::size_t u = stepper.next_slot();
          const auto outcome = stepper.step(/*consume_baseline=*/true);
          const std::uint64_t checksum =
              bgp::outcome_checksum(*outcome, bgp::ChecksumScope::kRoutes);
          for (const std::size_t i : campaign.fanout[u]) {
            pass.checksums[i] = checksum;
          }
        }
        chain_stats[c] = stepper.stats();
      },
      campaign.chains());
  pass.ms = watch.elapsed_ms();
  for (const core::CampaignRunStats& cs : chain_stats) {
    pass.stats.cold_runs += cs.cold_runs;
    pass.stats.warm_runs += cs.warm_runs;
    pass.stats.total_rounds += cs.total_rounds;
  }
  if (memo_hits != nullptr) *memo_hits = plan.size() - campaign.unique.size();
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);

  core::TestbedConfig config = options.testbed_config();
  const core::PeeringTestbed testbed(config);

  core::GeneratorOptions gen;
  auto plan = testbed.generator(gen).location_phase();
  const auto prepends = testbed.generator(gen).prepend_phase(plan);
  plan.insert(plan.end(), prepends.begin(), prepends.end());
  constexpr std::size_t kCampaignSize = 100;
  if (plan.size() > kCampaignSize) plan.resize(kCampaignSize);

  // Warm-up pass (page in the topology, steady up the allocator), then one
  // timed pass per mode; best of two timed passes guards against scheduler
  // noise.
  run_cold(testbed, plan);
  // Drop the warm-up pass from the telemetry so the RunReport describes
  // only the timed passes (all campaign workers have joined; the registry
  // is quiescent here).
  obs::Registry::global().reset();

  const Pass cold = run_cold(testbed, plan);
  const double cold_ms = std::min(cold.ms, run_cold(testbed, plan).ms);

  std::size_t memo_hits = 0;
  const Pass warm = run_warm(testbed, plan, &memo_hits);
  const double warm_ms =
      std::min(warm.ms, run_warm(testbed, plan, nullptr).ms);

  // The speedup claim is only meaningful if warm outcomes are identical.
  std::size_t mismatched_configs = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (cold.checksums[i] != warm.checksums[i]) ++mismatched_configs;
  }

  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
  std::cout << "{\n"
            << "  \"bench\": \"perf_campaign_warm\",\n"
            << "  \"configs\": " << plan.size() << ",\n"
            << "  \"as_count\": " << testbed.graph().size() << ",\n"
            << "  \"workers\": " << util::default_worker_count() << ",\n"
            << "  \"cold_ms\": " << util::fmt_double(cold_ms, 2) << ",\n"
            << "  \"warm_ms\": " << util::fmt_double(warm_ms, 2) << ",\n"
            << "  \"speedup\": " << util::fmt_double(speedup, 2) << ",\n"
            << "  \"cold_rounds\": " << cold.stats.total_rounds << ",\n"
            << "  \"warm_rounds\": " << warm.stats.total_rounds << ",\n"
            << "  \"warm_chain_heads\": " << warm.stats.cold_runs << ",\n"
            << "  \"warm_runs\": " << warm.stats.warm_runs << ",\n"
            << "  \"memo_hits\": " << memo_hits << ",\n"
            << "  \"equivalent\": "
            << (mismatched_configs == 0 ? "true" : "false") << "\n"
            << "}\n";

  const int rc = bench::finish(options, "perf_campaign_warm", [&](auto& report) {
    report.value("configs", static_cast<double>(plan.size()))
        .value("as_count", static_cast<double>(testbed.graph().size()))
        .value("cold_ms", cold_ms)
        .value("warm_ms", warm_ms)
        .value("speedup", speedup)
        .label("equivalent", mismatched_configs == 0 ? "true" : "false");
  });

  if (mismatched_configs != 0) {
    std::cerr << "FAIL: " << mismatched_configs
              << " configs differ between cold and warm propagation\n";
    return 1;
  }
  return rc;
}
