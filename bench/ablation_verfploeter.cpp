// Ablation: passive catchment inference (§IV: BGP feeds + RIPE-Atlas-style
// traceroutes + repair) vs Verfploeter-style active probing (§I). For a
// sample of configurations, both pipelines are compared against routing
// ground truth on coverage and accuracy.
#include <iostream>

#include "common.hpp"
#include "bgp/catchment.hpp"
#include "core/experiment.hpp"
#include "measure/verfploeter.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace spooftrack;
  const auto options = bench::BenchOptions::parse(argc, argv);

  core::TestbedConfig config = options.testbed_config();
  config.measured_catchments = true;
  const core::PeeringTestbed testbed(config);
  const measure::AddressPlan plan(testbed.graph());
  measure::VerfploeterOptions verf_options;
  verf_options.seed = options.seed ^ 0xEC40;
  const measure::VerfploeterProber prober(testbed.graph(), plan,
                                          verf_options);

  // Sample of configurations: the whole location phase.
  auto configs = testbed.generator().location_phase();
  const auto deployment = testbed.deploy(configs);

  util::Accumulator passive_cov, passive_acc, active_cov, active_acc;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto& truth = deployment.truth[i];
    const std::size_t routed = truth.routed_count();

    // Passive pipeline (already computed during deployment).
    const auto& passive = deployment.measured[i];
    std::size_t agree = 0, resolved = 0;
    for (topology::AsId id = 0; id < testbed.graph().size(); ++id) {
      if (passive.catchments[id] == bgp::kNoCatchment) continue;
      ++resolved;
      agree += passive.catchments[id] == truth[id];
    }
    passive_cov.add(static_cast<double>(resolved) /
                    static_cast<double>(routed));
    passive_acc.add(resolved == 0 ? 0.0
                                  : static_cast<double>(agree) /
                                        static_cast<double>(resolved));

    // Active probing from the prefix.
    const auto outcome = testbed.route(configs[i]);
    const auto active =
        prober.probe(outcome, configs[i], testbed.origin_id(), i);
    std::size_t a_agree = 0, a_resolved = 0;
    for (topology::AsId id = 0; id < testbed.graph().size(); ++id) {
      if (active.catchments[id] == bgp::kNoCatchment) continue;
      ++a_resolved;
      a_agree += active.catchments[id] == truth[id];
    }
    active_cov.add(static_cast<double>(a_resolved) /
                   static_cast<double>(routed));
    active_acc.add(a_resolved == 0 ? 0.0
                                   : static_cast<double>(a_agree) /
                                         static_cast<double>(a_resolved));
  }

  util::print_banner(std::cout,
                     "Catchment measurement: passive (SIV) vs active "
                     "(Verfploeter), " +
                         std::to_string(configs.size()) + " configurations");
  util::Table table({"pipeline", "coverage of routed ASes",
                     "accuracy of resolved ASes"});
  table.add_row({"BGP feeds + traceroutes + repair",
                 util::fmt_percent(passive_cov.mean()),
                 util::fmt_percent(passive_acc.mean())});
  table.add_row({"Verfploeter-style active probing",
                 util::fmt_percent(active_cov.mean()),
                 util::fmt_percent(active_acc.mean())});
  table.print(std::cout);

  std::cout << "\nReading: active probing from the anycast prefix gets "
               "near-total coverage with\nexact per-AS catchments (the "
               "paper could not host a prober on PEERING, which is\nwhy it "
               "built the passive pipeline; a production deployment should "
               "prefer active\nmeasurement when the prefix allows it).\n";
  return bench::finish(options, "ablation_verfploeter");
}
