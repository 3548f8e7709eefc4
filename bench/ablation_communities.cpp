// Ablation: BGP-community steering vs BGP poisoning (§VIII future work).
//
// Both phases try to move the same first-hop traffic (neighbors of the
// origin's providers). Poisoning is defeated by ASes that disable loop
// prevention and by tier-1 route-leak filters; a no-export community
// honoured by the direct provider has neither failure mode. This ablation
// deploys the same number of steering configurations with each technique
// on identical baselines and compares how many targets actually moved and
// what that does to cluster sizes.
#include <iostream>

#include "common.hpp"
#include "core/cluster.hpp"
#include "core/config_gen.hpp"
#include "core/experiment.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace spooftrack;
  const auto options = bench::BenchOptions::parse(argc, argv);

  core::TestbedConfig config = options.testbed_config();
  config.measured_catchments = false;  // ground truth isolates the steering
  // Make poisoning's failure modes visible.
  config.policy.ignore_poison_fraction = 0.10;
  const core::PeeringTestbed testbed(config);

  core::GeneratorOptions gen;
  gen.max_poison_configs = 120;
  gen.max_community_configs = 120;
  const core::ConfigGenerator generator = testbed.generator(gen);

  auto baseline = generator.location_phase();
  const auto prepends = generator.prepend_phase(baseline);
  baseline.insert(baseline.end(), prepends.begin(), prepends.end());

  const auto base_result = testbed.deploy(baseline);
  core::ClusterTracker base_tracker(base_result.sources.size());
  for (const auto& row : base_result.matrix) base_tracker.refine(row);

  auto evaluate = [&](std::vector<bgp::Configuration> steering,
                      const char* what) {
    // How many targets moved off the steered link, and what clusters look
    // like after adding the steering phase to the baseline.
    const auto result = testbed.deploy(std::move(steering));
    core::ClusterTracker tracker(base_result.sources.size());
    for (const auto& row : base_result.matrix) tracker.refine(row);
    std::size_t moved = 0, total = 0;
    for (std::size_t i = 0; i < result.configs.size(); ++i) {
      // Identify the steered target and link of this configuration.
      topology::Asn target = 0;
      bgp::LinkId link = bgp::kNoCatchment;
      for (const auto& spec : result.configs[i].announcements) {
        if (!spec.poisoned.empty()) {
          target = spec.poisoned.front();
          link = spec.link;
        }
        if (!spec.no_export_to.empty()) {
          target = spec.no_export_to.front();
          link = spec.link;
        }
      }
      if (const auto id = testbed.graph().id_of(target)) {
        ++total;
        moved += result.truth[i][*id] != link &&
                 result.truth[i][*id] != bgp::kNoCatchment;
      }
      // Refine the baseline partition with the steering row.
      const auto cells = result.truth[i].cells();
      std::vector<std::uint8_t> row(base_result.sources.size());
      for (std::size_t s = 0; s < base_result.sources.size(); ++s) {
        row[s] = cells[base_result.sources[s]];
      }
      tracker.refine(row);
    }
    util::Table table({"metric", "value"});
    table.add_row({"steering configurations", std::to_string(total)});
    table.add_row({"targets moved off the steered link",
                   std::to_string(moved) + " (" +
                       util::fmt_percent(total == 0
                                             ? 0.0
                                             : static_cast<double>(moved) /
                                                   static_cast<double>(total)) +
                       ")"});
    table.add_row({"clusters after baseline+steering",
                   std::to_string(tracker.cluster_count())});
    table.add_row({"mean cluster size",
                   util::fmt_double(tracker.mean_cluster_size(), 3)});
    util::print_banner(std::cout, what);
    table.print(std::cout);
    return tracker.cluster_count();
  };

  util::print_banner(std::cout, "Baseline (location + prepending)");
  util::Table base({"metric", "value"});
  base.add_row({"configurations", std::to_string(baseline.size())});
  base.add_row({"clusters", std::to_string(base_tracker.cluster_count())});
  base.add_row({"mean cluster size",
                util::fmt_double(base_tracker.mean_cluster_size(), 3)});
  base.print(std::cout);

  const auto poison_clusters =
      evaluate(generator.poison_phase(testbed.graph()),
               "Steering by BGP poisoning (10% of ASes ignore poison)");
  const auto community_clusters = evaluate(
      generator.community_phase(testbed.graph()),
      "Steering by no-export communities");

  std::cout
      << "\ncommunities vs poisoning: " << community_clusters << " vs "
      << poison_clusters
      << " clusters.\nReading: poisoning blocks the target from using ANY "
         "copy of the announcement\n(it rejects its own ASN wherever the "
         "route arrives — and even loop-prevention\nexemptions often move "
         "anyway because the sandwich lengthens the path), while\na "
         "no-export community severs exactly the provider-target edge. "
         "Severing one\nedge reroutes the ASes behind it more diversely, "
         "which is why the community\nphase tends to refine clusters "
         "harder per configuration.\n";
  return bench::finish(options, "ablation_communities");
}
