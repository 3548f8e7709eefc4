// Quickstart: the library in ~60 lines.
//
// Build an Internet-like topology with a multi-homed origin (the PEERING
// emulation), deploy a handful of announcement configurations, intersect
// the catchments into clusters, and show how per-link spoofed-traffic
// volumes point at the cluster hosting a spoofer.
//
//   ./quickstart [--seed=N]
#include <iostream>

#include "core/attribution.hpp"
#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "util/table.hpp"

int main() {
  using namespace spooftrack;

  // 1. A small testbed: synthetic topology + origin AS 47065 announcing
  //    through the seven Table I providers. Ground-truth catchments keep
  //    the quickstart fast; see ddos_localization for the full measured
  //    pipeline.
  core::TestbedConfig config;
  config.seed = 1;
  config.stub_count = 800;
  config.transit_count = 80;
  config.measured_catchments = false;
  const core::PeeringTestbed testbed(config);
  std::cout << "topology: " << testbed.graph().size() << " ASes, "
            << testbed.graph().edge_count() << " edges; origin AS"
            << testbed.origin().asn << " with "
            << testbed.origin().links.size() << " peering links\n";

  // 2. Generate announcement configurations: every subset of locations
  //    down to 4 links, then single-link prepends, then poisoning.
  core::GeneratorOptions gen;
  gen.max_poison_configs = 60;
  auto plan = testbed.generator(gen).full_plan(testbed.graph());
  std::cout << "deploying " << plan.size() << " configurations...\n";

  // 3. Deploy and cluster: sources sharing a catchment in every
  //    configuration are indistinguishable; everything else separates.
  const auto deployment = testbed.deploy(std::move(plan));
  const auto clustering = core::cluster_sources(deployment.matrix);
  std::size_t singletons = 0;
  for (std::uint32_t s : clustering.sizes()) singletons += s == 1;
  std::cout << deployment.sources.size() << " sources -> "
            << clustering.cluster_count << " clusters (mean size "
            << util::fmt_double(clustering.mean_size(), 2) << ", "
            << util::fmt_percent(static_cast<double>(singletons) /
                                 clustering.cluster_count)
            << " singletons)\n";

  // 4. Simulate a spoofer and attribute observed per-link volumes.
  const std::size_t spoofer = deployment.sources.size() / 3;
  std::vector<std::vector<double>> volumes;
  for (const auto& truth : deployment.truth) {
    std::vector<double> per_link(testbed.origin().links.size(), 0.0);
    const auto link = truth[deployment.sources[spoofer]];
    if (link != bgp::kNoCatchment) per_link[link] = 1.0;
    volumes.push_back(std::move(per_link));
  }
  const auto attribution =
      core::attribute_clusters(deployment.matrix, clustering, volumes);
  const auto top = attribution.ranking.front();
  std::cout << "spoofer planted in source #" << spoofer << " (AS"
            << testbed.graph().asn_of(deployment.sources[spoofer])
            << "); top-ranked cluster has " << clustering.sizes()[top]
            << " ASes and "
            << (clustering.cluster_of[spoofer] == top
                    ? "contains the spoofer — localized.\n"
                    : "misses the spoofer.\n");
  return 0;
}
