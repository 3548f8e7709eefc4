// Ablation: targeted poisoning to split the large-cluster tail (the
// paper's §V-B future work). After the location+prepending baseline, we
// compare spending K extra configurations on (a) generic poison-phase
// configurations vs (b) splitter-proposed targeted poisons aimed at the
// biggest clusters, and report what happens to the tail.
#include <iostream>

#include "common.hpp"
#include "core/cluster.hpp"
#include "core/config_gen.hpp"
#include "core/experiment.hpp"
#include "core/splitter.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

struct TailStats {
  std::uint32_t clusters = 0;
  double mean = 0.0;
  std::uint32_t largest = 0;
  std::uint32_t over5 = 0;
};

TailStats tail_of(const spooftrack::core::ClusterTracker& tracker) {
  TailStats stats;
  const auto sizes = tracker.current().sizes();
  stats.clusters = tracker.cluster_count();
  stats.mean = tracker.mean_cluster_size();
  for (std::uint32_t s : sizes) {
    stats.largest = std::max(stats.largest, s);
    stats.over5 += s > 5;
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spooftrack;
  const auto options = bench::BenchOptions::parse(argc, argv);

  core::TestbedConfig config = options.testbed_config();
  config.measured_catchments = false;
  const core::PeeringTestbed testbed(config);

  // Baseline: location + prepending.
  auto baseline = testbed.generator().location_phase();
  const auto prepends = testbed.generator().prepend_phase(baseline);
  baseline.insert(baseline.end(), prepends.begin(), prepends.end());
  const auto base = testbed.deploy(baseline);

  core::ClusterTracker base_tracker(base.sources.size());
  for (const auto& row : base.matrix) base_tracker.refine(row);
  const TailStats before = tail_of(base_tracker);

  const std::size_t extra_budget = 24;

  // (a) Control: the next `extra_budget` generic poison configurations.
  core::GeneratorOptions gen;
  gen.max_poison_configs = extra_budget;
  auto generic = testbed.generator(gen).poison_phase(testbed.graph());

  // (b) Splitter: targeted proposals from the all-links outcome.
  const auto all_links = baseline.front();
  const auto outcome = testbed.route(all_links);
  core::SplitterOptions split_options;
  split_options.max_proposals = extra_budget;
  split_options.per_cluster = 2;
  const auto proposals = core::propose_splits(
      testbed.engine(), testbed.origin(), all_links, outcome,
      base_tracker.current(), base.sources, split_options);
  std::vector<bgp::Configuration> targeted;
  for (const auto& proposal : proposals) {
    targeted.push_back(proposal.to_poison_config(testbed.origin()));
  }

  // (c) Splitter realised with no-export communities.
  core::SplitterOptions community_options = split_options;
  community_options.use_communities = true;
  const auto community_proposals = core::propose_splits(
      testbed.engine(), testbed.origin(), all_links, outcome,
      base_tracker.current(), base.sources, community_options);
  std::vector<bgp::Configuration> targeted_communities;
  for (const auto& proposal : community_proposals) {
    targeted_communities.push_back(
        proposal.to_community_config(testbed.origin()));
  }

  auto extend = [&](std::vector<bgp::Configuration> extra) {
    core::ClusterTracker tracker(base.sources.size());
    for (const auto& row : base.matrix) tracker.refine(row);
    const auto result = testbed.deploy(std::move(extra));
    for (const auto& truth : result.truth) {
      const auto cells = truth.cells();
      std::vector<std::uint8_t> row(base.sources.size());
      for (std::size_t s = 0; s < base.sources.size(); ++s) {
        row[s] = cells[base.sources[s]];
      }
      tracker.refine(row);
    }
    return tail_of(tracker);
  };

  const TailStats with_generic = extend(std::move(generic));
  const TailStats with_targeted = extend(std::move(targeted));
  const TailStats with_communities = extend(std::move(targeted_communities));

  util::print_banner(std::cout,
                     "Splitting the large-cluster tail with " +
                         std::to_string(extra_budget) +
                         " extra configurations");
  util::Table table({"scenario", "clusters", "mean size", "largest cluster",
                     "clusters >5 ASes"});
  auto add = [&](const char* name, const TailStats& stats) {
    table.add_row({name, std::to_string(stats.clusters),
                   util::fmt_double(stats.mean, 3),
                   std::to_string(stats.largest),
                   std::to_string(stats.over5)});
  };
  add("baseline (loc+prepend)", before);
  add("+ generic poisoning", with_generic);
  add("+ targeted poison splits", with_targeted);
  add("+ targeted no-export splits", with_communities);
  table.print(std::cout);

  std::cout << "\ntargeted proposals used: " << proposals.size() << "; top "
               "proposal: cluster of "
            << (proposals.empty() ? 0 : proposals.front().cluster_size)
            << " ASes, poisoning AS"
            << (proposals.empty() ? 0 : proposals.front().target)
            << " moves "
            << (proposals.empty() ? 0 : proposals.front().members_moved)
            << " members\n";
  return bench::finish(options, "ablation_split_tail");
}
