#include "core/report.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "core/cluster.hpp"
#include "core/scheduler.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace spooftrack::core {

namespace {

/// How many of the largest clusters the heavy-tail table itemizes.
constexpr std::size_t kTailItems = 10;

}  // namespace

void write_report(const DeploymentArtifact& artifact, std::ostream& out,
                  const ReportOptions& options) {
  const auto clustering = cluster_sources(artifact.matrix);
  const auto sizes = clustering.sizes();

  out << "# Spoofed-source localization campaign report\n\n";
  out << "Deterministic seed: `" << artifact.seed << "`\n\n";

  // --- campaign shape -------------------------------------------------------
  out << "## Campaign\n\n";
  out << "| | |\n|---|---|\n";
  out << "| topology | " << artifact.as_count << " ASes |\n";
  out << "| peering links | " << artifact.link_count << " |\n";
  out << "| configurations deployed | " << artifact.configs.size() << " |\n";
  const auto location_end = artifact.annotation("location_end");
  const auto prepend_end = artifact.annotation("prepend_end");
  if (prepend_end > 0) {
    out << "| phases | " << location_end << " location / "
        << (prepend_end - location_end) << " prepending / "
        << (artifact.configs.size() - prepend_end) << " steering |\n";
  }
  out << "| analysis sources | " << artifact.sources.size() << " |\n";
  out << "| mean per-config coverage | "
      << util::fmt_double(artifact.mean_coverage, 1) << " ASes |\n";
  out << "| multi-catchment ASes | "
      << util::fmt_percent(artifact.mean_multi_catchment) << " |\n\n";

  // --- localization quality -------------------------------------------------
  std::size_t singletons = 0, tail_clusters = 0, tail_ases = 0;
  std::uint32_t largest = 0;
  for (std::uint32_t s : sizes) {
    singletons += s == 1;
    largest = std::max(largest, s);
    if (s > options.tail_threshold) {
      ++tail_clusters;
      tail_ases += s;
    }
  }
  out << "## Localization quality\n\n";
  out << "| | |\n|---|---|\n";
  out << "| clusters | " << clustering.cluster_count << " |\n";
  out << "| mean cluster size | "
      << util::fmt_double(clustering.mean_size(), 2) << " ASes |\n";
  out << "| singleton clusters | "
      << util::fmt_percent(clustering.cluster_count == 0
                               ? 0.0
                               : static_cast<double>(singletons) /
                                     clustering.cluster_count)
      << " |\n";
  out << "| clusters larger than " << options.tail_threshold << " ASes | "
      << tail_clusters << " (holding " << tail_ases << " ASes) |\n";
  out << "| largest cluster | " << largest << " ASes |\n\n";

  if (tail_clusters > 0) {
    out << "### Heavy tail (candidates for targeted splitting)\n\n";
    std::vector<std::uint32_t> order(clustering.cluster_count);
    for (std::uint32_t c = 0; c < clustering.cluster_count; ++c) order[c] = c;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return sizes[a] > sizes[b];
              });
    out << "| cluster | ASes |\n|---|---|\n";
    for (std::size_t i = 0;
         i < kTailItems && i < order.size() &&
         sizes[order[i]] > options.tail_threshold;
         ++i) {
      out << "| " << order[i] << " | " << sizes[order[i]] << " |\n";
    }
    out << "\nUse `core::propose_splits` (or rerun with the community "
           "phase enabled) to attack these.\n\n";
  }

  // --- policy compliance ----------------------------------------------------
  if (!artifact.compliance.empty()) {
    util::Accumulator best_rel, both;
    for (const auto& stats : artifact.compliance) {
      if (stats.audited == 0) continue;
      best_rel.add(stats.best_relationship_fraction());
      both.add(stats.both_fraction());
    }
    out << "## Routing-policy compliance (Gao-Rexford audit)\n\n";
    out << "| criterion | mean | min |\n|---|---|---|\n";
    out << "| best relationship | " << util::fmt_percent(best_rel.mean())
        << " | " << util::fmt_percent(best_rel.min()) << " |\n";
    out << "| + shortest path | " << util::fmt_percent(both.mean()) << " | "
        << util::fmt_percent(both.min()) << " |\n\n";
  }

  // --- runbook ---------------------------------------------------------------
  if (options.runbook_steps > 0 && !artifact.matrix.empty()) {
    const auto schedule =
        greedy_schedule(artifact.matrix, options.runbook_steps);
    out << "## Attack-time runbook (greedy order over pre-measured "
           "catchments)\n\n";
    out << "When spoofed traffic appears, deploy in this order and compare "
           "per-link volumes\nagainst the recorded catchments:\n\n";
    out << "| step | configuration | expected mean cluster size |\n";
    out << "|---|---|---|\n";
    for (std::size_t k = 0; k < schedule.order.size(); ++k) {
      out << "| " << (k + 1) << " | `"
          << artifact.configs[schedule.order[k]].label << "` | "
          << util::fmt_double(schedule.mean_cluster_size[k], 2) << " |\n";
    }
    out << "\n";
  }
}

std::string render_report(const DeploymentArtifact& artifact,
                          const ReportOptions& options) {
  std::ostringstream out;
  write_report(artifact, out, options);
  return out.str();
}

}  // namespace spooftrack::core
