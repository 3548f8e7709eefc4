// Campaign report generation: renders a deployment artifact into a
// self-contained Markdown report an operator (or an anti-spoofing body
// driving BCP38 adoption, the paper's §I audience) can read without
// running any code — topology and plan shape, cluster statistics and the
// heavy tail, policy-compliance summary, and localization readiness.
#pragma once

#include <iosfwd>
#include <string>

#include "core/io.hpp"

namespace spooftrack::core {

struct ReportOptions {
  /// Clusters larger than this land in the "requires attention" tail.
  std::uint32_t tail_threshold = 5;
  /// Steps of greedy schedule to include as a runbook.
  std::size_t runbook_steps = 10;
};

/// Writes the Markdown report to `out`.
void write_report(const DeploymentArtifact& artifact, std::ostream& out,
                  const ReportOptions& options = {});

/// Convenience: report as a string.
std::string render_report(const DeploymentArtifact& artifact,
                          const ReportOptions& options = {});

}  // namespace spooftrack::core
