// Persistence for deployment artifacts.
//
// Deploying hundreds of configurations is the expensive step (70 minutes
// each on the real Internet, seconds each in simulation); everything
// downstream — clustering, scheduling, attribution, figure generation — is
// cheap analysis over the catchment matrix. DeploymentArtifact captures
// the deployment's outputs in a versioned binary format so campaigns can
// be measured once and analysed many times (the bench suite and the CLI
// both build on this).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "bgp/announcement.hpp"
#include "core/experiment.hpp"
#include "core/policy_audit.hpp"
#include "measure/catchment_store.hpp"

namespace spooftrack::core {

struct DeploymentArtifact {
  /// Free-form annotations (e.g. phase boundaries, generator options).
  std::vector<std::pair<std::string, std::uint64_t>> annotations;

  std::uint64_t seed = 0;
  std::size_t as_count = 0;
  std::size_t link_count = 0;

  std::vector<bgp::Configuration> configs;
  std::vector<topology::AsId> sources;
  measure::CatchmentStore matrix;  // rows = configs, cols = sources
  std::vector<std::uint32_t> source_distance;
  std::vector<ComplianceStats> compliance;
  double mean_multi_catchment = 0.0;
  double mean_coverage = 0.0;

  std::uint64_t annotation(const std::string& key,
                           std::uint64_t fallback = 0) const;
  void annotate(const std::string& key, std::uint64_t value);

  friend bool operator==(const DeploymentArtifact&,
                         const DeploymentArtifact&) = default;
};

/// Builds an artifact from a deployment (distances restricted to sources).
DeploymentArtifact make_artifact(const DeploymentResult& result,
                                 std::uint64_t seed, std::size_t as_count,
                                 std::size_t link_count);

/// Versioned binary serialization. save throws std::runtime_error on write
/// failure; load throws std::runtime_error on corrupt/mismatched input,
/// including parts whose shapes disagree: matrix rows must equal
/// configs.size(), matrix columns and source_distance.size() must equal
/// sources.size(), and compliance is empty or one entry per configuration.
void save_artifact(const DeploymentArtifact& artifact, std::ostream& out);
DeploymentArtifact load_artifact(std::istream& in);

/// File convenience wrappers.
void save_artifact_file(const DeploymentArtifact& artifact,
                        const std::string& path);
DeploymentArtifact load_artifact_file(const std::string& path);

}  // namespace spooftrack::core
