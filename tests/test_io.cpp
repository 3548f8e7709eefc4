#include "core/io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "oracles.hpp"

namespace spooftrack::core {
namespace {

DeploymentArtifact sample_artifact() {
  DeploymentArtifact artifact;
  artifact.seed = 1234;
  artifact.as_count = 99;
  artifact.link_count = 3;
  artifact.mean_multi_catchment = 0.0228;
  artifact.mean_coverage = 1885.0;
  artifact.annotate("location_end", 64);
  artifact.annotate("prepend_end", 358);

  bgp::Configuration config;
  config.label = "loc {l0,l1} prep {l1}";
  config.announcements.push_back({0, 0, {}, {}});
  config.announcements.push_back({1, 4, {3356}, {64500}});
  artifact.configs.push_back(config);
  bgp::Configuration second;
  second.label = "poison";
  second.announcements.push_back({2, 0, {1299, 174}, {}});
  artifact.configs.push_back(second);

  artifact.sources = {5, 9, 61};
  artifact.source_distance = {1, 2, 7};
  ComplianceStats stats;
  stats.audited = 90;
  stats.best_relationship = 88;
  stats.both_criteria = 80;
  artifact.compliance = {stats, stats};
  artifact.matrix = test::store_of({{0, 1, bgp::kNoCatchment}, {2, 2, 0}});
  return artifact;
}

TEST(ArtifactIo, RoundTripsEverything) {
  const auto original = sample_artifact();
  std::stringstream buffer;
  save_artifact(original, buffer);
  const auto reloaded = load_artifact(buffer);
  EXPECT_EQ(reloaded, original);
}

TEST(ArtifactIo, AnnotationAccess) {
  auto artifact = sample_artifact();
  EXPECT_EQ(artifact.annotation("location_end"), 64u);
  EXPECT_EQ(artifact.annotation("missing", 7), 7u);
  artifact.annotate("location_end", 65);
  EXPECT_EQ(artifact.annotation("location_end"), 65u);
  EXPECT_EQ(artifact.annotations.size(), 2u);  // updated in place
}

TEST(ArtifactIo, RejectsGarbage) {
  std::stringstream buffer("this is not an artifact at all............");
  EXPECT_THROW(load_artifact(buffer), std::runtime_error);
}

TEST(ArtifactIo, RejectsTruncation) {
  const auto original = sample_artifact();
  std::stringstream buffer;
  save_artifact(original, buffer);
  const std::string full = buffer.str();
  // Chop at several points; every cut must throw, never crash.
  for (std::size_t cut : {8u, 20u, 60u, 100u}) {
    if (cut >= full.size()) continue;
    std::stringstream chopped(full.substr(0, cut));
    EXPECT_THROW(load_artifact(chopped), std::runtime_error) << cut;
  }
}

TEST(ArtifactIo, FuzzEveryTruncationAndByteFlip) {
  // v2's CRC32C trailer makes corruption detection exhaustive, so the test
  // can be too: every prefix truncation and every single-byte flip of a
  // serialized artifact must throw — never crash, never deserialize quietly
  // into garbage.
  const auto original = sample_artifact();
  std::stringstream buffer;
  save_artifact(original, buffer);
  const std::string full = buffer.str();
  ASSERT_GT(full.size(), 4u);

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::stringstream chopped(full.substr(0, cut));
    EXPECT_THROW(load_artifact(chopped), std::runtime_error)
        << "truncated at " << cut;
  }
  for (std::size_t at = 0; at < full.size(); ++at) {
    std::string flipped = full;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
    std::stringstream corrupted(flipped);
    EXPECT_THROW(load_artifact(corrupted), std::runtime_error)
        << "flipped byte " << at;
  }
}

TEST(ArtifactIo, RejectsWrongVersion) {
  const auto original = sample_artifact();
  std::stringstream buffer;
  save_artifact(original, buffer);
  std::string bytes = buffer.str();
  bytes[8] ^= 0x01;  // flip a version bit (after the 8-byte magic)
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load_artifact(corrupted), std::runtime_error);
}

TEST(ArtifactIo, FileRoundTrip) {
  const auto original = sample_artifact();
  const std::string path = "/tmp/spooftrack_io_test.artifact";
  save_artifact_file(original, path);
  const auto reloaded = load_artifact_file(path);
  EXPECT_EQ(reloaded, original);
  EXPECT_THROW(load_artifact_file("/nonexistent/nope.artifact"),
               std::runtime_error);
}

TEST(ArtifactIo, EmptyArtifactRoundTrips) {
  DeploymentArtifact empty;
  std::stringstream buffer;
  save_artifact(empty, buffer);
  const auto reloaded = load_artifact(buffer);
  EXPECT_EQ(reloaded, empty);
}

/// Saves `artifact` — well-formed bytes, matching checksum — and requires
/// that loading rejects it with a message naming `part`.
void expect_inconsistent(const DeploymentArtifact& artifact,
                         const std::string& part) {
  std::stringstream buffer;
  save_artifact(artifact, buffer);
  try {
    load_artifact(buffer);
    ADD_FAILURE() << "loaded an artifact it should reject for " << part;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(part), std::string::npos)
        << e.what();
  }
}

TEST(ArtifactIo, RejectsMatrixRowsNotMatchingConfigs) {
  auto artifact = sample_artifact();
  artifact.matrix.assign(3, artifact.sources.size());
  expect_inconsistent(artifact, "matrix row count");
}

TEST(ArtifactIo, RejectsMatrixColumnsNotMatchingSources) {
  auto artifact = sample_artifact();
  artifact.matrix.assign(artifact.configs.size(), 4);
  expect_inconsistent(artifact, "matrix column count");
}

TEST(ArtifactIo, RejectsDistancesNotMatchingSources) {
  auto artifact = sample_artifact();
  artifact.source_distance.resize(2);
  expect_inconsistent(artifact, "source distance count");
}

TEST(ArtifactIo, RejectsComplianceNotMatchingConfigs) {
  auto artifact = sample_artifact();
  artifact.compliance.resize(1);
  expect_inconsistent(artifact, "compliance entry count");
}

TEST(ArtifactIo, RejectsLinksOutOfRange) {
  auto artifact = sample_artifact();
  artifact.link_count = bgp::kMaxCatchmentLinks + 1;
  expect_inconsistent(artifact, "link count 63 exceeds 62");
  artifact = sample_artifact();
  artifact.configs[1].announcements[0].link = 3;  // link_count is 3
  expect_inconsistent(artifact, "announcement link 3");
}

TEST(ArtifactIo, MakeArtifactFromDeployment) {
  TestbedConfig config;
  config.seed = 3;
  config.stub_count = 200;
  config.transit_count = 30;
  config.tier1_count = 4;
  config.measured_catchments = false;
  const PeeringTestbed testbed(config);
  auto plan = testbed.generator().location_phase();
  plan.resize(3);
  const auto result = testbed.deploy(plan);

  const auto artifact = make_artifact(result, config.seed,
                                      testbed.graph().size(),
                                      testbed.origin().links.size());
  EXPECT_EQ(artifact.configs.size(), 3u);
  EXPECT_EQ(artifact.matrix.size(), 3u);
  EXPECT_EQ(artifact.sources, result.sources);
  EXPECT_EQ(artifact.source_distance.size(), result.sources.size());
  EXPECT_EQ(artifact.link_count, 7u);

  // Round trip the real thing too.
  std::stringstream buffer;
  save_artifact(artifact, buffer);
  EXPECT_EQ(load_artifact(buffer), artifact);
}

}  // namespace
}  // namespace spooftrack::core
