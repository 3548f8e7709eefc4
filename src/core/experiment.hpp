// PeeringTestbed: the §IV experimental setup as a reusable harness.
//
// Emulates the PEERING platform — AS 47065 announcing an experiment prefix
// through the seven Table I muxes/providers — on top of a synthetic
// Internet, and runs the full measurement pipeline per configuration:
// routing, public BGP feeds, RIPE-Atlas-style traceroutes, §IV-b repair,
// catchment inference, and §IV-d visibility handling. Everything is
// deterministic in TestbedConfig::seed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/announcement.hpp"
#include "bgp/catchment.hpp"
#include "bgp/engine.hpp"
#include "bgp/policy.hpp"
#include "core/config_gen.hpp"
#include "core/policy_audit.hpp"
#include "fault/fault.hpp"
#include "journal/journal.hpp"
#include "measure/address_plan.hpp"
#include "measure/driver.hpp"
#include "measure/feed.hpp"
#include "measure/inference.hpp"
#include "measure/ip2as.hpp"
#include "measure/ixp_table.hpp"
#include "measure/repair.hpp"
#include "measure/traceroute.hpp"
#include "measure/visibility.hpp"
#include "topology/synth.hpp"

namespace spooftrack::core {

/// Per-deploy journaling context (journal writer, recovered records);
/// defined in experiment.cpp.
struct DeployJournal;
struct CampaignPlan;

/// Table I: the PEERING muxes and transit providers used in the paper.
struct MuxInfo {
  const char* mux;
  const char* provider_name;
  topology::Asn provider_asn;
};
std::span<const MuxInfo> table1_muxes() noexcept;

/// PEERING's ASN.
inline constexpr topology::Asn kPeeringAsn = 47065;

struct TestbedConfig {
  std::uint64_t seed = 42;

  /// Topology shape; reserved ASNs and origin attachment are filled in by
  /// the testbed from Table I.
  std::uint32_t tier1_count = 8;
  std::uint32_t transit_count = 150;
  std::uint32_t stub_count = 3000;
  /// Path-diversity knobs forwarded to the synthesizer. The defaults give
  /// widespread multihoming and a dense IXP fabric — the Internet's route
  /// diversity is what the paper's techniques feed on.
  double transit_extra_providers = 1.2;
  double stub_extra_providers = 0.9;
  double transit_peering_prob = 0.08;
  double stub_tier1_provider_prob = 0.06;
  /// Attraction bonus for the Table I providers. Large enough to secure a
  /// rich poison-target neighbourhood (paper: 347), small enough that the
  /// providers stay regional networks rather than mega-hubs whose shared
  /// customers would form unsplittable clusters.
  double provider_attract_bonus = 8.0;
  /// Table I providers enter the transit build order at this fraction:
  /// mid-pack regional networks, not global hubs (see synth.hpp).
  double provider_position_fraction = 0.5;

  bgp::PolicyConfig policy;
  measure::FeedOptions feed;
  measure::TracerouteOptions traceroute;
  measure::Ip2AsOptions ip2as;

  /// Fault model for the measurement plane (docs/faults.md). All
  /// probabilities default to zero, which is a provable no-op: every
  /// deployment output is bit-identical to a build without the fault
  /// layer. Faults degrade *measurements* — feeds, traceroutes, deploy
  /// attempts — never the routing ground truth, so `truth`,
  /// `engine_rounds`, and `min_route_distance` are invariant under any
  /// plan. The injector seed is salted with TestbedConfig::seed, like
  /// every other component seed.
  fault::FaultPlan faults;

  /// Crash-consistent campaign journal (docs/checkpointing.md). An empty
  /// dir disables journaling entirely. With a dir set, deploy() commits one
  /// checksummed record carrying the measured row per configuration as its
  /// measurement completes; with journal.resume it first replays the
  /// journal, skips committed configurations, and decodes their recorded
  /// rows back in — byte-identical to an uninterrupted run for any worker
  /// count and pipeline depth.
  /// Requires measured_catchments (ground-truth deployments have no
  /// per-configuration measurement to checkpoint; deploy() throws
  /// std::invalid_argument).
  journal::JournalOptions journal;

  std::uint32_t probe_count = 1200;      // RIPE Atlas probes (distinct ASes)
  std::uint32_t traceroute_rounds = 3;   // rounds per configuration (§IV-b)
  std::uint32_t ixp_count = 12;
  double ixp_edge_fraction = 0.5;

  /// Worker threads of the deploy executor, which runs the propagation
  /// chains, the measurements and the commits (0 = the
  /// util::default_worker_count() default). Results are byte-identical for
  /// any value.
  std::size_t measure_workers = 0;

  /// Deploy backpressure: how many propagated-but-unmeasured steps each
  /// chain may run ahead (pipeline::ExecutorOptions::queue_depth). Bounds
  /// peak memory; never changes results. Values below 1 clamp to 1.
  std::size_t pipeline_depth = 2;

  /// true: catchments come from the measured pipeline (§IV); false: ground
  /// truth from the routing engine (for validation and ablations).
  bool measured_catchments = true;
  /// Compute Figure 9 compliance statistics during deployment.
  bool audit_policies = false;
};

struct DeploymentResult {
  std::vector<bgp::Configuration> configs;
  /// Ground-truth catchments per configuration (always available).
  std::vector<bgp::CatchmentMap> truth;
  /// Measured inference per configuration (empty when ground truth is
  /// selected in the config).
  std::vector<measure::InferenceResult> measured;
  /// The analysis source set (§IV-d baseline) and its catchment matrix
  /// (rows = configurations, columns = sources, visibility-imputed).
  std::vector<topology::AsId> sources;
  measure::CatchmentStore matrix;
  /// Per AsId: minimum collapsed AS-hop distance to the origin observed
  /// across all configurations (Figure 7's distance).
  std::vector<std::uint32_t> min_route_distance;
  /// Per-configuration compliance statistics (when audited).
  std::vector<ComplianceStats> compliance;
  /// Jacobi rounds per configuration. Configurations warm-started along a
  /// campaign chain (core::ChainStepper) report the rounds of their
  /// incremental re-propagation, not a cold convergence.
  std::vector<std::uint32_t> engine_rounds;
  /// Mean over configurations of the multi-catchment fraction (§IV-c).
  double mean_multi_catchment = 0.0;
  /// Mean number of ASes covered by measurements per configuration.
  double mean_coverage = 0.0;
  /// Configurations whose measurement was skipped because a resumed journal
  /// had already committed them (0 unless TestbedConfig::journal.resume).
  std::uint64_t resumed_configs = 0;
  /// Per-configuration measurement quality (empty when the fault plan has
  /// every probability at zero). A kFailed entry means deployment was
  /// abandoned after exhausting the retry budget: its `measured` slot is a
  /// sized-but-empty inference (nothing observed) and its matrix row stays
  /// all-missing — "missing measurement", distinct from a measured config
  /// whose sources merely cast no vote.
  std::vector<fault::ConfigQuality> quality;
};

class PeeringTestbed {
 public:
  explicit PeeringTestbed(TestbedConfig config = {});

  const TestbedConfig& config() const noexcept { return config_; }
  const topology::AsGraph& graph() const noexcept { return topo_.graph; }
  const topology::SynthTopology& topology() const noexcept { return topo_; }
  const bgp::OriginSpec& origin() const noexcept { return origin_; }
  topology::AsId origin_id() const noexcept { return origin_id_; }
  const bgp::Engine& engine() const noexcept { return engine_; }
  const bgp::RoutingPolicy& policy() const noexcept { return policy_; }
  const std::vector<topology::AsId>& probe_ases() const noexcept {
    return probes_;
  }
  /// The testbed's fault source (disabled when the plan is all-zero).
  /// Exposed so traffic-plane components (e.g. AmpPotHoneypot) can share
  /// the same schedule: testbed.fault_injector() with a caller-chosen salt.
  const fault::FaultInjector& fault_injector() const noexcept {
    return injector_;
  }

  /// Configuration generator bound to this testbed's origin.
  ConfigGenerator generator(GeneratorOptions options = {}) const {
    return ConfigGenerator(origin_, options);
  }

  /// Routes a single configuration (ground truth; throws on
  /// non-convergence).
  bgp::RoutingOutcome route(const bgp::Configuration& config) const;

  /// Deploys a sequence of configurations through one streaming schedule
  /// (docs/architecture.md, "Pipelined execution"): the campaign plan's
  /// chains propagate serially per chain, each configuration is measured
  /// as soon as its step is produced (ground truth measures nothing), and
  /// rows commit in ascending configuration order. Results are
  /// byte-identical for any worker count and pipeline depth.
  DeploymentResult deploy(std::vector<bgp::Configuration> configs) const;

 private:
  /// The schedule behind deploy(): runs `plan` on the pipeline executor.
  void run_pipeline(DeploymentResult& result, const CampaignPlan& plan,
                    const std::vector<char>& abandoned, bool faulty,
                    DeployJournal* journal) const;

  TestbedConfig config_;
  topology::SynthTopology topo_;
  bgp::OriginSpec origin_;
  topology::AsId origin_id_ = topology::kInvalidAsId;
  bgp::RoutingPolicy policy_;
  bgp::Engine engine_;
  measure::AddressPlan plan_;
  measure::IxpTable ixps_;
  measure::Ip2AsMap ip2as_;
  measure::FeedSimulator feeds_;
  measure::TracerouteSim tracer_;
  measure::PathRepair repair_;
  measure::CatchmentInference inference_;
  fault::FaultInjector injector_;
  std::vector<topology::AsId> probes_;
};

}  // namespace spooftrack::core
