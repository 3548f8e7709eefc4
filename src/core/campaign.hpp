// Measurement-campaign time model (§IV-a, §V-C).
//
// The paper keeps each announcement configuration active for 70 minutes:
// BGP convergence (under 2.5 minutes 99% of the time, per LIFEGUARD) plus
// enough time for three traceroute rounds at the RIPE Atlas 20-minute
// cadence. Deploying 705 configurations therefore takes weeks — unless the
// origin splits the plan across multiple experiment prefixes announced
// concurrently (§V-C), trading IPv4 space for wall-clock time.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/engine.hpp"

namespace spooftrack::core {

struct CampaignModel {
  /// Minutes each configuration stays deployed.
  double minutes_per_config = 70.0;
  /// Of which: worst-case convergence wait before measuring.
  double convergence_minutes = 2.5;
  /// Traceroute rounds per configuration and their cadence.
  std::uint32_t traceroute_rounds = 3;
  double traceroute_cadence_minutes = 20.0;
  /// Concurrently announced experiment prefixes (1 = the paper's setup).
  std::uint32_t concurrent_prefixes = 1;

  /// Whether the dwell time actually fits the measurement schedule.
  bool feasible() const noexcept {
    return minutes_per_config >=
           convergence_minutes +
               traceroute_rounds * traceroute_cadence_minutes;
  }

  /// Total wall-clock minutes to deploy `configs` configurations.
  double total_minutes(std::size_t configs) const noexcept;
  double total_days(std::size_t configs) const noexcept {
    return total_minutes(configs) / (60.0 * 24.0);
  }

  /// Prefixes needed to finish `configs` configurations within
  /// `budget_days`; 0 when even infinite parallelism cannot help
  /// (degenerate inputs).
  std::uint32_t prefixes_for_deadline(std::size_t configs,
                                      double budget_days) const noexcept;

  std::string describe(std::size_t configs) const;
};

// ---------------------------------------------------------------------------
// Campaign propagation: static plan + resumable chain stepper
//
// Configurations within a campaign differ only in their seed routes (link
// subsets, prepends, poisons, no-export targets), so re-propagating every AS
// from scratch per configuration wastes almost all of the work. The plan
// amortizes it three ways:
//
//   1. memoization — configurations with identical announcement lists have
//      identical seed tables, hence identical routing outcomes: propagate
//      once, fan the outcome out;
//   2. similarity ordering — greedy nearest-neighbor over announcement
//      specs (config_gen's seed_distance) so consecutive configurations
//      differ in as few seeds as possible;
//   3. warm-start chains — each chain propagates a contiguous run of the
//      ordered plan with Engine::run_warm, re-routing only the delta ripple
//      of each step; only chain heads pay a cold propagation.
//
// The plan is data and ChainStepper walks one chain of it, so the caller
// drives the chains: PeeringTestbed::deploy (core/experiment) interleaves
// chain steps with measurement and analysis through the pipeline executor.
// Outcomes are bit-identical to per-config cold propagation (best routes,
// next hops, announcement ids — Engine::run_warm's equivalence guarantee),
// whichever chain partition the plan uses.
// ---------------------------------------------------------------------------

/// Cold/warm propagation and round accounting of one chain.
struct CampaignRunStats {
  std::size_t cold_runs = 0;  // chain heads, steps after unconverged ones
  std::size_t warm_runs = 0;  // warm-started propagations
  /// Sum of Jacobi rounds across all propagations (cold + warm); the
  /// headline measure of how much iteration work warm-starting saved.
  std::uint64_t total_rounds = 0;
};

struct CampaignPlan {
  /// Representative configuration index per distinct announcement list.
  std::vector<std::size_t> unique;
  /// Per unique slot: every configuration index sharing its outcome.
  std::vector<std::vector<std::size_t>> fanout;
  /// Per chain: the unique slots it propagates, in step order — a
  /// contiguous slice of the similarity order.
  std::vector<std::vector<std::size_t>> chain_steps;
  bool ordered = false;  // similarity ordering was applied

  std::size_t chains() const noexcept { return chain_steps.size(); }
};

/// Builds the campaign plan for `configs`: memoization, similarity ordering
/// (skipped above 4096 unique configurations, where its O(n^2) cost would
/// dominate), chain partitioning. Pure planning — no propagation runs. The
/// chain count is util::default_worker_count() clamped to the number of
/// unique configurations; it never depends on who executes the plan.
CampaignPlan plan_campaign(const std::vector<bgp::Configuration>& configs);

/// Steps one chain of a CampaignPlan: each step() propagates the chain's
/// next unique slot, warm-started from the previous step's outcome when
/// that one converged and cold otherwise. The stepper owns its latest
/// outcome and moves it into the next warm run, so a returned reference
/// stays valid only until the next step(). The plan and configs must
/// outlive the stepper; a stepper is driven from one thread at a time (the
/// executor's per-chain produce serialization provides exactly that).
/// Throws whatever the engine throws.
class ChainStepper {
 public:
  ChainStepper(const bgp::Engine& engine, const bgp::OriginSpec& origin,
               const std::vector<bgp::Configuration>& configs,
               const CampaignPlan& plan, std::size_t chain);

  bool done() const noexcept { return pos_ >= steps_->size(); }
  /// Unique slot the next step() will propagate (undefined when done()).
  std::size_t next_slot() const noexcept { return (*steps_)[pos_]; }

  /// Propagates the next step and returns its outcome.
  const bgp::RoutingOutcome& step();

  /// Cold/warm run and round accounting for the steps taken so far.
  const CampaignRunStats& stats() const noexcept { return stats_; }

 private:
  const bgp::Engine* engine_;
  const bgp::OriginSpec* origin_;
  const std::vector<bgp::Configuration>* configs_;
  const CampaignPlan* plan_;
  const std::vector<std::size_t>* steps_;
  std::size_t pos_ = 0;
  /// The latest step's outcome; default-constructed (unconverged) before
  /// the first step, so the chain head runs cold.
  bgp::RoutingOutcome outcome_;
  const bgp::Configuration* prev_config_ = nullptr;
  std::optional<bgp::Engine::Prepared> prev_prep_;
  CampaignRunStats stats_;
};

}  // namespace spooftrack::core
