#include "core/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/config_gen.hpp"
#include "obs/obs.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace spooftrack::core {

double CampaignModel::total_minutes(std::size_t configs) const noexcept {
  if (configs == 0 || concurrent_prefixes == 0) return 0.0;
  const auto batches = static_cast<double>(
      (configs + concurrent_prefixes - 1) / concurrent_prefixes);
  return batches * minutes_per_config;
}

std::uint32_t CampaignModel::prefixes_for_deadline(
    std::size_t configs, double budget_days) const noexcept {
  if (configs == 0) return 1;
  if (budget_days <= 0.0 || minutes_per_config <= 0.0) return 0;
  const double budget_minutes = budget_days * 24.0 * 60.0;
  const double batches = std::floor(budget_minutes / minutes_per_config);
  if (batches < 1.0) return 0;  // even one batch does not fit
  const double prefixes =
      std::ceil(static_cast<double>(configs) / batches);
  return static_cast<std::uint32_t>(prefixes);
}

namespace {

/// Prefix-free binary key over a configuration's announcement list — the
/// exact inputs that determine its seed table (and hence its routing
/// outcome). Labels are deliberately excluded.
std::string announcement_key(const bgp::Configuration& config) {
  std::string key;
  const auto push = [&key](std::uint32_t v) {
    char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    key.append(bytes, sizeof v);
  };
  push(static_cast<std::uint32_t>(config.announcements.size()));
  for (const bgp::AnnouncementSpec& spec : config.announcements) {
    push(spec.link);
    push(spec.prepend);
    push(static_cast<std::uint32_t>(spec.poisoned.size()));
    for (topology::Asn asn : spec.poisoned) push(asn);
    push(static_cast<std::uint32_t>(spec.no_export_to.size()));
    for (topology::Asn asn : spec.no_export_to) push(asn);
  }
  return key;
}

/// Similarity ordering is O(n^2); larger plans keep their input order.
constexpr std::size_t kMaxOrderingConfigs = 4096;

}  // namespace

CampaignPlan plan_campaign(const std::vector<bgp::Configuration>& configs) {
  CampaignPlan plan;
  if (configs.empty()) return plan;

  // 1. Memoization: one propagation per distinct announcement list, fanned
  //    out to every configuration index that shares it.
  std::unordered_map<std::string, std::size_t> by_key;
  by_key.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto [it, inserted] =
        by_key.emplace(announcement_key(configs[i]), plan.unique.size());
    if (inserted) {
      plan.unique.push_back(i);
      plan.fanout.emplace_back();
    }
    plan.fanout[it->second].push_back(i);
  }
  OBS_COUNT("campaign.unique_configs", plan.unique.size());
  OBS_COUNT("campaign.memo_hits", configs.size() - plan.unique.size());

  // 2. Similarity ordering over the unique configurations so consecutive
  //    chain steps differ in as few seeds as possible.
  std::vector<std::size_t> order(plan.unique.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (plan.unique.size() > 2 && plan.unique.size() <= kMaxOrderingConfigs) {
    OBS_TIMER("campaign.order_ns");
    std::vector<bgp::Configuration> view;
    view.reserve(plan.unique.size());
    for (std::size_t u : plan.unique) view.push_back(configs[u]);
    order = order_by_similarity(view);
    plan.ordered = true;
  }

  // 3. Chain partitioning into contiguous runs of the ordered plan; only
  //    chain heads pay a cold propagation. The chain count depends only on
  //    the resolved worker default and the unique-config count — never on
  //    who executes the plan or with how many executor workers — so
  //    warm-start schedules and round counts are fixed by the plan alone.
  const std::size_t chains =
      std::min(util::default_worker_count(), plan.unique.size());
  plan.chain_steps.resize(chains);
  for (std::size_t c = 0; c < chains; ++c) {
    const std::size_t begin = c * plan.unique.size() / chains;
    const std::size_t end = (c + 1) * plan.unique.size() / chains;
    plan.chain_steps[c].assign(order.begin() + begin, order.begin() + end);
  }
  OBS_COUNT("campaign.chains", chains);
  for (const std::vector<std::size_t>& steps : plan.chain_steps) {
    OBS_HIST("campaign.chain_length", "configs", steps.size());
  }
  return plan;
}

ChainStepper::ChainStepper(const bgp::Engine& engine,
                           const bgp::OriginSpec& origin,
                           const std::vector<bgp::Configuration>& configs,
                           const CampaignPlan& plan, std::size_t chain)
    : engine_(&engine),
      origin_(&origin),
      configs_(&configs),
      plan_(&plan),
      steps_(&plan.chain_steps[chain]) {}

const bgp::RoutingOutcome& ChainStepper::step() {
  const std::size_t u = (*steps_)[pos_++];
  const bgp::Configuration& config = (*configs_)[plan_->unique[u]];
  OBS_TIMER("campaign.config_ns");
  // Each configuration's seed table is prepared exactly once and handed to
  // the next step as the baseline table — chained warm runs never
  // re-validate or rebuild one.
  bgp::Engine::Prepared prep = engine_->prepare(*origin_, config);
  if (outcome_.converged) {
    outcome_ = engine_->run_warm(*origin_, config, prep, *prev_config_,
                                 *prev_prep_, std::move(outcome_));
    ++stats_.warm_runs;
  } else {
    outcome_ = engine_->run(*origin_, prep);
    ++stats_.cold_runs;
  }
  stats_.total_rounds += outcome_.rounds;
  prev_config_ = &config;
  prev_prep_ = std::move(prep);
  return outcome_;
}

std::string CampaignModel::describe(std::size_t configs) const {
  std::string out;
  out += std::to_string(configs) + " configs x " +
         util::fmt_double(minutes_per_config, 0) + " min";
  if (concurrent_prefixes > 1) {
    out += " / " + std::to_string(concurrent_prefixes) + " prefixes";
  }
  out += " = " + util::fmt_double(total_days(configs), 1) + " days";
  return out;
}

}  // namespace spooftrack::core
