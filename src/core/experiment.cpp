#include "core/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "core/campaign.hpp"
#include "obs/obs.hpp"
#include "pipeline/pipeline.hpp"
#include "topology/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace spooftrack::core {

namespace {

constexpr MuxInfo kTable1[] = {
    {"AMS-IX", "Bit BV", 12859},
    {"GRNet", "GRNet", 5408},
    {"USC/ISI", "Los Nettos", 226},
    {"NEU", "Northeastern University", 156},
    {"Seattle-IX", "RGnet", 3130},
    {"UFMG", "RNP", 1916},
    {"UW", "Pacific Northwest GigaPoP", 101},
};

topology::SynthTopology build_topology(const TestbedConfig& config) {
  topology::SynthConfig synth;
  synth.seed = config.seed;
  synth.tier1_count = config.tier1_count;
  synth.transit_count = config.transit_count;
  synth.stub_count = config.stub_count;
  synth.transit_extra_providers = config.transit_extra_providers;
  synth.stub_extra_providers = config.stub_extra_providers;
  synth.transit_peering_prob = config.transit_peering_prob;
  synth.stub_tier1_provider_prob = config.stub_tier1_provider_prob;
  synth.reserved_attract_bonus = config.provider_attract_bonus;
  synth.reserved_position_fraction = config.provider_position_fraction;
  synth.origin_asn = kPeeringAsn;
  for (const MuxInfo& mux : kTable1) {
    synth.reserved_transit_asns.push_back(mux.provider_asn);
  }
  return topology::synthesize(synth);
}

bgp::OriginSpec build_origin() {
  bgp::OriginSpec origin;
  origin.asn = kPeeringAsn;
  bgp::LinkId id = 0;
  for (const MuxInfo& mux : kTable1) {
    origin.links.push_back({id++, mux.mux, mux.provider_asn});
  }
  return origin;
}

bgp::PolicyConfig patched_policy(const TestbedConfig& config) {
  bgp::PolicyConfig p = config.policy;
  p.seed = util::hash_combine(config.seed, p.seed);
  return p;
}

measure::TracerouteOptions patched_traceroute(const TestbedConfig& config) {
  measure::TracerouteOptions t = config.traceroute;
  t.seed = util::hash_combine(config.seed, t.seed);
  return t;
}

fault::FaultPlan patched_faults(const TestbedConfig& config) {
  fault::FaultPlan f = config.faults;
  f.seed = util::hash_combine(config.seed, f.seed);
  return f;
}

}  // namespace

std::span<const MuxInfo> table1_muxes() noexcept { return kTable1; }

PeeringTestbed::PeeringTestbed(TestbedConfig config)
    : config_(config),
      topo_(build_topology(config_)),
      origin_(build_origin()),
      policy_(topo_.graph, patched_policy(config_)),
      engine_(topo_.graph, policy_),
      plan_(topo_.graph),
      ixps_(topo_.graph, config_.ixp_count, config_.ixp_edge_fraction,
            util::hash_combine(config_.seed, 0x1A9)),
      ip2as_(measure::Ip2AsMap::from_plan(
          topo_.graph, plan_, kPeeringAsn,
          {config_.ip2as.missing_fraction,
           util::hash_combine(config_.seed, config_.ip2as.seed)})),
      feeds_(topo_.graph,
             {config_.feed.peer_count, config_.feed.large_cone_bias,
              util::hash_combine(config_.seed, config_.feed.seed)}),
      tracer_(topo_.graph, plan_, ixps_, patched_traceroute(config_)),
      repair_(topo_.graph, ip2as_, ixps_, kPeeringAsn),
      inference_(topo_.graph, origin_),
      injector_(patched_faults(config_)) {
  const auto id = topo_.graph.id_of(kPeeringAsn);
  if (!id) throw std::logic_error("origin missing from topology");
  origin_id_ = *id;

  // The traceroute simulator consults the injector on every run; with an
  // all-zero plan fires() is constant-false, so traces stay bit-identical.
  tracer_.set_fault_injector(&injector_);

  // RIPE Atlas probes: distinct ASes, 80% stubs / 20% transit.
  util::Rng rng{util::hash_combine(config_.seed, 0x9806E5ULL)};
  std::unordered_set<topology::AsId> chosen;
  const std::uint32_t want = std::min<std::uint32_t>(
      config_.probe_count,
      static_cast<std::uint32_t>(topo_.graph.size() - 1));
  std::size_t attempts = 0;
  while (chosen.size() < want && attempts < std::size_t{want} * 20) {
    ++attempts;
    const bool stub = !topo_.stubs.empty() && rng.uniform01() < 0.8;
    const auto& pool = stub || topo_.transit.empty()
                           ? topo_.stubs
                           : topo_.transit;
    if (pool.empty()) break;
    const topology::Asn asn = pool[rng.next_below(pool.size())];
    const auto probe_id = topo_.graph.id_of(asn);
    if (probe_id && *probe_id != origin_id_) chosen.insert(*probe_id);
  }
  probes_.assign(chosen.begin(), chosen.end());
  std::sort(probes_.begin(), probes_.end());
}

bgp::RoutingOutcome PeeringTestbed::route(
    const bgp::Configuration& config) const {
  bgp::RoutingOutcome outcome = engine_.run(origin_, config);
  if (!outcome.converged) {
    throw std::runtime_error("routing did not converge for configuration '" +
                             config.label + "'");
  }
  return outcome;
}

namespace {

/// Collapsed AS-hop distance to the origin along a route's AS-path:
/// consecutive duplicates (prepending) collapse, and counting stops at the
/// first origin occurrence (ignoring the poison sandwich).
std::uint32_t collapsed_distance(bgp::PathArena::View path,
                                 topology::Asn origin_asn) {
  std::uint32_t count = 0;
  topology::Asn prev = 0;
  for (topology::Asn asn : path) {
    if (asn == prev) continue;
    ++count;
    prev = asn;
    if (asn == origin_asn) break;
  }
  return count;
}

/// Folds the driver's per-task fault accounting into the deploy-level
/// quality record (which already knows deployment attempts) and grades it.
void merge_quality(fault::ConfigQuality& into,
                   const fault::ConfigQuality& measured,
                   const fault::FaultPlan& plan) {
  into.feed_entries = measured.feed_entries;
  into.feed_faults = measured.feed_faults;
  into.traces = measured.traces;
  into.trace_faults = measured.trace_faults;
  into.grade = fault::grade_config(into, plan);
}

std::uint64_t hash_double(std::uint64_t h, double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return util::hash_combine(h, bits);
}

/// The campaign identity recorded in every journal segment header. Covers
/// everything that determines deployment *results* — testbed seed, topology
/// shape, measurement plan, fault probabilities/budget/thresholds, and the
/// full configuration plan — and deliberately excludes execution shape
/// (measure_workers, pipeline depth, kill-point settings, the journal
/// options themselves): resuming with different parallelism is supported
/// and byte-identical, while resuming into a different campaign is a
/// deterministic JournalError.
journal::CampaignIdentity campaign_identity(
    const TestbedConfig& config,
    const std::vector<bgp::Configuration>& configs) {
  std::uint64_t h = util::mix64(0x0CA3'BA16ULL ^ config.seed);
  h = util::hash_combine(h, config.tier1_count);
  h = util::hash_combine(h, config.transit_count);
  h = util::hash_combine(h, config.stub_count);
  h = hash_double(h, config.transit_extra_providers);
  h = hash_double(h, config.stub_extra_providers);
  h = hash_double(h, config.transit_peering_prob);
  h = hash_double(h, config.stub_tier1_provider_prob);
  h = hash_double(h, config.provider_attract_bonus);
  h = hash_double(h, config.provider_position_fraction);
  h = util::hash_combine(h, config.probe_count);
  h = util::hash_combine(h, config.traceroute_rounds);
  h = util::hash_combine(h, config.ixp_count);
  h = hash_double(h, config.ixp_edge_fraction);
  // Bit 4u stood for the warm campaign, now the only one; it stays mixed
  // in so that journals written while it was an option still resume.
  h = util::hash_combine(h, (config.measured_catchments ? 1u : 0u) |
                                (config.audit_policies ? 2u : 0u) | 4u);
  const fault::FaultPlan& f = config.faults;
  h = util::hash_combine(h, f.seed);
  h = hash_double(h, f.feed_outage_prob);
  h = hash_double(h, f.feed_stale_prob);
  h = hash_double(h, f.traceroute_loss_prob);
  h = hash_double(h, f.traceroute_truncate_prob);
  h = hash_double(h, f.honeypot_drop_prob);
  h = hash_double(h, f.honeypot_duplicate_prob);
  h = hash_double(h, f.deploy_failure_prob);
  h = util::hash_combine(h, f.deploy_retry_budget);
  h = hash_double(h, f.degraded_feed_fraction);
  h = hash_double(h, f.degraded_trace_fraction);
  for (const bgp::Configuration& c : configs) {
    h = util::hash_combine(h, journal::config_hash(c));
  }
  return {h, configs.size()};
}

}  // namespace

/// Per-deploy journaling context: the writer and, by configuration index,
/// the records recovered on resume (validated against the re-derived plan).
struct DeployJournal {
  DeployJournal(const journal::JournalOptions& options,
                const journal::CampaignIdentity& identity,
                const fault::FaultInjector* injector)
      : writer(options, identity, injector) {}

  journal::JournalWriter writer;
  std::vector<char> completed;                 // per config index
  std::vector<journal::ConfigRecord> records;  // valid when completed
  std::uint64_t skipped = 0;

  /// Commits configuration i: one record carrying its measured row. No-op
  /// for configurations recovered from the journal (idempotent resume).
  /// Called from the serialized commit stage in ascending config order, so
  /// kill-point barrier ordinals are invariant to workers and pipeline
  /// depth.
  void append_config(std::size_t i, const DeploymentResult& result,
                     const std::vector<char>& abandoned, bool faulty) {
    if (completed[i]) return;
    journal::ConfigRecord record;
    record.config_index = i;
    record.config_hash = journal::config_hash(result.configs[i]);
    if (faulty) {
      const fault::ConfigQuality& quality = result.quality[i];
      record.grade = quality.grade;
      record.deploy_attempts = quality.deploy_attempts;
      record.feed_entries = quality.feed_entries;
      record.feed_faults = quality.feed_faults;
      record.traces = quality.traces;
      record.trace_faults = quality.trace_faults;
    }
    const measure::InferenceResult& inferred = result.measured[i];
    record.multi_catchment_fraction = inferred.multi_catchment_fraction;
    if (!abandoned[i]) {
      const std::vector<bgp::LinkId>& links = inferred.catchments.link_of;
      record.row.resize(links.size());
      std::transform(links.begin(), links.end(), record.row.begin(),
                     measure::CatchmentStore::encode);
    }
    writer.append(record);
  }
};

DeploymentResult PeeringTestbed::deploy(
    std::vector<bgp::Configuration> configs) const {
  OBS_TIMER("deploy.total_ns");
  DeploymentResult result;
  result.configs = std::move(configs);
  const std::size_t n = result.configs.size();
  OBS_COUNT("deploy.configs", n);

  const bool journaling = !config_.journal.dir.empty();
  if (journaling && !config_.measured_catchments) {
    throw std::invalid_argument(
        "journaling requires measured catchments: ground-truth deployments "
        "have no per-configuration measurement to checkpoint");
  }

  result.truth.resize(n);
  result.engine_rounds.assign(n, 0);
  if (config_.measured_catchments) result.measured.resize(n);
  if (config_.audit_policies) result.compliance.resize(n);

  // Transient deployment failures with a retry budget. Attempts are drawn
  // up front — draws are stateless, so this serial loop is free and the
  // fault layer never perturbs propagation order or chain assignment. An
  // abandoned configuration keeps its ground truth (faults model the
  // measurement plane, not routing) but gets no measurement.
  const bool faulty = injector_.enabled();
  std::vector<char> abandoned(n, 0);
  if (faulty) {
    result.quality.assign(n, {});
    if (config_.faults.any_deploy()) {
      const std::uint32_t max_attempts =
          1 + config_.faults.deploy_retry_budget;
      std::uint64_t failures = 0;
      std::uint64_t retries = 0;
      std::uint64_t gave_up = 0;
      std::uint64_t backoff_steps = 0;
      std::uint64_t backoff_ms = 0;
      const fault::FaultPlan& fault_plan = injector_.plan();
      for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t failed_attempts = 0;
        while (failed_attempts < max_attempts &&
               injector_.fires(fault::Site::kDeployFailure, i,
                               failed_attempts)) {
          ++failed_attempts;
        }
        failures += failed_attempts;
        // Retry pacing (docs/faults.md): each failed attempt k waits
        // min(cap, base << (k-1)) ms of simulated time, equal-jitter
        // (half fixed, half a seeded uniform draw). The clock never
        // sleeps — the schedule feeds the campaign wall-clock model and
        // the deploy.retry.backoff_* metrics, deterministically.
        for (std::uint32_t k = 1; k <= failed_attempts; ++k) {
          const std::uint64_t raw = std::min<std::uint64_t>(
              fault_plan.deploy_backoff_cap_ms,
              std::uint64_t{fault_plan.deploy_backoff_base_ms}
                  << std::min<std::uint32_t>(k - 1, 32));
          const std::uint64_t half = raw / 2;
          const std::uint64_t jitter =
              half == 0
                  ? 0
                  : injector_.mix(fault::Site::kDeployFailure, i,
                                  0xB0FF'0000ULL + k) %
                        (half + 1);
          backoff_ms += half + jitter;
          ++backoff_steps;
        }
        if (failed_attempts == max_attempts) {
          abandoned[i] = 1;
          ++gave_up;
          retries += max_attempts - 1;
          result.quality[i].deploy_attempts = max_attempts;
          result.quality[i].grade = fault::Grade::kFailed;
        } else {
          retries += failed_attempts;
          result.quality[i].deploy_attempts = failed_attempts + 1;
          // Graded now so ground-truth deployments (no measurement pass)
          // still mark retried configs; re-graded with feed/trace counts
          // after measurement.
          result.quality[i].grade =
              fault::grade_config(result.quality[i], config_.faults);
        }
      }
      OBS_COUNT("fault.deploy.failures", failures);
      OBS_COUNT("fault.deploy.retries", retries);
      OBS_COUNT("fault.deploy.gave_up", gave_up);
      OBS_COUNT("deploy.retry.backoff_steps", backoff_steps);
      OBS_COUNT("deploy.retry.backoff_ms", backoff_ms);
    }
  }

  // The campaign plan (memoization, similarity order, chain partition) is
  // built once per deploy; the schedule propagates along its chains.
  const CampaignPlan plan = plan_campaign(result.configs);

  // Journal setup. A fresh journal just starts segment 0; a resume replays
  // the directory and cross-checks every recovered record against the
  // re-derived plan (config hashes, abandonment, attempt counts — all
  // stateless re-derivations) and its row against the testbed (one byte per
  // AS, each an origin link or kNoCatchment8; no row when abandoned). Any
  // disagreement is a JournalError, never a silently different campaign.
  std::unique_ptr<DeployJournal> journal;
  if (journaling) {
    journal = std::make_unique<DeployJournal>(
        config_.journal, campaign_identity(config_, result.configs),
        &injector_);
    journal->completed.assign(n, 0);
    journal->records.resize(n);
    const std::size_t as_count = topo_.graph.size();
    const std::size_t link_count = origin_.links.size();
    for (journal::ConfigRecord& record : journal->writer.recovered()) {
      const std::size_t i = record.config_index;  // < n (scan-validated)
      const bgp::Configuration& config = result.configs[i];
      if (record.config_hash != journal::config_hash(config)) {
        throw journal::JournalError(
            "journal record does not match configuration '" + config.label +
            "'");
      }
      const std::uint32_t expect_attempts =
          faulty ? result.quality[i].deploy_attempts : 1;
      if (record.abandoned() != (abandoned[i] != 0) ||
          record.deploy_attempts != expect_attempts) {
        throw journal::JournalError(
            "journal record disagrees with the re-derived deploy schedule "
            "for configuration '" +
            config.label + "'");
      }
      const bool row_fits =
          record.abandoned()
              ? record.row.empty()
              : record.row.size() == as_count &&
                    std::all_of(record.row.begin(), record.row.end(),
                                [link_count](std::uint8_t cell) {
                                  return cell < link_count ||
                                         cell == bgp::kNoCatchment8;
                                });
      if (!row_fits) {
        throw journal::JournalError(
            "journal row does not fit the testbed for configuration '" +
            config.label + "'");
      }
      journal->records[i] = std::move(record);
      journal->completed[i] = 1;
      ++journal->skipped;
    }
    journal->writer.recovered().clear();
    result.resumed_configs = journal->skipped;
    if (config_.journal.resume) {
      OBS_COUNT("deploy.resume.runs", 1);
      OBS_COUNT("deploy.resume.skipped_configs", journal->skipped);
    }
  }

  run_pipeline(result, plan, abandoned, faulty, journal.get());

  if (faulty) {
    std::uint64_t degraded = 0;
    std::uint64_t failed = 0;
    for (const fault::ConfigQuality& q : result.quality) {
      degraded += q.grade == fault::Grade::kDegraded ? 1 : 0;
      failed += q.grade == fault::Grade::kFailed ? 1 : 0;
    }
    OBS_COUNT("measure.degraded.configs", degraded);
    OBS_COUNT("measure.degraded.failed_configs", failed);
  }
  return result;
}

void PeeringTestbed::run_pipeline(DeploymentResult& result,
                                  const CampaignPlan& plan,
                                  const std::vector<char>& abandoned,
                                  bool faulty, DeployJournal* journal) const {
  const std::size_t n = result.configs.size();
  const std::size_t as_count = topo_.graph.size();
  const bool measured = config_.measured_catchments;

  // Configurations whose work stage (the measurement) does nothing: every
  // one under ground truth, abandoned ones, and — on a journal resume — the
  // committed ones, whose recorded row is decoded back in at commit.
  // Propagation and commits still cover every index, so chain state and
  // commit order never depend on what is skipped.
  std::vector<char> skip(n, 1);
  if (measured) {
    for (std::size_t i = 0; i < n; ++i) {
      skip[i] = abandoned[i] || (journal != nullptr && journal->completed[i]);
    }
  }

  const std::size_t chains = plan.chains();
  const std::size_t unique_count = plan.unique.size();

  pipeline::ExecutorOptions exec;
  exec.workers = config_.measure_workers;
  exec.queue_depth = config_.pipeline_depth;
  const std::size_t workers = pipeline::effective_workers(exec);

  // Executor graph: produce = one warm-chain propagation step, work = the
  // §IV measurement of one configuration, commit = its analysis row. Every
  // configuration index is an item (skipped ones no-op their work stage so
  // the commit order stays the full ascending index sequence).
  pipeline::GraphPlan graph;
  graph.items = n;
  graph.chain_steps.resize(chains);
  std::vector<std::size_t> slot_of(n, 0);  // config index -> unique slot
  for (std::size_t c = 0; c < chains; ++c) {
    graph.chain_steps[c].reserve(plan.chain_steps[c].size());
    for (const std::size_t u : plan.chain_steps[c]) {
      graph.chain_steps[c].push_back(plan.fanout[u]);
      for (const std::size_t idx : plan.fanout[u]) slot_of[idx] = u;
    }
  }

  // Streaming handoff: the produce stage leases its outcome to the step's
  // measurement items through a Handoff slot. The first work item to run
  // extracts the feed snapshot and probe paths into recycled buffers and
  // drops the outcome (release-publishing `extracted` so the chain may
  // consume — move, not copy — its warm baseline on the next step); the
  // last of the step's live items returns the buffers to the pool. Peak
  // memory is therefore O(chains * queue_depth) outcomes/snapshots instead
  // of O(n), even with a single worker. A step with no live item takes no
  // lease at all, so it never pins its outcome or forces the next warm
  // step to copy its baseline.
  struct HandoffBuffers {
    std::vector<measure::FeedEntry> feeds;
    measure::ProbePathSet paths;
  };
  struct Handoff {
    std::shared_ptr<bgp::RoutingOutcome> outcome;
    std::once_flag once;
    std::atomic<bool> extracted{false};
    std::unique_ptr<HandoffBuffers> buffers;
    std::atomic<std::uint32_t> remaining{0};
  };
  std::vector<Handoff> handoffs(unique_count);

  class BufferPool {
   public:
    std::unique_ptr<HandoffBuffers> acquire() {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++live_;
      peak_ = std::max(peak_, live_);
      if (free_.empty()) return std::make_unique<HandoffBuffers>();
      auto buffers = std::move(free_.back());
      free_.pop_back();
      return buffers;
    }
    void release(std::unique_ptr<HandoffBuffers> buffers) {
      const std::lock_guard<std::mutex> lock(mutex_);
      --live_;
      free_.push_back(std::move(buffers));
    }
    std::size_t peak() const noexcept { return peak_; }

   private:
    std::mutex mutex_;
    std::vector<std::unique_ptr<HandoffBuffers>> free_;
    std::size_t live_ = 0;
    std::size_t peak_ = 0;
  };
  BufferPool pool;

  // Per-chain propagation state (produce calls for one chain are
  // serialized by the executor) and per-chain distance accumulators,
  // min-merged after the run — min is order-independent, so the result
  // does not depend on the chain partition.
  std::vector<ChainStepper> steppers;
  steppers.reserve(chains);
  for (std::size_t c = 0; c < chains; ++c) {
    steppers.emplace_back(engine_, origin_, result.configs, plan, c);
  }
  std::vector<Handoff*> last_handoff(chains, nullptr);
  std::vector<std::vector<std::uint32_t>> chain_min_distance(chains);

  const measure::MeasurementDriver driver(tracer_, repair_, inference_,
                                          probes_, origin_id_,
                                          config_.traceroute_rounds);
  std::vector<measure::MeasurementDriver::Scratch> scratch(workers);
  std::vector<std::vector<measure::FeedEntry>> degraded_feeds(workers);
  std::vector<fault::ConfigQuality> measured_quality;
  if (faulty) measured_quality.assign(n, {});

  // Commit-stage state: commits run serialized in ascending config order,
  // so the first configuration with a row anchors the source set before
  // any later row is written.
  bool anchored = false;
  double multi = 0.0;
  double coverage = 0.0;
  measure::InferenceResult missing;  // shared template for abandoned rows
  if (measured) missing.catchments.link_of.assign(as_count, bgp::kNoCatchment);

  pipeline::Stages stages;
  stages.produce = [&](std::size_t chain, std::size_t) {
    ChainStepper& stepper = steppers[chain];
    const std::size_t u = stepper.next_slot();
    Handoff* prev = last_handoff[chain];
    // Consume the warm baseline only once its lease is provably dropped
    // (acquire pairs with the extractor's release); otherwise the engine
    // copies it — byte-identical either way.
    const bool consume =
        prev == nullptr || prev->extracted.load(std::memory_order_acquire);
    const std::shared_ptr<bgp::RoutingOutcome> outcome =
        stepper.step(consume);
    if (!outcome->converged) {
      throw std::runtime_error(
          "routing did not converge for '" +
          result.configs[plan.unique[u]].label + "'");
    }

    auto& distances = chain_min_distance[chain];
    if (distances.empty()) distances.assign(as_count, topology::kUnreachable);
    for (topology::AsId id = 0; id < as_count; ++id) {
      const bgp::Route& route = outcome->best[id];
      if (route.valid()) {
        distances[id] = std::min(
            distances[id],
            collapsed_distance(outcome->paths->view(route.path), origin_.asn));
      }
    }

    std::uint32_t live = 0;
    for (const std::size_t idx : plan.fanout[u]) {
      OBS_TIMER("deploy.config_pipeline_ns");
      const bgp::Configuration& config = result.configs[idx];
      result.engine_rounds[idx] = outcome->rounds;
      result.truth[idx] = bgp::extract_catchments(*outcome, config);
      if (config_.audit_policies) {
        result.compliance[idx] =
            audit_compliance(engine_, origin_, config, *outcome);
      }
      live += skip[idx] ? 0u : 1u;
    }

    if (live > 0) {
      Handoff& handoff = handoffs[u];
      handoff.outcome = outcome;
      handoff.remaining.store(live, std::memory_order_relaxed);
      last_handoff[chain] = &handoff;
    } else {
      // Nothing will measure this step, so no lease exists: the next step
      // may consume the baseline outright.
      last_handoff[chain] = nullptr;
    }
  };

  stages.work = [&](std::size_t i, std::size_t worker) {
    if (skip[i]) return;
    Handoff& handoff = handoffs[slot_of[i]];
    std::call_once(handoff.once, [&] {
      handoff.buffers = pool.acquire();
      feeds_.collect_into(*handoff.outcome, handoff.buffers->feeds);
      measure::ProbePathSet::extract_into(*handoff.outcome, probes_,
                                          origin_id_, handoff.buffers->paths);
      handoff.outcome.reset();
      handoff.extracted.store(true, std::memory_order_release);
    });
    const std::vector<measure::FeedEntry>* feeds = &handoff.buffers->feeds;
    std::uint32_t feed_faults = 0;
    if (config_.faults.any_feed()) {
      // Collector faults filter the (possibly shared) clean snapshot per
      // configuration; degrade is stateless in i, so memo fan-out sharing
      // stays deterministic.
      std::vector<measure::FeedEntry>& buffer = degraded_feeds[worker];
      measure::FeedSimulator::degrade_into(handoff.buffers->feeds, injector_,
                                           i, origin_.asn, &feed_faults,
                                           buffer);
      feeds = &buffer;
    }
    fault::ConfigQuality* quality = faulty ? &measured_quality[i] : nullptr;
    if (quality != nullptr) quality->feed_faults = feed_faults;
    result.measured[i] =
        driver.measure_one(i, *feeds, handoff.buffers->paths, scratch[worker],
                           quality);
    if (handoff.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pool.release(std::move(handoff.buffers));
    }
  };

  stages.commit = [&](std::size_t i) {
    if (!measured) {
      // Ground truth: faults never touch routing, so configuration 0
      // anchors the sources (every routed AS but the origin) and no row is
      // abandoned or imputed.
      const bgp::CatchmentMap& truth = result.truth[i];
      if (!anchored) {
        anchored = true;
        for (topology::AsId id = 0; id < as_count; ++id) {
          if (id != origin_id_ && truth.link_of[id] != bgp::kNoCatchment) {
            result.sources.push_back(id);
          }
        }
        result.matrix.assign(n, result.sources.size());
      }
      for (std::size_t s = 0; s < result.sources.size(); ++s) {
        result.matrix.set(i, s, truth.link_of[result.sources[s]]);
      }
      return;
    }
    const bool from_journal =
        journal != nullptr && journal->completed[i] && !abandoned[i];
    if (abandoned[i]) {
      // Sized-but-empty inference: nothing observed, row stays all-missing.
      result.measured[i] = missing;
    } else {
      if (from_journal) {
        // Decode the journaled row (and its recorded quality counts), then
        // release it; the work stage never ran for this index.
        journal::ConfigRecord& record = journal->records[i];
        measure::InferenceResult& inferred = result.measured[i];
        inferred.catchments.link_of.resize(record.row.size());
        std::transform(record.row.begin(), record.row.end(),
                       inferred.catchments.link_of.begin(),
                       measure::CatchmentStore::decode);
        inferred.covered_count = static_cast<std::size_t>(
            record.row.size() - std::count(record.row.begin(),
                                           record.row.end(),
                                           bgp::kNoCatchment8));
        inferred.multi_catchment_fraction = record.multi_catchment_fraction;
        record.row = {};
        if (faulty) {
          fault::ConfigQuality recorded;
          recorded.feed_entries = record.feed_entries;
          recorded.feed_faults = record.feed_faults;
          recorded.traces = record.traces;
          recorded.trace_faults = record.trace_faults;
          merge_quality(result.quality[i], recorded, config_.faults);
        }
      } else if (faulty) {
        merge_quality(result.quality[i], measured_quality[i], config_.faults);
      }
      const measure::InferenceResult& inferred = result.measured[i];
      if (!anchored) {
        // Quorum-aware baseline: the first configuration that actually has
        // a measurement anchors the source set.
        anchored = true;
        result.sources = measure::baseline_sources(inferred);
        result.matrix.assign(n, result.sources.size());
      }
      for (std::size_t s = 0; s < result.sources.size(); ++s) {
        result.matrix.set(i, s, inferred.catchments.link_of[result.sources[s]]);
      }
    }
    multi += result.measured[i].multi_catchment_fraction;
    coverage += static_cast<double>(result.measured[i].covered_count);
    if (journal != nullptr) {
      journal->append_config(i, result, abandoned, faulty);
    }
  };

  pipeline::run_graph(graph, stages, exec);
  OBS_GAUGE("pipeline.buffer_peak", pool.peak());

  result.min_route_distance.assign(as_count, topology::kUnreachable);
  for (const auto& chain : chain_min_distance) {
    if (chain.empty()) continue;
    for (topology::AsId id = 0; id < as_count; ++id) {
      result.min_route_distance[id] =
          std::min(result.min_route_distance[id], chain[id]);
    }
  }

  if (measured) {
    // With every configuration abandoned no row ever anchored the sources:
    // the matrix has n rows and zero columns.
    if (!anchored) result.matrix.assign(n, 0);
    measure::impute_missing(result.matrix);
    if (n > 0) {
      result.mean_multi_catchment = multi / static_cast<double>(n);
      result.mean_coverage = coverage / static_cast<double>(n);
    }
  }
  OBS_GAUGE("deploy.sources", result.sources.size());
  OBS_GAUGE("analysis.matrix_bytes", result.matrix.size_bytes());
}

}  // namespace spooftrack::core
