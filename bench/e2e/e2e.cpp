// spooftrack_e2e — one repetition of an end-to-end benchmark workload.
//
// bench/e2e/run.py starts one process per timed repetition, so every
// repetition pays the cold costs a `spooftrack deploy` user pays (lazy
// worker-pool spawn, arena growth) and reports its own peak RSS. The
// process drives only the library's public API, checks its own outputs,
// and prints one JSON object on stdout: timings, checks, the span summary
// and the obs registry totals (empty in a SPOOFTRACK_OBS=OFF build).
//
// Every repetition builds the testbed, generates the plan, deploys it and
// round-trips the artifact. Then paper and internet run the analysis (bit
// planes, clustering, greedy schedule); attack clusters the sources and
// serves §V-D attribution queries; recover resumes a crashed journaled
// deploy. bench/e2e/README.md gives the reasons for each workload.
//
// Usage:
//   spooftrack_e2e --workload=paper|internet|attack|recover --seed=N
//                  --workers=W --dir=PATH [--queries=N] [--query-offset=N]
//                  [--reference] [--trace=PATH]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/attribution.hpp"
#include "core/cluster.hpp"
#include "core/config_gen.hpp"
#include "core/experiment.hpp"
#include "core/io.hpp"
#include "core/scheduler.hpp"
#include "fault/fault.hpp"
#include "measure/bitplane_store.hpp"
#include "obs/obs.hpp"
#include "trace.hpp"
#include "traffic/honeypot.hpp"
#include "traffic/spoofer.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

using namespace spooftrack;

// --- Workload inputs -------------------------------------------------------
//
// The campaign inputs are fixed: paper, attack and recover deploy exactly
// what `spooftrack deploy` deploys by default (testbed seed 42), internet
// the same testbed seed at 66.5k ASes. The workload seed draws only
// attack's planted attacks — attackers, and their packets' ports and
// arrival times — so it changes nothing on the other workloads. A seed
// that redrew the testbed would move the work itself: over testbed seeds
// 42-49 the paper testbed analyses 525 to 701 sources, and at 66.5k ASes
// five testbed seeds gave 18k to 31k clusters, which scales the analysis.
constexpr std::uint64_t kTestbedSeed = 42;
// recover: crash before the 353rd journal record (half the campaign).
constexpr std::uint64_t kKillOrdinal = 353;
// attack: the `spooftrack attack` defaults, 2 attackers at 100 pps. Like
// that command (and examples/ddos_localization.cpp), attacker i sends
// (i + 1) times the base rate: equal rates are a degenerate tie for the
// mixture decomposition.
constexpr std::size_t kAttackers = 2;
constexpr double kAttackPps = 100.0;
// internet: a full 705-step greedy at 66.5k sources takes about 10 s at 4
// workers, twice the campaign; 60 steps (about 1.1 s) keep the kernel's
// per-step cost in view within a repetition of about 10 s.
constexpr std::size_t kInternetGreedySteps = 60;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  std::size_t workers = 1;
  std::string dir;
  std::uint64_t queries = 0;
  std::uint64_t query_offset = 0;
  bool reference = false;
  std::string trace;
};

core::TestbedConfig testbed_config(const Options& o) {
  core::TestbedConfig c;
  // CLI defaults (tools/spooftrack_cli.cpp): audit off, faults off.
  c.seed = kTestbedSeed;
  c.tier1_count = 8;
  c.transit_count = 150;
  c.stub_count = 2500;
  c.probe_count = 800;
  c.traceroute_rounds = 2;
  c.measure_workers = o.workers;
  if (o.workload == "internet") {
    c.transit_count = 2500;
    c.stub_count = 64000;
    c.measured_catchments = false;
  }
  if (o.workload == "recover") {
    c.journal.dir = o.dir + "/journal";
    if (!o.reference) {
      c.faults.crash_site = fault::Site::kJournalPreWrite;
      c.faults.crash_at = kKillOrdinal;
    }
  }
  return c;
}

// --- Result record ------------------------------------------------------------

struct Run {
  double setup_s = 0;
  double campaign_s = 0;
  double resume_s = 0;
  double analysis_s = 0;
  std::vector<double> query_ms;
  std::vector<bool> query_hit;  // every planted attacker's cluster returned
  std::size_t configs = 0;
  std::uint64_t artifact_bytes = 0;
  std::string artifact_path;
  // Operations (artifact round trip, analysis, each query, and recover's
  // crash and resume) and those that threw or failed a check.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

struct Plan {
  std::vector<bgp::Configuration> configs;
  std::size_t location_end = 0;
  std::size_t prepend_end = 0;
};

// The CLI's deploy plan: 64 location + 294 prepend + up to 347 poison.
Plan make_plan(const core::PeeringTestbed& testbed) {
  const core::ConfigGenerator generator = testbed.generator();
  const std::size_t links = testbed.origin().links.size();
  const std::uint32_t removals = generator.options().max_removals;
  return {generator.full_plan(testbed.graph()),
          core::ConfigGenerator::location_phase_size(links, removals),
          core::ConfigGenerator::location_and_prepend_size(links, removals)};
}

core::DeploymentArtifact save(e2e::Tracer& tracer,
                              const core::PeeringTestbed& testbed,
                              const core::DeploymentResult& result,
                              const Plan& plan, const std::string& path) {
  core::DeploymentArtifact artifact;
  {
    auto span = tracer.scope("artifact.make");
    artifact = core::make_artifact(result, testbed.config().seed,
                                   testbed.graph().size(),
                                   testbed.origin().links.size());
    artifact.annotate("location_end", plan.location_end);
    artifact.annotate("prepend_end", plan.prepend_end);
  }
  auto span = tracer.scope("artifact.save");
  core::save_artifact_file(artifact, path);
  return artifact;
}

// A clustering must put every source in exactly one non-empty cluster.
bool is_partition(const core::Clustering& clustering, std::size_t sources) {
  if (clustering.source_count() != sources) return false;
  std::vector<std::uint32_t> size(clustering.cluster_count, 0);
  for (const std::uint32_t id : clustering.cluster_of) {
    if (id >= size.size()) return false;
    ++size[id];
  }
  return std::find(size.begin(), size.end(), 0u) == size.end();
}

// A greedy schedule deploys distinct configurations, never grows the mean
// cluster size, and — run to the end — lands on cluster_sources' partition.
bool is_schedule(const core::ScheduleTrace& schedule, std::size_t configs,
                 std::size_t steps, const core::Clustering& clustering) {
  const std::size_t want = steps == 0 ? configs : std::min(steps, configs);
  if (schedule.order.size() != want ||
      schedule.mean_cluster_size.size() != want) {
    return false;
  }
  std::vector<char> seen(configs, 0);
  for (const std::size_t config : schedule.order) {
    if (config >= configs || seen[config]) return false;
    seen[config] = 1;
  }
  for (std::size_t k = 1; k < want; ++k) {
    if (schedule.mean_cluster_size[k] > schedule.mean_cluster_size[k - 1]) {
      return false;
    }
  }
  return want < configs ||
         schedule.mean_cluster_size.back() == clustering.mean_size();
}

// One §V-D attribution query: plant the attackers, deliver their packets
// over each configuration's *true* catchments into an AmpPot honeypot, and
// attribute the per-link volumes against the *measured* matrix. Returns
// whether every attacker's cluster was returned.
bool attack_query(e2e::Tracer& tracer, std::uint64_t seed, std::uint64_t q,
                  const core::DeploymentArtifact& artifact,
                  const core::Clustering& clustering,
                  const std::vector<bgp::CatchmentMap>& truth, Run& run) {
  util::Rng rng{util::hash_combine(seed, 0xA77AC4ULL + q)};
  const std::size_t k = std::min(kAttackers, artifact.sources.size());
  std::vector<std::size_t> attackers;
  while (attackers.size() < k) {
    const std::size_t pick = rng.next_below(artifact.sources.size());
    if (std::find(attackers.begin(), attackers.end(), pick) ==
        attackers.end()) {
      attackers.push_back(pick);
    }
  }
  std::vector<topology::AsId> ases;
  std::vector<double> rate;  // multiples of kAttackPps
  for (std::size_t i = 0; i < k; ++i) {
    ases.push_back(artifact.sources[attackers[i]]);
    rate.push_back(static_cast<double>(i + 1));
  }

  traffic::SpoofedTrafficGenerator generator(util::hash_combine(seed, q));
  const auto flows =
      generator.flows(ases, rate, netcore::Ipv4Addr(192, 0, 2, 1),
                      traffic::AmpProtocol::kDnsAny, kAttackPps);
  // One second of attack per configuration, captured as it arrives: each
  // configuration's packets go straight into its honeypot, as a live
  // capture would, so no query holds all ~211k packets at once.
  const std::size_t configs = artifact.matrix.configs();
  std::vector<std::vector<double>> volumes(
      configs, std::vector<double>(artifact.link_count, 0.0));
  std::uint64_t packets = 0;
  {
    auto span = tracer.scope("attack.capture", static_cast<std::int64_t>(q));
    for (std::size_t c = 0; c < configs; ++c) {
      traffic::AmpPotHoneypot honeypot(artifact.link_count);
      for (const traffic::ArrivedPacket& packet :
           generator.deliver(flows, truth[c], 1.0)) {
        honeypot.receive(packet.link, packet.datagram, packet.timestamp);
      }
      for (std::size_t link = 0; link < artifact.link_count; ++link) {
        volumes[c][link] = static_cast<double>(
            honeypot.packets_on(static_cast<bgp::LinkId>(link)));
      }
      packets += honeypot.total_packets();
    }
  }
  core::MixtureResult mixture;
  {
    auto span = tracer.scope("attack.mixture", static_cast<std::int64_t>(q));
    mixture = core::attribute_mixture(artifact.matrix, clustering, volumes);
  }

  bool valid = packets > 0 && mixture.residual_fraction >= 0.0 &&
               mixture.residual_fraction <= 1.0;
  for (const core::MixtureComponent& component : mixture.components) {
    valid = valid && component.cluster < clustering.cluster_count;
  }
  run.op(valid, "attack query " + std::to_string(q) + " returned no valid "
                "attribution");
  bool hit = true;
  for (const std::size_t a : attackers) {
    const std::uint32_t cluster = clustering.cluster_of[a];
    hit = hit && std::any_of(mixture.components.begin(),
                             mixture.components.end(),
                             [cluster](const core::MixtureComponent& m) {
                               return m.cluster == cluster;
                             });
  }
  return hit;
}

void execute(const Options& o, e2e::Tracer& tracer, Run& run) {
  const bool attack = o.workload == "attack";
  const bool recover = o.workload == "recover";
  const core::TestbedConfig config = testbed_config(o);
  run.artifact_path = o.dir + "/campaign.artifact";

  // attack serves queries; everything before the loop is its set-up.
  std::optional<e2e::Tracer::Scope> setup;
  setup.emplace(tracer, "setup", -1);
  std::unique_ptr<core::PeeringTestbed> testbed;
  {
    auto span = tracer.scope("testbed.build");
    testbed = std::make_unique<core::PeeringTestbed>(config);
  }
  Plan plan;
  {
    auto span = tracer.scope("plan.generate");
    plan = make_plan(*testbed);
  }
  run.configs = plan.configs.size();
  if (!attack) {
    run.setup_s = setup->elapsed_s();
    setup.reset();
  }

  core::DeploymentResult result;
  core::DeploymentArtifact artifact;
  {
    auto campaign = tracer.scope("campaign");
    if (recover && !o.reference) {
      bool crashed = false;
      {
        auto span = tracer.scope("deploy.crash");
        try {
          testbed->deploy(plan.configs);
        } catch (const fault::SimulatedCrash&) {
          crashed = true;
        }
      }
      run.op(crashed, "journaled deploy did not stop at the kill-point");
      auto resume = tracer.scope("resume");
      core::TestbedConfig resumed = config;
      resumed.faults.crash_at = 0;
      resumed.journal.resume = true;
      {
        auto span = tracer.scope("testbed.build");
        testbed = std::make_unique<core::PeeringTestbed>(resumed);
      }
      {
        auto span = tracer.scope("deploy");
        result = testbed->deploy(plan.configs);
      }
      artifact = save(tracer, *testbed, result, plan, run.artifact_path);
      run.resume_s = resume.elapsed_s();
      run.op(result.resumed_configs == kKillOrdinal - 1,
             "resume skipped " + std::to_string(result.resumed_configs) +
                 " journaled configurations, expected " +
                 std::to_string(kKillOrdinal - 1));
    } else {
      {
        auto span = tracer.scope("deploy");
        result = testbed->deploy(plan.configs);
      }
      artifact = save(tracer, *testbed, result, plan, run.artifact_path);
    }
    run.campaign_s = campaign.elapsed_s();
  }
  run.artifact_bytes = std::filesystem::file_size(run.artifact_path);

  {
    auto verify = tracer.scope("verify");
    core::DeploymentArtifact loaded;
    {
      auto span = tracer.scope("artifact.load");
      loaded = core::load_artifact_file(run.artifact_path);
    }
    run.op(loaded == artifact && artifact.matrix.configs() == plan.configs.size() &&
               artifact.matrix.sources() == artifact.sources.size() &&
               result.truth.size() == plan.configs.size(),
           "artifact does not round-trip or its matrix is not plan x sources");
    artifact = std::move(loaded);
  }
  if (recover) return;

  // Attribution needs only the clustering; paper and internet also run the
  // greedy schedule, the operator's deployment order.
  const std::size_t steps =
      o.workload == "internet" ? kInternetGreedySteps : 0;
  core::Clustering clustering;
  core::ScheduleTrace schedule;
  {
    auto analysis = tracer.scope("analysis");
    measure::BitplaneStore planes;
    {
      auto span = tracer.scope("analysis.bitplane");
      planes = measure::BitplaneStore(artifact.matrix);
    }
    {
      auto span = tracer.scope("analysis.cluster");
      clustering = core::cluster_sources(planes);
    }
    if (!attack) {
      auto span = tracer.scope("analysis.greedy");
      schedule = core::greedy_schedule(artifact.matrix, steps, o.workers);
    }
    run.analysis_s = analysis.elapsed_s();
  }
  {
    auto span = tracer.scope("check.analysis");
    run.op(is_partition(clustering, artifact.sources.size()) &&
               (attack || is_schedule(schedule, artifact.matrix.configs(),
                                      steps, clustering)),
           "clustering is not a partition of the sources or the greedy "
           "schedule is inconsistent with it");
  }
  if (!attack) return;
  run.setup_s = setup->elapsed_s();
  setup.reset();

  // Closed loop, one client: each query starts when the previous returns.
  auto loop = tracer.scope("attack");
  for (std::uint64_t q = o.query_offset; q < o.query_offset + o.queries; ++q) {
    const obs::Stopwatch watch;
    bool hit = false;
    {
      auto span = tracer.scope("attack.query", static_cast<std::int64_t>(q));
      hit = attack_query(tracer, o.seed, q, artifact, clustering,
                         result.truth, run);
    }
    run.query_ms.push_back(watch.elapsed_ms());
    run.query_hit.push_back(hit);
  }
}

// --- Output ---------------------------------------------------------------------

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

void print(const Options& o, const Run& run, const e2e::Tracer& tracer,
           const e2e::Coverage& coverage, double peak_rss_mb) {
  std::ostringstream out;
  out.precision(12);
  out << "{\"workload\":" << quoted(o.workload) << ",\"seed\":" << o.seed
      << ",\"workers\":" << o.workers
      << ",\"reference\":" << (o.reference ? "true" : "false")
      << ",\"obs_enabled\":" << (SPOOFTRACK_OBS_ENABLED ? "true" : "false")
      << ",\"setup_s\":" << run.setup_s << ",\"campaign_s\":" << run.campaign_s
      << ",\"resume_s\":" << run.resume_s
      << ",\"analysis_s\":" << run.analysis_s << ",\"query_offset\":"
      << o.query_offset << ",\"query_ms\":[";
  for (std::size_t i = 0; i < run.query_ms.size(); ++i) {
    out << (i ? "," : "") << run.query_ms[i];
  }
  out << "],\"query_hit\":[";
  for (std::size_t i = 0; i < run.query_hit.size(); ++i) {
    out << (i ? "," : "") << (run.query_hit[i] ? 1 : 0);
  }
  out << "],\"configs\":" << run.configs
      << ",\"artifact_bytes\":" << run.artifact_bytes
      << ",\"peak_rss_mb\":" << peak_rss_mb << ",\"attempted\":" << run.attempted
      << ",\"failed\":" << run.failed << ",\"failures\":[";
  for (std::size_t i = 0; i < run.failures.size(); ++i) {
    out << (i ? "," : "") << quoted(run.failures[i]);
  }
  out << "],\"coverage\":{\"wall_ms\":" << coverage.wall_ms
      << ",\"covered_ms\":" << coverage.covered_ms
      << ",\"before_ms\":" << coverage.before_ms
      << ",\"between_ms\":" << coverage.between_ms
      << ",\"after_ms\":" << coverage.after_ms << "},\"spans\":{";

  std::vector<std::pair<std::string, SpanTotals>> spans;
  for (const e2e::Span& span : tracer.spans()) {
    auto it = std::find_if(spans.begin(), spans.end(), [&](const auto& entry) {
      return entry.first == span.name;
    });
    if (it == spans.end()) {
      spans.emplace_back(span.name, SpanTotals{});
      it = spans.end() - 1;
    }
    ++it->second.count;
    it->second.total_ns += span.duration_ns();
    it->second.self_ns += span.self_ns();
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanTotals& t = spans[i].second;
    out << (i ? "," : "") << quoted(spans[i].first) << ":{\"count\":"
        << t.count << ",\"total_ms\":" << static_cast<double>(t.total_ns) / 1e6
        << ",\"self_ms\":" << static_cast<double>(t.self_ns) / 1e6 << "}";
  }

  // The layers inside deploy: count and sum of each histogram, value of
  // each counter and gauge. Percentiles of the log2 bins are left out on
  // purpose — they can be 2x off.
  out << "},\"obs\":{";
  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  for (std::size_t i = 0; i < snapshot.metrics.size(); ++i) {
    const obs::MetricSnapshot& m = snapshot.metrics[i];
    out << (i ? "," : "") << quoted(m.name) << ":{\"kind\":"
        << quoted(std::string(obs::kind_name(m.kind)))
        << ",\"value\":" << m.value << ",\"count\":" << m.count
        << ",\"sum\":" << m.sum << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Tracer tracer;
  util::FlagSet flags;
  flags.define("workload", "paper|internet|attack|recover", "")
      .define("seed", "workload seed", "42")
      .define("workers", "worker threads (must match SPOOFTRACK_THREADS)", "1")
      .define("dir", "scratch directory for the artifact and journal", "")
      .define("queries", "attack: attribution queries after the set-up", "0")
      .define("query-offset", "index of the first query", "0")
      .define_switch("reference",
                     "recover: uninterrupted journaled run, no analysis")
      .define("trace", "write Chrome trace-event JSON here", "");
  Options o;
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n" << flags.usage();
    return 2;
  }
  o.workload = flags.get("workload");
  o.seed = flags.get_u64("seed").value_or(42);
  o.workers = std::max<std::size_t>(1, flags.get_u64("workers").value_or(1));
  o.dir = flags.get("dir");
  o.queries = flags.get_u64("queries").value_or(0);
  o.query_offset = flags.get_u64("query-offset").value_or(0);
  o.reference = flags.get_switch("reference");
  o.trace = flags.get("trace");
  const bool known = o.workload == "paper" || o.workload == "internet" ||
                     o.workload == "attack" || o.workload == "recover";
  if (!known || o.dir.empty() || (o.reference && o.workload != "recover") ||
      (o.queries > 0 && o.workload != "attack")) {
    std::cerr << "need --workload=paper|internet|attack|recover and --dir "
                 "(--reference only with recover, --queries only with "
                 "attack)\n"
              << flags.usage();
    return 2;
  }

  Run run;
  try {
    execute(o, tracer, run);
  } catch (const std::exception& e) {
    run.op(false, std::string("uncaught exception: ") + e.what());
  }
  const e2e::Coverage coverage = tracer.coverage();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (!o.trace.empty()) {
    try {
      tracer.write_chrome(o.trace, static_cast<long>(getpid()));
    } catch (const std::exception& e) {
      run.op(false, e.what());
    }
  }
  print(o, run, tracer, coverage, peak_rss_mb);
  return run.failed == 0 ? 0 : 1;
}
