// spooftrack — command-line front end for the library.
//
//   spooftrack topo     synthesize an Internet-like topology (CAIDA serial-1)
//   spooftrack plan     print the announcement-configuration plan
//   spooftrack deploy   run a measurement campaign, save a .artifact file
//   spooftrack clusters analyse an artifact: clusters, CCDF, tail
//   spooftrack attack   simulate a spoofing attack and attribute it
//   spooftrack campaign wall-clock planning for real deployments
//
// Every subcommand takes --help. Artifacts written by `deploy` are consumed
// by `clusters` and `attack`, mirroring the measure-once / analyse-often
// workflow the paper implies.
//
// The global --obs-report=PATH flag (valid before or after the command)
// writes a spooftrack.obs.v1 JSON RunReport of the run's telemetry; see
// docs/observability.md.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/attribution.hpp"
#include "core/campaign.hpp"
#include "core/cluster.hpp"
#include "core/config_gen.hpp"
#include "core/experiment.hpp"
#include "core/io.hpp"
#include "core/prediction.hpp"
#include "core/report.hpp"
#include "core/scheduler.hpp"
#include "journal/journal.hpp"
#include "obs/report.hpp"
#include "topology/caida_io.hpp"
#include "topology/metrics.hpp"
#include "topology/synth.hpp"
#include "traffic/honeypot.hpp"
#include "traffic/spoofer.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace spooftrack;

int usage(int code) {
  std::cerr
      << "usage: spooftrack <command> [flags]\n\n"
         "commands:\n"
         "  topo      synthesize a topology and print it as CAIDA serial-1\n"
         "  plan      print the generated announcement configurations\n"
         "  deploy    run a campaign on the emulated testbed -> artifact\n"
         "  clusters  cluster analysis of a deployment artifact\n"
         "  attack    simulate a spoofing attack against an artifact\n"
         "  report    render an artifact as a Markdown campaign report\n"
         "  predict   train/evaluate the catchment predictor on an artifact\n"
         "  campaign  wall-clock planning for real-Internet deployment\n\n"
         "global flags:\n"
         "  --obs-report=PATH  write a JSON telemetry RunReport "
         "(docs/observability.md)\n\n"
         "run 'spooftrack <command> --help' for flags.\n";
  return code;
}

/// A malformed or out-of-range flag value: a usage error (exit 2), reported
/// before any work starts.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Integer flag `name` — its default when not given — which must be a
/// whole decimal number in [lo, hi].
std::uint64_t uint_flag(
    const util::FlagSet& flags, const std::string& name, std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
  const auto value = flags.get_u64(name);
  if (!value || *value < lo || *value > hi) {
    throw UsageError("--" + name + "=" + flags.get(name) +
                     ": expected an integer in [" + std::to_string(lo) +
                     ", " + std::to_string(hi) + "]");
  }
  return *value;
}

/// As uint_flag, for flags that fill 32-bit fields.
std::uint32_t u32_flag(const util::FlagSet& flags, const std::string& name,
                       std::uint32_t lo = 0) {
  return static_cast<std::uint32_t>(
      uint_flag(flags, name, lo, std::numeric_limits<std::uint32_t>::max()));
}

/// Real-valued flag `name`, which must be a finite number >= 0.
double real_flag(const util::FlagSet& flags, const std::string& name) {
  const auto value = flags.get_double(name);
  if (!value || !std::isfinite(*value) || *value < 0.0) {
    throw UsageError("--" + name + "=" + flags.get(name) +
                     ": expected a finite number >= 0");
  }
  return *value;
}

/// Probability flag `name`, which must be a number in [0, 1].
double probability_flag(const util::FlagSet& flags, const std::string& name) {
  const auto value = flags.get_double(name);
  if (!value || !(*value >= 0.0 && *value <= 1.0)) {  // NaN fails both
    throw UsageError("--" + name + "=" + flags.get(name) +
                     ": expected a probability in [0, 1]");
  }
  return *value;
}

util::FlagSet testbed_flags() {
  util::FlagSet flags;
  flags.define("seed", "deterministic seed", "42")
      .define("stubs", "stub AS count", "2500")
      .define("transit", "transit AS count", "150")
      .define("tier1", "tier-1 clique size", "8")
      .define("probes", "RIPE-Atlas-style probe ASes", "800")
      .define("rounds", "traceroute rounds per configuration", "2")
      .define_switch("ground-truth",
                     "use routing ground truth instead of the measured "
                     "pipeline")
      .define("fault-rate",
              "fault probability applied to every injection site "
              "(docs/faults.md)", "0")
      .define("fault-feed-outage",
              "collector outage probability (overrides fault-rate)", "")
      .define("fault-feed-stale",
              "stale feed snapshot probability (overrides fault-rate)", "")
      .define("fault-trace-loss",
              "traceroute loss probability (overrides fault-rate)", "")
      .define("fault-trace-truncate",
              "traceroute truncation probability (overrides fault-rate)", "")
      .define("fault-deploy",
              "per-attempt deployment failure probability (overrides "
              "fault-rate)", "")
      .define("fault-retries", "deployment retry budget", "2")
      .define("fault-seed", "fault schedule seed", "")
      .define("workers",
              "worker threads of the deploy executor "
              "(0 = auto; must agree with SPOOFTRACK_THREADS when both are "
              "set, see docs/cli.md)", "0")
      .define("pipeline-depth",
              "deploy backpressure: max propagated-but-unmeasured steps "
              "per chain", "2");
  return flags;
}

core::TestbedConfig testbed_config(const util::FlagSet& flags) {
  core::TestbedConfig config;
  config.seed = uint_flag(flags, "seed");
  config.stub_count = u32_flag(flags, "stubs");
  config.transit_count = u32_flag(flags, "transit");
  config.tier1_count = u32_flag(flags, "tier1");
  config.probe_count = u32_flag(flags, "probes");
  config.traceroute_rounds = u32_flag(flags, "rounds");
  config.measured_catchments = !flags.get_switch("ground-truth");
  config.faults.set_all(probability_flag(flags, "fault-rate"));
  // Per-site probabilities override fault-rate only when given.
  const auto override_site = [&flags](const char* name, double& field) {
    if (!flags.get(name).empty()) field = probability_flag(flags, name);
  };
  override_site("fault-feed-outage", config.faults.feed_outage_prob);
  override_site("fault-feed-stale", config.faults.feed_stale_prob);
  override_site("fault-trace-loss", config.faults.traceroute_loss_prob);
  override_site("fault-trace-truncate",
                config.faults.traceroute_truncate_prob);
  override_site("fault-deploy", config.faults.deploy_failure_prob);
  config.faults.deploy_retry_budget = u32_flag(flags, "fault-retries");
  if (!flags.get("fault-seed").empty()) {
    config.faults.seed = uint_flag(flags, "fault-seed");
  }
  // Worker-count precedence (docs/cli.md): an explicit --workers wins over
  // the resolved default, but a *conflicting* SPOOFTRACK_THREADS is a
  // configuration error, not a silent tie-break — scripted runs should not
  // discover at bench-diff time which of the two was honoured.
  const std::uint64_t workers = uint_flag(flags, "workers");
  if (workers > 0) {
    if (const auto env = util::env_worker_override(); env && *env != workers) {
      throw std::invalid_argument(
          "conflicting worker counts: --workers=" + std::to_string(workers) +
          " but SPOOFTRACK_THREADS=" + std::to_string(*env) +
          "; unset one or make them agree (docs/cli.md)");
    }
    config.measure_workers = static_cast<std::size_t>(workers);
  }
  config.pipeline_depth = uint_flag(flags, "pipeline-depth");
  return config;
}

int run_with_help(util::FlagSet& flags, const std::vector<std::string>& args,
                  const char* what) {
  for (const auto& arg : args) {
    if (arg == "--help") {
      std::cout << "flags for 'spooftrack " << what << "':\n"
                << flags.usage();
      return 0;
    }
  }
  if (!flags.parse(args)) {
    std::cerr << flags.error() << "\n" << flags.usage();
    return 2;
  }
  return -1;  // continue
}

// --- topo -----------------------------------------------------------------

int cmd_topo(const std::vector<std::string>& args) {
  util::FlagSet flags = testbed_flags();
  flags.define("out", "output path (default: stdout)", "");
  if (int rc = run_with_help(flags, args, "topo"); rc >= 0) return rc;

  const core::PeeringTestbed testbed(testbed_config(flags));
  const std::string out_path = flags.get("out");
  if (out_path.empty()) {
    topology::write_caida(testbed.graph(), std::cout);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    topology::write_caida(testbed.graph(), out);
    std::cerr << "wrote " << testbed.graph().size() << " ASes / "
              << testbed.graph().edge_count() << " edges to " << out_path
              << "\n";
  }
  return 0;
}

// --- plan -----------------------------------------------------------------

int cmd_plan(const std::vector<std::string>& args) {
  util::FlagSet flags = testbed_flags();
  flags.define("max-removals", "location phase: max withdrawn links", "3")
      .define("max-poison", "poisoning phase cap", "347")
      .define("max-communities", "community phase cap (0 = off)", "0");
  if (int rc = run_with_help(flags, args, "plan"); rc >= 0) return rc;

  core::GeneratorOptions gen;
  gen.max_removals = u32_flag(flags, "max-removals");
  gen.max_poison_configs = uint_flag(flags, "max-poison");
  gen.max_community_configs = uint_flag(flags, "max-communities");
  const core::PeeringTestbed testbed(testbed_config(flags));

  const auto plan = testbed.generator(gen).full_plan(testbed.graph());
  util::Table table({"#", "label", "links", "prepended", "poisoned",
                     "no-export"});
  for (std::size_t i = 0; i < plan.size(); ++i) {
    std::size_t prepended = 0, poisoned = 0, no_export = 0;
    for (const auto& spec : plan[i].announcements) {
      prepended += spec.prepend > 0;
      poisoned += spec.poisoned.size();
      no_export += spec.no_export_to.size();
    }
    table.add_row({std::to_string(i), plan[i].label,
                   std::to_string(plan[i].announcements.size()),
                   std::to_string(prepended), std::to_string(poisoned),
                   std::to_string(no_export)});
  }
  table.print_csv(std::cout);
  std::cerr << plan.size() << " configurations\n";
  return 0;
}

// --- deploy ----------------------------------------------------------------

int cmd_deploy(const std::vector<std::string>& args) {
  util::FlagSet flags = testbed_flags();
  flags.define("out", "artifact output path", "deployment.artifact")
      .define("max-removals", "location phase: max withdrawn links", "3")
      .define("max-poison", "poisoning phase cap", "347")
      .define_switch("audit", "collect Figure 9 compliance statistics")
      .define("journal",
              "crash-consistent campaign journal directory "
              "(docs/checkpointing.md)", "")
      .define("resume",
              "resume a journaled campaign from DIR: replay the journal, "
              "skip committed configurations (implies --journal=DIR)", "")
      .define("journal-segment-records",
              "journal records per segment before rotation", "128");
  if (int rc = run_with_help(flags, args, "deploy"); rc >= 0) return rc;

  core::TestbedConfig config = testbed_config(flags);
  config.audit_policies = flags.get_switch("audit");
  const std::string journal_dir = flags.get("journal");
  const std::string resume_dir = flags.get("resume");
  if (!resume_dir.empty()) {
    if (!journal_dir.empty() && journal_dir != resume_dir) {
      throw std::invalid_argument(
          "--journal and --resume must name the same directory");
    }
    config.journal.dir = resume_dir;
    config.journal.resume = true;
  } else {
    config.journal.dir = journal_dir;
  }
  config.journal.segment_records = uint_flag(flags, "journal-segment-records");
  core::GeneratorOptions gen;
  gen.max_removals = u32_flag(flags, "max-removals");
  gen.max_poison_configs = uint_flag(flags, "max-poison");
  const core::PeeringTestbed testbed(config);

  const core::ConfigGenerator generator = testbed.generator(gen);
  auto location = generator.location_phase();
  const auto prepends = generator.prepend_phase(location);
  const auto poisons = generator.poison_phase(testbed.graph());
  std::vector<bgp::Configuration> plan = location;
  plan.insert(plan.end(), prepends.begin(), prepends.end());
  plan.insert(plan.end(), poisons.begin(), poisons.end());
  const std::size_t location_end = location.size();
  const std::size_t prepend_end = location.size() + prepends.size();

  std::cerr << "deploying " << plan.size() << " configurations on "
            << testbed.graph().size() << " ASes...\n";
  const auto result = testbed.deploy(std::move(plan));
  if (result.resumed_configs > 0) {
    std::cerr << "resume: skipped " << result.resumed_configs
              << " journaled configurations (docs/checkpointing.md)\n";
  }
  std::size_t degraded = 0;
  std::size_t failed = 0;
  if (!result.quality.empty()) {
    for (const fault::ConfigQuality& q : result.quality) {
      degraded += q.grade == fault::Grade::kDegraded;
      failed += q.grade == fault::Grade::kFailed;
    }
    std::cerr << "fault plan active: " << degraded << " degraded, " << failed
              << " failed of " << result.quality.size()
              << " configurations (docs/faults.md)\n";
  }

  auto artifact = core::make_artifact(result, config.seed,
                                      testbed.graph().size(),
                                      testbed.origin().links.size());
  artifact.annotate("location_end", location_end);
  artifact.annotate("prepend_end", prepend_end);
  core::save_artifact_file(artifact, flags.get("out"));
  std::cerr << "sources: " << result.sources.size()
            << ", coverage: " << result.mean_coverage
            << " ASes/config; wrote " << flags.get("out") << "\n";
  // Exit-code contract (docs/cli.md): the artifact is written either way,
  // but scripted campaigns branch on measurement quality without parsing
  // stderr — 4 = abandoned configurations, 3 = degraded quorum.
  if (failed > 0) return 4;
  if (degraded > 0) return 3;
  return 0;
}

// --- clusters ----------------------------------------------------------------

int cmd_clusters(const std::vector<std::string>& args) {
  util::FlagSet flags;
  flags.define("in", "artifact path", "deployment.artifact")
      .define_switch("ccdf", "print the cluster-size CCDF")
      .define("greedy", "also print an N-step greedy schedule", "0");
  if (int rc = run_with_help(flags, args, "clusters"); rc >= 0) return rc;

  const auto greedy_steps = uint_flag(flags, "greedy");
  const auto artifact = core::load_artifact_file(flags.get("in"));
  const auto clustering = core::cluster_sources(artifact.matrix);
  const auto sizes = clustering.sizes();
  std::size_t singles = 0;
  std::uint32_t largest = 0;
  for (std::uint32_t s : sizes) {
    singles += s == 1;
    largest = std::max(largest, s);
  }

  util::Table table({"metric", "value"});
  table.add_row({"configurations", std::to_string(artifact.configs.size())});
  table.add_row({"sources", std::to_string(artifact.sources.size())});
  table.add_row({"clusters", std::to_string(clustering.cluster_count)});
  table.add_row({"mean cluster size",
                 util::fmt_double(clustering.mean_size(), 3)});
  table.add_row({"singleton clusters",
                 util::fmt_percent(clustering.cluster_count == 0
                                       ? 0.0
                                       : static_cast<double>(singles) /
                                             clustering.cluster_count)});
  table.add_row({"largest cluster", std::to_string(largest)});
  table.print(std::cout);

  if (flags.get_switch("ccdf")) {
    util::Histogram hist;
    for (std::uint32_t s : sizes) hist.add(s);
    util::Table ccdf({"size", "ccdf"});
    for (std::uint64_t x : hist.values()) {
      ccdf.add_row({std::to_string(x),
                    util::fmt_double(hist.complementary_at(x), 4)});
    }
    util::print_banner(std::cout, "cluster-size CCDF");
    ccdf.print(std::cout);
  }

  if (greedy_steps > 0) {
    const auto schedule = core::greedy_schedule(
        artifact.matrix, static_cast<std::size_t>(greedy_steps));
    util::print_banner(std::cout, "greedy schedule");
    util::Table greedy({"step", "config", "label", "mean cluster size"});
    for (std::size_t k = 0; k < schedule.order.size(); ++k) {
      greedy.add_row({std::to_string(k + 1),
                      std::to_string(schedule.order[k]),
                      artifact.configs[schedule.order[k]].label,
                      util::fmt_double(schedule.mean_cluster_size[k], 2)});
    }
    greedy.print(std::cout);
  }
  return 0;
}

// --- attack ----------------------------------------------------------------

int cmd_attack(const std::vector<std::string>& args) {
  util::FlagSet flags;
  flags.define("in", "artifact path", "deployment.artifact")
      .define("attackers", "number of attacking ASes", "2")
      .define("seed", "attacker placement seed", "7");
  if (int rc = run_with_help(flags, args, "attack"); rc >= 0) return rc;

  const auto attacker_count = uint_flag(flags, "attackers");
  util::Rng rng{uint_flag(flags, "seed")};
  const auto artifact = core::load_artifact_file(flags.get("in"));
  if (artifact.matrix.empty()) {
    std::cerr << "artifact has no catchment matrix\n";
    return 1;
  }
  // Attackers are distinct sources: more than the artifact has (any at all
  // on the zero-source artifact of an all-abandoned deploy) cannot be
  // placed.
  if (attacker_count > artifact.sources.size()) {
    std::cerr << "cannot place " << attacker_count
              << " distinct attackers among " << artifact.sources.size()
              << " sources\n";
    return 2;
  }
  const auto clustering = core::cluster_sources(artifact.matrix);

  std::vector<std::size_t> attackers;
  while (attackers.size() < attacker_count) {
    const auto pick = rng.next_below(artifact.sources.size());
    if (std::find(attackers.begin(), attackers.end(), pick) ==
        attackers.end()) {
      attackers.push_back(pick);
    }
  }

  // Observed per-link volumes per configuration (ideal sensor: volume
  // proportional to each attacker's rate). Rates are distinct — equal-rate
  // attackers are a degenerate tie where any trajectory alternating
  // between their links is indistinguishable from a real source.
  std::vector<std::vector<double>> volumes;
  for (const auto row : artifact.matrix) {
    std::vector<double> per_link(artifact.link_count, 0.0);
    for (std::size_t i = 0; i < attackers.size(); ++i) {
      const std::uint8_t link = row[attackers[i]];
      if (link != bgp::kNoCatchment8 && link < per_link.size()) {
        per_link[link] += static_cast<double>(i + 1);
      }
    }
    volumes.push_back(std::move(per_link));
  }

  const auto mixture =
      core::attribute_mixture(artifact.matrix, clustering, volumes);

  util::Table table({"component", "cluster", "ASes", "weight",
                     "contains attacker"});
  for (std::size_t rank = 0; rank < mixture.components.size(); ++rank) {
    const auto& component = mixture.components[rank];
    bool hit = false;
    for (std::size_t a : attackers) {
      hit |= clustering.cluster_of[a] == component.cluster;
    }
    table.add_row({std::to_string(rank + 1),
                   std::to_string(component.cluster),
                   std::to_string(clustering.sizes()[component.cluster]),
                   util::fmt_percent(component.weight), hit ? "YES" : "no"});
  }
  table.print(std::cout);
  std::cout << "unexplained volume: "
            << util::fmt_percent(mixture.residual_fraction) << "\n";
  return 0;
}

// --- predict ----------------------------------------------------------------

int cmd_predict(const std::vector<std::string>& args) {
  util::FlagSet flags;
  flags.define("in", "artifact path", "deployment.artifact")
      .define("holdout", "evaluate on every k-th configuration", "5");
  if (int rc = run_with_help(flags, args, "predict"); rc >= 0) return rc;

  const auto holdout = std::max<std::uint64_t>(2, uint_flag(flags, "holdout"));
  const auto artifact = core::load_artifact_file(flags.get("in"));
  if (artifact.matrix.empty()) {
    std::cerr << "artifact has no catchment matrix\n";
    return 1;
  }

  core::CatchmentPredictor predictor(artifact.sources.size(),
                                     artifact.link_count);
  std::vector<std::size_t> evaluation;
  for (std::size_t i = 0; i < artifact.configs.size(); ++i) {
    if (i % holdout == holdout - 1) {
      evaluation.push_back(i);
    } else {
      predictor.observe(
          core::ConfigDescriptor::from(artifact.configs[i]),
          artifact.matrix[i]);
    }
  }

  util::Accumulator accuracy;
  for (std::size_t i : evaluation) {
    accuracy.add(predictor.accuracy(
        core::ConfigDescriptor::from(artifact.configs[i]),
        artifact.matrix[i]));
  }
  util::Table table({"metric", "value"});
  table.add_row({"training configurations",
                 std::to_string(artifact.configs.size() - evaluation.size())});
  table.add_row({"held-out configurations",
                 std::to_string(evaluation.size())});
  table.add_row({"mean per-config accuracy",
                 util::fmt_percent(accuracy.mean())});
  table.add_row({"worst held-out config",
                 util::fmt_percent(accuracy.min())});
  table.print(std::cout);
  std::cout << "\nHigh accuracy means future configurations can be chosen "
               "from predictions\ninstead of deployments (see "
               "bench/ablation_prediction).\n";
  return 0;
}

// --- report ----------------------------------------------------------------

int cmd_report(const std::vector<std::string>& args) {
  util::FlagSet flags;
  flags.define("in", "artifact path", "deployment.artifact")
      .define("out", "output path (default: stdout)", "")
      .define("runbook-steps", "greedy runbook length", "10")
      .define("tail-threshold", "cluster size counted as heavy tail", "5");
  if (int rc = run_with_help(flags, args, "report"); rc >= 0) return rc;

  core::ReportOptions options;
  options.runbook_steps = uint_flag(flags, "runbook-steps");
  options.tail_threshold = u32_flag(flags, "tail-threshold");
  const auto artifact = core::load_artifact_file(flags.get("in"));

  const std::string out_path = flags.get("out");
  if (out_path.empty()) {
    core::write_report(artifact, std::cout, options);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    core::write_report(artifact, out, options);
    std::cerr << "wrote " << out_path << "\n";
  }
  return 0;
}

// --- campaign ----------------------------------------------------------------

int cmd_campaign(const std::vector<std::string>& args) {
  util::FlagSet flags;
  flags.define("configs", "configurations to deploy", "705")
      .define("minutes", "dwell minutes per configuration", "70")
      .define("prefixes", "concurrent experiment prefixes", "1")
      .define("deadline-days", "report prefixes needed for deadline", "0");
  if (int rc = run_with_help(flags, args, "campaign"); rc >= 0) return rc;

  const auto configs = uint_flag(flags, "configs");
  core::CampaignModel model;
  model.minutes_per_config = real_flag(flags, "minutes");
  model.concurrent_prefixes = u32_flag(flags, "prefixes", 1);
  const double deadline = real_flag(flags, "deadline-days");

  std::cout << model.describe(configs) << "\n";
  std::cout << "schedule feasible: " << (model.feasible() ? "yes" : "NO")
            << "\n";
  if (deadline > 0.0) {
    std::cout << "prefixes needed for " << deadline << " days: "
              << model.prefixes_for_deadline(configs, deadline) << "\n";
  }
  return 0;
}

}  // namespace

namespace {

int dispatch(const std::string& command, const std::vector<std::string>& args) {
  if (command == "topo") return cmd_topo(args);
  if (command == "plan") return cmd_plan(args);
  if (command == "deploy") return cmd_deploy(args);
  if (command == "clusters") return cmd_clusters(args);
  if (command == "attack") return cmd_attack(args);
  if (command == "predict") return cmd_predict(args);
  if (command == "report") return cmd_report(args);
  if (command == "campaign") return cmd_campaign(args);
  if (command == "--help" || command == "help") return usage(0);
  std::cerr << "unknown command: " << command << "\n";
  return usage(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(2);
  const std::string command = argv[1];

  // --obs-report is a global flag stripped before subcommand parsing so
  // every command accepts it uniformly.
  std::string obs_report;
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--obs-report=", 0) == 0) {
      obs_report = arg.substr(std::string("--obs-report=").size());
    } else {
      args.emplace_back(arg);
    }
  }

  int rc;
  try {
    rc = dispatch(command, args);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const journal::JournalError& e) {
    // Corrupt or unreadable journal on resume (docs/cli.md exit 5): a
    // damaged sealed segment, a row that does not fit the testbed, another
    // campaign's journal, or one of an older format. Distinct from a
    // generic failure so operators can tell "re-run with a fresh journal"
    // from "fix the invocation".
    std::cerr << "journal error: " << e.what() << "\n";
    return 5;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  // Degraded/failed campaigns (3/4) still produced an artifact — their
  // telemetry is exactly what an operator wants to inspect.
  if ((rc == 0 || rc == 3 || rc == 4) && !obs_report.empty()) {
    try {
      obs::RunReport::capture("spooftrack-" + command)
          .save_json_file(obs_report);
      std::cerr << "wrote obs report to " << obs_report << "\n";
    } catch (const std::exception& e) {
      std::cerr << "obs report failed: " << e.what() << "\n";
      return 1;
    }
  }
  return rc;
}
