// spooftrack::obs — registry correctness under parallel recording, merge
// determinism, the RunReport JSON bytes, macro gating, and the
// docs-contract check that every metric name emitted by the source tree is
// documented in docs/observability.md.
//
// All tests use unique "test.obs.*" metric names and delta-based
// assertions: the registry is process-global and the library's own
// instrumentation may have recorded into it already.
#include "obs/obs.hpp"
#include "obs/report.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/parallel.hpp"

namespace spooftrack {
namespace {

obs::Registry& reg() { return obs::Registry::global(); }

std::uint64_t counter_value(std::string_view name) {
  const obs::Snapshot snap = reg().snapshot();
  const obs::MetricSnapshot* metric = snap.find(name);
  return metric == nullptr ? 0 : metric->value;
}

TEST(ObsRegistry, CounterUnderParallelForContention) {
  const obs::MetricId id =
      reg().intern("test.obs.par_counter", obs::Kind::kCounter, "");
  const std::uint64_t before = counter_value("test.obs.par_counter");

  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kIncrementsPerTask = 1000;
  constexpr std::size_t kWorkers = 8;
  util::parallel_for(
      kTasks,
      [&](std::size_t) {
        for (std::size_t k = 0; k < kIncrementsPerTask; ++k) reg().add(id, 1);
      },
      kWorkers);

  EXPECT_EQ(counter_value("test.obs.par_counter"),
            before + kTasks * kIncrementsPerTask);
}

TEST(ObsRegistry, HistogramUnderParallelForContention) {
  const obs::MetricId id =
      reg().intern("test.obs.par_hist", obs::Kind::kHistogram, "ns");

  constexpr std::size_t kTasks = 32;
  constexpr std::uint64_t kSamplesPerTask = 200;
  util::parallel_for(
      kTasks,
      [&](std::size_t i) {
        for (std::uint64_t k = 0; k < kSamplesPerTask; ++k) {
          reg().record(id, i * kSamplesPerTask + k);
        }
      },
      8);

  const obs::Snapshot snap = reg().snapshot();
  const obs::MetricSnapshot* metric = snap.find("test.obs.par_hist");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->count, kTasks * kSamplesPerTask);
  // Sum of 0..N-1 over all tasks.
  const std::uint64_t n = kTasks * kSamplesPerTask;
  EXPECT_EQ(metric->sum, n * (n - 1) / 2);
  EXPECT_EQ(metric->min, 0u);
  EXPECT_EQ(metric->max, n - 1);
  std::uint64_t binned = 0;
  for (std::uint64_t b : metric->bins) binned += b;
  EXPECT_EQ(binned, metric->count);
}

TEST(ObsRegistry, TotalsSurviveThreadExitAndShardsAreReused) {
  const obs::MetricId id =
      reg().intern("test.obs.shard_reuse", obs::Kind::kCounter, "");
  const std::uint64_t before = counter_value("test.obs.shard_reuse");

  // Sequential short-lived threads, the lifecycle parallel_for produces:
  // each thread's shard is released on exit and reused by the next, and no
  // total is lost.
  for (int t = 0; t < 10; ++t) {
    std::thread([&] { reg().add(id, 5); }).join();
  }
  EXPECT_EQ(counter_value("test.obs.shard_reuse"), before + 50);
}

TEST(ObsRegistry, HistogramStatsAndPercentileBounds) {
  const obs::MetricId id =
      reg().intern("test.obs.hist_stats", obs::Kind::kHistogram, "ms");
  for (std::uint64_t v : {1u, 2u, 3u, 100u}) reg().record(id, v);

  const obs::Snapshot snap = reg().snapshot();
  const obs::MetricSnapshot* metric = snap.find("test.obs.hist_stats");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->unit, "ms");
  EXPECT_EQ(metric->count, 4u);
  EXPECT_EQ(metric->sum, 106u);
  EXPECT_EQ(metric->min, 1u);
  EXPECT_EQ(metric->max, 100u);
  EXPECT_DOUBLE_EQ(metric->mean(), 106.0 / 4.0);
  // Log2 bins give upper estimates within 2x, clamped to the observed max.
  EXPECT_GE(metric->percentile(50.0), 2.0);
  EXPECT_LE(metric->percentile(50.0), 3.0);
  EXPECT_DOUBLE_EQ(metric->percentile(100.0), 100.0);
  EXPECT_DOUBLE_EQ(metric->percentile(0.0), 1.0);
}

TEST(ObsRegistry, GaugeLastWriteWinsAcrossThreads) {
  const obs::MetricId id =
      reg().intern("test.obs.gauge", obs::Kind::kGauge, "");
  reg().set(id, 3);
  std::thread([&] { reg().set(id, 5); }).join();

  const obs::Snapshot snap = reg().snapshot();
  const obs::MetricSnapshot* metric = snap.find("test.obs.gauge");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->kind, obs::Kind::kGauge);
  EXPECT_EQ(metric->value, 5u);

  reg().set(id, 7);  // main thread writes last -> wins again
  EXPECT_EQ(counter_value("test.obs.gauge"), 7u);
}

TEST(ObsRegistry, SnapshotMergeIsDeterministic) {
  const obs::MetricId id =
      reg().intern("test.obs.determinism", obs::Kind::kHistogram, "");
  util::parallel_for(
      16, [&](std::size_t i) { reg().record(id, i + 1); }, 4);

  const obs::Snapshot a = reg().snapshot();
  const obs::Snapshot b = reg().snapshot();
  EXPECT_EQ(a, b);
  ASSERT_NE(a.find("test.obs.determinism"), nullptr);
}

TEST(ObsRegistry, InternIsIdempotentAndChecksKind) {
  const obs::MetricId a =
      reg().intern("test.obs.kind", obs::Kind::kCounter, "");
  const obs::MetricId b =
      reg().intern("test.obs.kind", obs::Kind::kCounter, "");
  EXPECT_EQ(a, b);
  EXPECT_THROW(reg().intern("test.obs.kind", obs::Kind::kHistogram, ""),
               std::logic_error);
}

TEST(ObsRegistry, ResetZeroesEverything) {
  const obs::MetricId counter =
      reg().intern("test.obs.reset_counter", obs::Kind::kCounter, "");
  const obs::MetricId hist =
      reg().intern("test.obs.reset_hist", obs::Kind::kHistogram, "");
  reg().add(counter, 9);
  reg().record(hist, 42);
  reg().reset();

  const obs::Snapshot snap = reg().snapshot();
  const obs::MetricSnapshot* c = snap.find("test.obs.reset_counter");
  const obs::MetricSnapshot* h = snap.find("test.obs.reset_hist");
  ASSERT_NE(c, nullptr);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(c->value, 0u);
  EXPECT_EQ(h->count, 0u);
  EXPECT_EQ(h->sum, 0u);
  EXPECT_EQ(h->min, 0u);
  EXPECT_EQ(h->max, 0u);
}

// ---------------------------------------------------------------------------
// Macro gating
// ---------------------------------------------------------------------------

#if SPOOFTRACK_OBS_ENABLED

TEST(ObsMacros, RecordWhenEnabled) {
  const std::uint64_t before = counter_value("test.obs.macro_counter");
  OBS_COUNT("test.obs.macro_counter", 2);
  OBS_COUNT("test.obs.macro_counter", 3);
  EXPECT_EQ(counter_value("test.obs.macro_counter"), before + 5);

  OBS_GAUGE("test.obs.macro_gauge", 11);
  EXPECT_EQ(counter_value("test.obs.macro_gauge"), 11u);

  OBS_HIST("test.obs.macro_hist", "items", 4);
  { OBS_TIMER("test.obs.macro_timer"); }
  const obs::Snapshot snap = reg().snapshot();
  const obs::MetricSnapshot* hist = snap.find("test.obs.macro_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->unit, "items");
  EXPECT_GE(hist->count, 1u);
  const obs::MetricSnapshot* timer = snap.find("test.obs.macro_timer");
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->unit, "ns");
  EXPECT_GE(timer->count, 1u);
}

#else  // SPOOFTRACK_OBS=OFF build: the same macros must record nothing and
       // must not evaluate their arguments.

TEST(ObsMacros, NoOpWhenDisabled) {
  const std::size_t metrics_before = reg().metric_count();
  int evaluations = 0;
  OBS_COUNT("test.obs.off_counter", ++evaluations);
  OBS_GAUGE("test.obs.off_gauge", ++evaluations);
  OBS_HIST("test.obs.off_hist", "items", ++evaluations);
  { OBS_TIMER("test.obs.off_timer"); }
  EXPECT_EQ(evaluations, 0);
  EXPECT_EQ(reg().metric_count(), metrics_before);
  const obs::Snapshot snap = reg().snapshot();
  EXPECT_EQ(snap.find("test.obs.off_counter"), nullptr);
  EXPECT_EQ(snap.find("test.obs.off_hist"), nullptr);
}

TEST(ObsMacros, LibraryEmitsNothingWhenDisabled) {
  // The instrumented library paths intern engine.* / campaign.* metrics on
  // first use; in an OFF build those call sites are compiled out entirely.
  const obs::Snapshot snap = reg().snapshot();
  for (const obs::MetricSnapshot& metric : snap.metrics) {
    EXPECT_TRUE(metric.name.rfind("test.obs.", 0) == 0)
        << "unexpected metric in OFF build: " << metric.name;
  }
}

#endif  // SPOOFTRACK_OBS_ENABLED

// ---------------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------------

/// A report built by hand, so its bytes do not depend on what else the
/// process recorded into the global registry: an escaped label, a value
/// that takes 16 significant digits to read back exactly, and one metric
/// of each kind.
obs::RunReport sample_report() {
  obs::RunReport report;
  report.name = "test_run";
  report.obs_enabled = true;
  report.label("mode", "unit-test")
      .label("quoted", "a \"b\"\nc")
      .value("wall_ms", 12.5)
      .value("speedup", 1.0 / 3.0);

  obs::MetricSnapshot counter;
  counter.name = "test.obs.report_counter";
  counter.value = 3;
  obs::MetricSnapshot gauge;
  gauge.name = "test.obs.report_gauge";
  gauge.kind = obs::Kind::kGauge;
  gauge.value = 12;
  obs::MetricSnapshot hist;  // samples 7, 130, 130, 4096
  hist.name = "test.obs.report_hist";
  hist.unit = "ns";
  hist.kind = obs::Kind::kHistogram;
  hist.count = 4;
  hist.sum = 4363;
  hist.min = 7;
  hist.max = 4096;
  hist.bins[3] = 1;
  hist.bins[8] = 2;
  hist.bins[13] = 1;
  report.metrics.metrics = {counter, gauge, hist};
  return report;
}

std::string json_of(const obs::RunReport& report) {
  std::ostringstream out;
  report.write_json(out);
  return out.str();
}

TEST(ObsReport, JsonRoundTripIsByteIdentical) {
  // The spooftrack.obs.v1 bytes, pinned: fixed key order, escaped strings,
  // numbers in the shortest form that reads back as the same double, and
  // histogram percentiles as the clamped upper bounds of their log2 bins.
  const std::string expected = R"json({
  "schema": "spooftrack.obs.v1",
  "name": "test_run",
  "obs_enabled": true,
  "labels": {"mode": "unit-test", "quoted": "a \"b\"\nc"},
  "values": {"wall_ms": 12.5, "speedup": 0.3333333333333333},
  "metrics": [
    {"name": "test.obs.report_counter", "kind": "counter", "unit": "", "value": 3},
    {"name": "test.obs.report_gauge", "kind": "gauge", "unit": "", "value": 12},
    {"name": "test.obs.report_hist", "kind": "histogram", "unit": "ns", "count": 4, "sum": 4363, "min": 7, "max": 4096, "mean": 1090.75, "p50": 255, "p90": 4096, "p99": 4096, "bins": [[3, 1], [8, 2], [13, 1]]}
  ]
}
)json";
  EXPECT_EQ(json_of(sample_report()), expected);
  EXPECT_EQ(std::strtod("0.3333333333333333", nullptr), 1.0 / 3.0);
}

TEST(ObsReport, FileSaveAndLoad) {
  const obs::RunReport report = sample_report();
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "obs_report.json").string();
  report.save_json_file(path);
  std::ifstream in(path, std::ios::binary);
  std::stringstream saved;
  saved << in.rdbuf();
  EXPECT_EQ(saved.str(), json_of(report));
}

// ---------------------------------------------------------------------------
// Docs contract, both ways: every metric name the source tree emits is
// documented, and every metric the catalog documents is emitted.
// ---------------------------------------------------------------------------

#ifdef SPOOFTRACK_SOURCE_DIR

std::set<std::string> emitted_metric_names() {
  const std::regex call(
      R"re(OBS_(?:COUNT|GAUGE|HIST|TIMER)\(\s*"([^"]+)")re");
  std::set<std::string> names;
  // tests/ is deliberately excluded: test.obs.* names are not part of the
  // telemetry contract.
  for (const char* dir : {"src", "bench", "tools"}) {
    const std::filesystem::path root =
        std::filesystem::path(SPOOFTRACK_SOURCE_DIR) / dir;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(root)) {
      const auto ext = entry.path().extension();
      if (ext != ".cpp" && ext != ".hpp") continue;
      std::ifstream in(entry.path());
      std::stringstream buffer;
      buffer << in.rdbuf();
      const std::string text = buffer.str();
      for (auto it = std::sregex_iterator(text.begin(), text.end(), call);
           it != std::sregex_iterator(); ++it) {
        names.insert((*it)[1].str());
      }
    }
  }
  return names;
}

std::string observability_doc() {
  const std::filesystem::path doc_path =
      std::filesystem::path(SPOOFTRACK_SOURCE_DIR) / "docs" /
      "observability.md";
  EXPECT_TRUE(std::filesystem::exists(doc_path))
      << "docs/observability.md is missing";
  std::ifstream in(doc_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ObsDocsContract, EveryEmittedMetricIsDocumented) {
  const std::string doc = observability_doc();
  const std::set<std::string> names = emitted_metric_names();
  ASSERT_FALSE(names.empty()) << "no OBS_* call sites found — regex broken?";
  for (const std::string& name : names) {
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "metric '" << name
        << "' is emitted by the code but not documented (backticked) in "
           "docs/observability.md";
  }
}

TEST(ObsDocsContract, EveryDocumentedMetricIsEmitted) {
  // A catalog row names its metric, backticked and dotted, in the first
  // cell. A row whose metric lost its last emitter is stale.
  const std::regex metric(R"re(`([a-z0-9_]+(?:\.[a-z0-9_]+)+)`)re");
  const std::set<std::string> emitted = emitted_metric_names();
  std::istringstream lines(observability_doc());
  std::size_t documented = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("| `", 0) != 0) continue;
    const std::string cell = line.substr(1, line.find('|', 1) - 1);
    for (auto it = std::sregex_iterator(cell.begin(), cell.end(), metric);
         it != std::sregex_iterator(); ++it) {
      ++documented;
      const std::string name = (*it)[1].str();
      EXPECT_TRUE(emitted.count(name) == 1)
          << "docs/observability.md documents '" << name
          << "' but nothing under src/, bench/ or tools/ emits it";
    }
  }
  EXPECT_GT(documented, 0u) << "no catalog rows found — table format changed?";
}

#endif  // SPOOFTRACK_SOURCE_DIR

}  // namespace
}  // namespace spooftrack
