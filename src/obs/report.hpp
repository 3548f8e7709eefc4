// Structured run reports: a machine-readable telemetry blob every bench
// and the CLI can emit next to their results.
//
// The JSON schema ("spooftrack.obs.v1") is documented in
// docs/observability.md. write_json's output is deterministic: fixed key
// order and shortest round-trip number formatting. tests/test_obs.cpp pins
// it byte for byte. The library only writes reports; CI reads real CLI and
// bench reports from Python and validates them against the schema.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace spooftrack::obs {

inline constexpr std::string_view kReportSchema = "spooftrack.obs.v1";

struct RunReport {
  std::string schema = std::string(kReportSchema);
  /// Which binary/run produced the report, e.g. "spooftrack-deploy".
  std::string name;
  /// Whether the producing binary was compiled with SPOOFTRACK_OBS=ON —
  /// lets consumers distinguish "no work happened" from "not recorded".
  bool obs_enabled = SPOOFTRACK_OBS_ENABLED != 0;
  /// Free-form string annotations (mode, equivalence verdicts, ...).
  std::vector<std::pair<std::string, std::string>> labels;
  /// Free-form scalar results (wall_ms, speedup, ...): the place for
  /// run-level numbers that are not registry metrics.
  std::vector<std::pair<std::string, double>> values;
  /// Merged registry metrics at capture time.
  Snapshot metrics;

  /// Snapshot of Registry::global() under `run_name`.
  static RunReport capture(std::string_view run_name);

  RunReport& label(std::string_view key, std::string_view value);
  RunReport& value(std::string_view key, double v);

  void write_json(std::ostream& out) const;
  /// Throws std::runtime_error on write failure.
  void save_json_file(const std::string& path) const;
};

}  // namespace spooftrack::obs
