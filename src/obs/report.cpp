#include "obs/report.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace spooftrack::obs {

namespace {

// ---- JSON writing --------------------------------------------------------

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest decimal representation that parses back to the same double —
/// keeps the JSON human-readable ("12.5", not "12.500000000000000") while
/// losing no precision.
std::string fmt_number(double value) {
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string fmt_u64(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, value);
  return buf;
}

void write_metric(std::ostream& out, const MetricSnapshot& metric) {
  out << "    {\"name\": \"" << escape(metric.name) << "\", \"kind\": \""
      << kind_name(metric.kind) << "\", \"unit\": \"" << escape(metric.unit)
      << "\"";
  if (metric.kind == Kind::kHistogram) {
    out << ", \"count\": " << fmt_u64(metric.count)
        << ", \"sum\": " << fmt_u64(metric.sum)
        << ", \"min\": " << fmt_u64(metric.min)
        << ", \"max\": " << fmt_u64(metric.max)
        << ", \"mean\": " << fmt_number(metric.mean())
        << ", \"p50\": " << fmt_number(metric.percentile(50.0))
        << ", \"p90\": " << fmt_number(metric.percentile(90.0))
        << ", \"p99\": " << fmt_number(metric.percentile(99.0))
        << ", \"bins\": [";
    bool first = true;
    for (std::size_t b = 0; b < kHistogramBins; ++b) {
      if (metric.bins[b] == 0) continue;
      if (!first) out << ", ";
      first = false;
      out << "[" << b << ", " << fmt_u64(metric.bins[b]) << "]";
    }
    out << "]";
  } else {
    out << ", \"value\": " << fmt_u64(metric.value);
  }
  out << "}";
}

}  // namespace

RunReport RunReport::capture(std::string_view run_name) {
  RunReport report;
  report.name = std::string(run_name);
  report.metrics = Registry::global().snapshot();
  return report;
}

RunReport& RunReport::label(std::string_view key, std::string_view value) {
  labels.emplace_back(std::string(key), std::string(value));
  return *this;
}

RunReport& RunReport::value(std::string_view key, double v) {
  values.emplace_back(std::string(key), v);
  return *this;
}

void RunReport::write_json(std::ostream& out) const {
  out << "{\n";
  out << "  \"schema\": \"" << escape(schema) << "\",\n";
  out << "  \"name\": \"" << escape(name) << "\",\n";
  out << "  \"obs_enabled\": " << (obs_enabled ? "true" : "false") << ",\n";
  out << "  \"labels\": {";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << escape(labels[i].first) << "\": \""
        << escape(labels[i].second) << "\"";
  }
  out << "},\n";
  out << "  \"values\": {";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << escape(values[i].first)
        << "\": " << fmt_number(values[i].second);
  }
  out << "},\n";
  out << "  \"metrics\": [";
  for (std::size_t i = 0; i < metrics.metrics.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    write_metric(out, metrics.metrics[i]);
  }
  if (!metrics.metrics.empty()) out << "\n  ";
  out << "]\n";
  out << "}\n";
}

void RunReport::save_json_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  write_json(out);
  out.flush();
  if (!out) throw std::runtime_error("write to " + path + " failed");
}

}  // namespace spooftrack::obs
