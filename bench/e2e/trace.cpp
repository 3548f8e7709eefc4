#include "trace.hpp"

#include <fstream>
#include <stdexcept>

namespace spooftrack::e2e {

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::int64_t query)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(index_ + 1);
  span.parent = tracer.open_;
  span.query = query;
  span.start_ns = tracer.now_ns();
  tracer.spans_.push_back(span);
  tracer.open_ = span.id;
}

Tracer::Scope::~Scope() {
  Span& span = tracer_.spans_[index_];
  span.end_ns = tracer_.now_ns();
  if (span.parent != 0) {
    tracer_.spans_[span.parent - 1].child_ns += span.duration_ns();
  }
  tracer_.open_ = span.parent;
}

double Tracer::Scope::elapsed_s() const {
  return static_cast<double>(tracer_.now_ns() -
                             tracer_.spans_[index_].start_ns) /
         1e9;
}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

Coverage Tracer::coverage() const {
  Coverage c;
  const std::uint64_t wall = now_ns();
  std::uint64_t covered = 0;
  std::uint64_t cursor = 0;  // end of the previous top-level span
  bool first = true;
  std::uint64_t before = 0;
  std::uint64_t between = 0;
  for (const Span& span : spans_) {
    if (span.parent != 0 || span.end_ns == 0) continue;
    covered += span.duration_ns();
    if (first) {
      before = span.start_ns;
      first = false;
    } else {
      between += span.start_ns - cursor;
    }
    cursor = span.end_ns;
  }
  c.wall_ms = static_cast<double>(wall) / 1e6;
  c.covered_ms = static_cast<double>(covered) / 1e6;
  c.before_ms = static_cast<double>(first ? wall : before) / 1e6;
  c.between_ms = static_cast<double>(between) / 1e6;
  c.after_ms = static_cast<double>(first ? 0 : wall - cursor) / 1e6;
  return c;
}

void Tracer::write_chrome(const std::string& path, long pid) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out.precision(15);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans_) {
    if (span.end_ns == 0) continue;
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << span.name << "\",\"cat\":\"e2e\",\"ph\":\"X\""
        << ",\"pid\":" << pid << ",\"tid\":0"
        << ",\"ts\":" << static_cast<double>(span.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(span.duration_ns()) / 1e3
        << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"query\":" << span.query
        << ",\"self_us\":" << static_cast<double>(span.self_ns()) / 1e3
        << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace spooftrack::e2e
