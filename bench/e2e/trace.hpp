// In-memory span recorder for the end-to-end benchmark.
//
// Spans wrap the public library calls the benchmark makes (testbed build,
// plan generation, deploy, artifact I/O, analysis, attribution queries).
// They are kept in memory and written once, when the process ends, as
// Chrome trace-event JSON (chrome://tracing, Perfetto). The benchmark is
// single-threaded at this level — the library's own worker pools run
// inside a span — so the recorder needs no synchronisation.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace spooftrack::e2e {

struct Span {
  const char* name = "";
  std::uint32_t id = 0;      // 1-based, in start order
  std::uint32_t parent = 0;  // 0 = top level
  std::int64_t query = -1;   // attack-query index, -1 outside the loop
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t child_ns = 0;  // summed durations of the direct children

  std::uint64_t duration_ns() const noexcept { return end_ns - start_ns; }
  std::uint64_t self_ns() const noexcept { return duration_ns() - child_ns; }
};

/// Where the process's wall time went that no top-level span covers.
struct Coverage {
  double wall_ms = 0;     // recorder start -> coverage() call
  double covered_ms = 0;  // sum of top-level spans
  double before_ms = 0;   // before the first top-level span
  double between_ms = 0;  // gaps between top-level spans
  double after_ms = 0;    // after the last top-level span
};

class Tracer {
 public:
  /// Ends its span on destruction, exceptions included.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t query);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Seconds since the span began.
    double elapsed_s() const;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  Scope scope(const char* name, std::int64_t query = -1) {
    return Scope(*this, name, query);
  }

  std::uint64_t now_ns() const;
  const std::vector<Span>& spans() const noexcept { return spans_; }

  Coverage coverage() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds). `args`
  /// carries the span id, parent id, query id and self time.
  void write_chrome(const std::string& path, long pid) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::uint32_t open_ = 0;  // id of the innermost open span
};

}  // namespace spooftrack::e2e
