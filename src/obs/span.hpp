// Observability layer: hierarchical span tracing.
//
// Spans unify the per-queue Chrome-trace tracks under one hierarchy:
//
//   request (Engine::evaluate / EvalService batch)
//     └─ strategy attempt (one fallback-ladder rung)
//          └─ block (one distributed block, when applicable)
//               └─ command (one virtual device command)
//
// Each thread keeps a stack of open spans; a new span's parent is the
// innermost open span on the same thread, so the hierarchy falls out of
// lexical nesting with no plumbing through call signatures. Finished spans
// carry both clocks: wall time (for the Chrome trace timeline) and
// simulated seconds (the paper's cost-model time).
//
// The tracer is gated by the metrics registry's DFGEN_METRICS flag: while
// disabled, begin() hands out the null token and everything is a no-op.
// The store of finished spans is bounded (kMaxRecords): spans finishing
// while it is full are dropped and counted in
// dfgen_span_records_dropped_total, a counter registered at the first drop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dfg::obs {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root span
  std::string name;
  std::string category;  // "request" | "attempt" | "block" | "command"
  double start_wall = 0.0;
  double dur_wall = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t thread = 0;  // small stable per-thread index
};

class SpanTracer {
 public:
  static SpanTracer& instance();

  /// Finished spans kept at most: over 4x the spans of the largest traced
  /// benchmark run, so a long-lived process with metrics on stays bounded.
  static constexpr std::size_t kMaxRecords = std::size_t{1} << 18;

  /// Opens a span under the calling thread's innermost open span. Returns
  /// the span token, or 0 when tracing is disabled.
  std::uint64_t begin(std::string name, std::string category);
  /// Closes the span `token` (ignores 0), recording `sim_seconds` of
  /// simulated time against it.
  void end(std::uint64_t token, double sim_seconds = 0.0);

  /// The id of the calling thread's innermost open span (0 when none).
  std::uint64_t current() const;

  std::vector<SpanRecord> records() const;
  void clear();

  /// Chrome trace-event JSON ("X" complete events, one tid per thread,
  /// sim_seconds and parent id in args).
  std::string to_chrome_trace() const;

 private:
  SpanTracer() = default;
};

/// RAII span: opens in the constructor, closes in the destructor. Simulated
/// time is attributed with add_sim_seconds before destruction.
class Span {
 public:
  Span(std::string name, std::string category);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void add_sim_seconds(double seconds) { sim_seconds_ += seconds; }

 private:
  std::uint64_t token_;
  double sim_seconds_ = 0.0;
};

/// Writes the span trace to `path` as Chrome trace-event JSON. Throws
/// support::Error on I/O failure.
void write_span_trace(const std::string& path);

}  // namespace dfg::obs
