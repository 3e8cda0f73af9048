// Observability layer: process-wide metrics registry.
//
// The registry holds three metric families, all keyed by (name, labels):
//
//   counters   — monotonic uint64 totals. The write path is lock-free: each
//                thread owns a private shard of atomic slots and increments
//                with relaxed atomics; a scrape merges all shards. Counters
//                are *always live* — ServiceSnapshot's scalars are views
//                over them, so disabling metrics must not zero them. (Device
//                event reports tally their ProfilingLog instead.)
//   gauges     — registry-level atomics with set / record-max semantics
//                (buffer high-water marks, queue depth).
//   histograms — fixed log2-bucket distributions of simulated-time
//                nanoseconds: bucket i counts values in [2^i, 2^(i+1)) ns,
//                plus an exact count and sum.
//
// Determinism: every stored value is an integer (simulated seconds are
// converted to nanoseconds at the instrumentation site), so the merged
// totals — and therefore the JSON snapshot — are byte-identical regardless
// of how work was split across threads or in which order shards merge.
// Wall-clock durations never enter the registry; the only clock in a
// snapshot is the simulated one.
//
// Environment knobs (registered in support/env):
//   DFGEN_METRICS=0        — disable the optional layers: gauges, histograms
//                            and spans become no-ops (counters stay live, see
//                            above). Default: enabled.
//   DFGEN_METRICS_OUT=path — at process exit, write the registry to `path`
//                            (JSON snapshot if the path ends in .json,
//                            Prometheus text exposition otherwise) and the
//                            span trace to `path`.trace.json.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dfg::obs {

/// Sorted-on-registration (key, value) pairs identifying one time series.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { counter, gauge, histogram };

/// Opaque handle: the base slot (counters, histograms) or gauge index.
/// Handles are only meaningful against the registry that issued them.
using MetricId = std::uint32_t;

/// Histograms span 48 log2 buckets: [0,2), [2,4), … [2^47, inf) ns — enough
/// for sub-nanosecond noise up to ~39 hours of simulated time.
inline constexpr std::uint32_t kHistogramBuckets = 48;

/// Converts simulated seconds to the integer nanoseconds the registry
/// stores. Centralised so every instrumentation site rounds identically.
std::uint64_t sim_nanos(double sim_seconds);

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Registration (mutex-protected, idempotent per (name, labels)) ---
  // Re-registering an existing series returns the same id; registering the
  // same (name, labels) under a different kind throws.
  MetricId counter(const std::string& name, Labels labels = {});
  MetricId gauge(const std::string& name, Labels labels = {});
  MetricId histogram(const std::string& name, Labels labels = {});

  // --- Write fast paths ---
  /// Lock-free relaxed add on the calling thread's shard. Always live.
  void add(MetricId id, std::uint64_t delta = 1);
  /// Gauge store / monotonic max. No-ops while the registry is disabled.
  void gauge_set(MetricId id, std::uint64_t value);
  void gauge_max(MetricId id, std::uint64_t value);
  /// Histogram observation (lock-free, calling thread's shard). No-op while
  /// the registry is disabled.
  void observe(MetricId id, std::uint64_t nanos);

  // --- Reads ---
  /// Merged total across every shard.
  std::uint64_t counter_value(MetricId id) const;
  /// The calling thread's shard only: before/after deltas of it never see
  /// concurrent evaluations' traffic (ProgramCache::thread_stats).
  std::uint64_t thread_counter_value(MetricId id) const;
  std::uint64_t gauge_value(MetricId id) const;

  /// DFGEN_METRICS gate for gauges, histograms and spans (counters always
  /// run; see the header comment).
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Zeroes every value (registrations survive). Test convenience; callers
  /// must ensure no concurrent writers.
  void reset_values();

  // --- Exposition ---
  /// Prometheus text format, series sorted by (name, labels).
  std::string to_prometheus() const;
  /// Deterministic JSON snapshot: stable key order, sorted series, integer
  /// values only, `sim_nanos` total as the logical timestamp. Byte-identical
  /// across runs and thread counts for a deterministic workload.
  std::string to_json() const;
  /// Human-readable end-of-run summary table.
  void dump(std::FILE* out) const;

 private:
  // A shard is one thread's private slot array, grown in zeroed blocks the
  // owning thread allocates on first touch; the scrape path reads block
  // pointers with acquire loads and never takes the fast-path lock.
  static constexpr std::uint32_t kBlockSlots = 1024;
  static constexpr std::uint32_t kMaxBlocks = 64;
  struct Block {
    std::array<std::atomic<std::uint64_t>, kBlockSlots> slots{};
  };
  struct Shard {
    std::array<std::atomic<Block*>, kMaxBlocks> blocks{};
    ~Shard();
    std::atomic<std::uint64_t>* slot(std::uint32_t index, bool create);
  };

  struct Meta {
    MetricKind kind;
    std::string name;
    Labels labels;
    MetricId id;  // base slot or gauge index
  };

  static constexpr std::uint32_t kMaxGauges = 1024;

  MetricId register_metric(MetricKind kind, const std::string& name,
                           Labels labels, std::uint32_t slots);
  Shard& this_thread_shard() const;
  std::uint64_t merged_slot(std::uint32_t slot) const;
  std::vector<Meta> sorted_metas() const;

  const std::uint64_t uid_;  // process-unique; keys the thread shard cache
  std::atomic<bool> enabled_;

  mutable std::mutex mutex_;
  std::vector<Meta> metas_;
  std::map<std::string, std::size_t> index_;  // series key -> metas_ index
  std::uint32_t next_slot_ = 0;
  std::uint32_t next_gauge_ = 0;
  mutable std::deque<std::unique_ptr<Shard>> shards_;
  std::array<std::atomic<std::uint64_t>, kMaxGauges> gauges_{};
};

/// The current process-wide registry (swap with ScopedMetricsRegistry).
MetricsRegistry& metrics();

/// Installs a fresh registry as the process-wide one for its lifetime, then
/// restores the previous registry. Tests use this so golden snapshots
/// contain exactly their own workload's series. Not reentrancy-safe across
/// threads: intended for single test bodies.
class ScopedMetricsRegistry {
 public:
  ScopedMetricsRegistry();
  ~ScopedMetricsRegistry();
  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

  MetricsRegistry& registry() { return mine_; }

 private:
  MetricsRegistry mine_;
  MetricsRegistry* prev_;
};

/// `dump_metrics()` — the end-of-run summary table on stderr (or `out`).
void dump_metrics(std::FILE* out = stderr);

/// Writes the current registry to `path`: JSON snapshot when the path ends
/// in ".json", Prometheus text otherwise. Throws support::Error on I/O
/// failure.
void write_metrics_file(const std::string& path);

}  // namespace dfg::obs
