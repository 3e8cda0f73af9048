// Tests for the observability layer (src/obs): golden JSON snapshots,
// shard-merge exactness under concurrency, the DFGEN_METRICS gate, span
// hierarchy, and the thread-attribution contract the report structs rely
// on.
//
// The golden tests run a Table II expression (Q-criterion, 8^3
// rayleigh-taylor flow, the scaled Xeon X5660 model) once per execution
// strategy inside a fresh registry and require the JSON snapshot to be
// byte-for-byte equal to tests/golden/metrics_<strategy>.json — and to be
// invariant under the parallel_for worker count, which is the registry's
// central determinism promise. Regenerate the goldens after an intentional
// metric change with:
//   DFGEN_UPDATE_GOLDEN=1 ./test_metrics
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "kernels/program_cache.hpp"
#include "mesh/generators.hpp"
#include "mesh/mesh.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "vcl/catalog.hpp"
#include "vcl/device.hpp"

namespace {

using namespace dfg;

std::string golden_path(const char* strategy) {
  return std::string(DFGEN_TEST_DIR) + "/golden/metrics_" + strategy +
         ".json";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Runs the Table II workload under `kind` inside a fresh registry and
/// returns the registry's JSON snapshot. The program cache is cleared
/// *before* the registry is installed so each run starts cold and its
/// eviction counts land in the previous registry, not this snapshot.
std::string table2_snapshot(runtime::StrategyKind kind) {
  kernels::ProgramCache::instance().clear();
  obs::ScopedMetricsRegistry scoped;

  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 8, 8});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  vcl::Device device{vcl::xeon_x5660_scaled()};
  EngineOptions options;
  options.strategy = kind;
  // Pin the VM backend: the goldens' sim timings are priced at the
  // interpreter's compute efficiency, and running this suite under
  // DFGEN_BACKEND=jit must not perturb byte-pinned snapshots (jit runs
  // would also add compile spans and cache-counter traffic).
  options.backend = kernels::BackendKind::vm;
  Engine engine(device, options);
  engine.bind_mesh(mesh);
  engine.bind("u", field.u);
  engine.bind("v", field.v);
  engine.bind("w", field.w);
  engine.evaluate(expressions::kQCriterion);

  return scoped.registry().to_json();
}

const runtime::StrategyKind kStrategies[] = {
    runtime::StrategyKind::roundtrip, runtime::StrategyKind::staged,
    runtime::StrategyKind::fusion, runtime::StrategyKind::streamed};

TEST(MetricsGolden, Table2SnapshotsMatchGoldenFiles) {
  const bool update = support::env::get_flag("DFGEN_UPDATE_GOLDEN", false);
  for (const runtime::StrategyKind kind : kStrategies) {
    const char* name = runtime::strategy_name(kind);
    const std::string got = table2_snapshot(kind);
    const std::string path = golden_path(name);
    if (update) {
      std::ofstream out(path, std::ios::binary);
      ASSERT_TRUE(out) << "cannot write " << path;
      out << got;
      continue;
    }
    const std::string want = read_file(path);
    ASSERT_FALSE(want.empty())
        << "missing golden file " << path
        << " — generate it with DFGEN_UPDATE_GOLDEN=1 ./test_metrics";
    EXPECT_EQ(got, want) << "snapshot for strategy '" << name
                         << "' diverged from " << path;
  }
}

TEST(MetricsGolden, SnapshotIsByteIdenticalAcrossRunsAndWorkerCounts) {
  const std::string reference = table2_snapshot(runtime::StrategyKind::fusion);
  // Same workload, fresh registry: identical bytes.
  EXPECT_EQ(table2_snapshot(runtime::StrategyKind::fusion), reference);
  // Identical under any parallel_for split: instrumentation happens on the
  // evaluating thread and every stored value is an integer, so worker
  // count cannot reorder or perturb the merged totals.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}}) {
    support::set_worker_count(workers);
    EXPECT_EQ(table2_snapshot(runtime::StrategyKind::fusion), reference)
        << "snapshot changed with " << workers << " workers";
  }
  support::set_worker_count(0);
}

// ----- shard merge under concurrency (run under TSan in CI) -----

TEST(MetricsRegistry, ConcurrentIncrementsMergeExactly) {
  obs::ScopedMetricsRegistry scoped;
  obs::MetricsRegistry& reg = scoped.registry();
  const obs::MetricId counter = reg.counter("test_concurrent_total");
  const obs::MetricId histogram = reg.histogram("test_concurrent_nanos");

  constexpr int kThreads = 8;
  constexpr std::uint64_t kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, counter, histogram] {
      for (std::uint64_t i = 0; i < kIncrements; ++i) {
        reg.add(counter);
        reg.observe(histogram, i % 1024);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Lock-free relaxed shard adds merged on scrape: not one lost update.
  EXPECT_EQ(reg.counter_value(counter), kThreads * kIncrements);
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("test_concurrent_nanos_count{} " +
                      std::to_string(kThreads * kIncrements)),
            std::string::npos)
      << prom;
}

TEST(MetricsRegistry, ThreadCounterValueSeesOnlyTheCallingThread) {
  obs::ScopedMetricsRegistry scoped;
  obs::MetricsRegistry& reg = scoped.registry();
  const obs::MetricId counter = reg.counter("test_thread_local_total");
  reg.add(counter, 7);
  std::thread other([&] { reg.add(counter, 1000); });
  other.join();
  EXPECT_EQ(reg.thread_counter_value(counter), 7u);
  EXPECT_EQ(reg.counter_value(counter), 1007u);
}

// ----- the DFGEN_METRICS gate -----

TEST(MetricsRegistry, DisablingKeepsCountersButDropsGaugesAndSpans) {
  obs::ScopedMetricsRegistry scoped;
  obs::MetricsRegistry& reg = scoped.registry();
  reg.set_enabled(false);

  const obs::MetricId counter = reg.counter("test_gate_total");
  const obs::MetricId gauge = reg.gauge("test_gate_gauge");
  const obs::MetricId histogram = reg.histogram("test_gate_nanos");
  reg.add(counter, 3);          // counters are always live: reports need them
  reg.gauge_set(gauge, 42);     // dropped
  reg.observe(histogram, 100);  // dropped
  EXPECT_EQ(reg.counter_value(counter), 3u);
  EXPECT_EQ(reg.gauge_value(gauge), 0u);
  EXPECT_EQ(reg.to_prometheus().find("test_gate_nanos_count 1"),
            std::string::npos);

  obs::SpanTracer::instance().clear();
  {
    obs::Span span("gated", "request");
  }
  EXPECT_TRUE(obs::SpanTracer::instance().records().empty());

  reg.set_enabled(true);
  {
    obs::Span span("open", "request");
  }
  ASSERT_EQ(obs::SpanTracer::instance().records().size(), 1u);
  obs::SpanTracer::instance().clear();
}

// ----- span hierarchy -----

TEST(Spans, EvaluationProducesRequestAttemptCommandHierarchy) {
  kernels::ProgramCache::instance().clear();
  obs::ScopedMetricsRegistry scoped;
  obs::SpanTracer::instance().clear();

  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 8, 8});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  vcl::Device device{vcl::xeon_x5660_scaled()};
  Engine engine(device, {});
  engine.bind_mesh(mesh);
  engine.bind("u", field.u);
  engine.bind("v", field.v);
  engine.bind("w", field.w);
  engine.evaluate(expressions::kQCriterion);

  const std::vector<obs::SpanRecord> records =
      obs::SpanTracer::instance().records();
  obs::SpanTracer::instance().clear();

  const obs::SpanRecord* request = nullptr;
  const obs::SpanRecord* attempt = nullptr;
  for (const obs::SpanRecord& record : records) {
    if (record.category == "request") request = &record;
    if (record.category == "attempt") attempt = &record;
  }
  ASSERT_NE(request, nullptr);
  ASSERT_NE(attempt, nullptr);
  EXPECT_EQ(request->name, "evaluate:q");
  EXPECT_EQ(request->parent, 0u);
  EXPECT_EQ(attempt->name, "strategy:fusion");
  EXPECT_EQ(attempt->parent, request->id);
  EXPECT_GT(request->sim_seconds, 0.0);

  std::size_t commands = 0;
  for (const obs::SpanRecord& record : records) {
    if (record.category != "command") continue;
    ++commands;
    EXPECT_EQ(record.parent, attempt->id)
        << "command span '" << record.name << "' not under the attempt";
  }
  // Fusion: 7 uploads (u, v, w, x, y, z, dims), 1 kernel, 1 download.
  EXPECT_GE(commands, 3u);

  // The Chrome trace export contains every span as an "X" event.
  const std::string trace = obs::SpanTracer::instance().to_chrome_trace();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
}

// ----- cache attribution across reused threads -----

// A worker thread reused across sessions must attribute each window's
// cache traffic exactly: thread_stats is monotonic (reset_stats leaves it
// alone) and per-thread (other threads' traffic is invisible), so
// before/after deltas can neither straddle a reset nor leak traffic.
TEST(CacheAttribution, ReusedThreadWindowsStayExactUnderConcurrency) {
  kernels::ProgramCache::instance().clear();
  obs::ScopedMetricsRegistry scoped;
  kernels::ProgramCache& cache = kernels::ProgramCache::instance();

  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({6, 6, 6});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);

  // Background noise: another thread hammering a *different* expression.
  std::atomic<bool> stop{false};
  std::thread noise([&] {
    vcl::Device device{vcl::xeon_x5660_scaled()};
    Engine engine(device, {});
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    while (!stop.load()) {
      engine.evaluate(expressions::kVelocityMagnitude);
    }
  });

  // The "reused worker": two sessions on one OS thread, with a
  // reset_stats() between them as a hostile reuse boundary.
  std::thread worker([&] {
    vcl::Device device{vcl::xeon_x5660_scaled()};
    Engine engine(device, {});
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);

    const kernels::ProgramCacheStats s0 = cache.thread_stats();
    const EvaluationReport first = engine.evaluate(expressions::kQCriterion);
    const kernels::ProgramCacheStats s1 = cache.thread_stats();
    EXPECT_GE(s1.pipeline_misses - s0.pipeline_misses, 1u)
        << "cold run must miss";
    EXPECT_GT(first.pipeline_cache_misses, 0u);

    cache.reset_stats();  // session boundary: must not disturb thread stats

    const kernels::ProgramCacheStats s2 = cache.thread_stats();
    EXPECT_EQ(s2.pipeline_misses, s1.pipeline_misses)
        << "reset_stats() must not rewind thread attribution";
    const EvaluationReport second = engine.evaluate(expressions::kQCriterion);
    const kernels::ProgramCacheStats s3 = cache.thread_stats();
    EXPECT_GE(s3.pipeline_hits - s2.pipeline_hits, 1u)
        << "warm run must hit";
    EXPECT_EQ(s3.pipeline_misses, s2.pipeline_misses)
        << "warm run must not miss";
    EXPECT_GT(second.pipeline_cache_hits, 0u);
    EXPECT_EQ(second.pipeline_cache_misses, 0u);
  });

  worker.join();
  stop.store(true);
  noise.join();
}

// ----- exposition formats -----

TEST(MetricsRegistry, PrometheusAndDumpCoverEveryKind) {
  obs::ScopedMetricsRegistry scoped;
  obs::MetricsRegistry& reg = scoped.registry();
  reg.add(reg.counter("test_fmt_total", {{"device", "cpu0"}}), 5);
  reg.gauge_set(reg.gauge("test_fmt_gauge"), 17);
  reg.observe(reg.histogram("test_fmt_nanos"), 1000);

  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE test_fmt_total counter"), std::string::npos);
  EXPECT_NE(prom.find("test_fmt_total{device=\"cpu0\"} 5"),
            std::string::npos);
  EXPECT_NE(prom.find("test_fmt_gauge 17"), std::string::npos);
  EXPECT_NE(prom.find("test_fmt_nanos_count{} 1"), std::string::npos);
  EXPECT_NE(prom.find("test_fmt_nanos_sum{} 1000"), std::string::npos);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"schema\": \"dfgen-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"test_fmt_total\""), std::string::npos);

  // dump() writes the summary table without touching the snapshot.
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  reg.dump(sink);
  std::fclose(sink);
  EXPECT_EQ(reg.to_json(), json);
}

TEST(MetricsRegistry, EscapesLabelValuesAndRoundTripsThroughFiles) {
  obs::ScopedMetricsRegistry scoped;
  obs::MetricsRegistry& reg = scoped.registry();
  const obs::Labels hostile = {{"path", "a\"b\\c\nd\te\rf\x01g"}};
  reg.add(reg.counter("test_escape_total", hostile), 3);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te\\rf\\u0001g"), std::string::npos)
      << json;

  // The newline inside the label value must be encoded, not emitted: one
  // series stays one exposition line.
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("test_escape_total"), std::string::npos);
  EXPECT_NE(prom.find("c\\nd"), std::string::npos) << prom;
  EXPECT_EQ(prom.find("c\nd"), std::string::npos);

  // write_metrics_file picks the format from the extension; both formats
  // must round-trip byte-for-byte through the file.
  const std::string stem = ::testing::TempDir() + "test_metrics_out";
  obs::write_metrics_file(stem + ".json");
  obs::write_metrics_file(stem + ".prom");
  EXPECT_EQ(read_file(stem + ".json"), json);
  EXPECT_EQ(read_file(stem + ".prom"), prom);
  std::remove((stem + ".json").c_str());
  std::remove((stem + ".prom").c_str());

  // dump_metrics() is the global-registry convenience wrapper.
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  obs::dump_metrics(sink);
  std::fclose(sink);

  // reset_values zeroes data but keeps registrations.
  reg.reset_values();
  EXPECT_EQ(reg.counter_value(reg.counter("test_escape_total", hostile)), 0u);
}

TEST(MetricsRegistry, RejectsKindMismatchAndCapacityExhaustion) {
  obs::ScopedMetricsRegistry scoped;
  obs::MetricsRegistry& reg = scoped.registry();
  reg.counter("test_kind_total");
  EXPECT_THROW(reg.gauge("test_kind_total"), Error);

  // Gauges live in a fixed registry-level array; one past the end must
  // throw instead of corrupting a neighbor.
  bool gauge_threw = false;
  for (int i = 0; i < 1100 && !gauge_threw; ++i) {
    try {
      reg.gauge("test_gauge_capacity", {{"i", std::to_string(i)}});
    } catch (const Error&) {
      gauge_threw = true;
    }
  }
  EXPECT_TRUE(gauge_threw);

  // Counter/histogram slots come from the sharded block space; exhaust it
  // with histograms (50 slots each) and expect a clean throw.
  bool slot_threw = false;
  for (int i = 0; i < 1400 && !slot_threw; ++i) {
    try {
      reg.histogram("test_histo_capacity", {{"i", std::to_string(i)}});
    } catch (const Error&) {
      slot_threw = true;
    }
  }
  EXPECT_TRUE(slot_threw);
}

// ----- span exporter -----

TEST(Spans, ChromeTraceExportAndCurrentSpanTracking) {
  obs::ScopedMetricsRegistry scoped;  // fresh, enabled: tracing is live
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  tracer.clear();
  EXPECT_EQ(tracer.current(), 0u);
  {
    obs::Span outer("outer", "request");
    const std::uint64_t outer_id = tracer.current();
    EXPECT_NE(outer_id, 0u);
    {
      obs::Span inner("inner", "command");
      inner.add_sim_seconds(0.25);
      EXPECT_NE(tracer.current(), outer_id);
    }
    EXPECT_EQ(tracer.current(), outer_id);
  }
  EXPECT_EQ(tracer.current(), 0u);

  const std::string trace = tracer.to_chrome_trace();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("outer"), std::string::npos);
  EXPECT_NE(trace.find("inner"), std::string::npos);

  const std::string path = ::testing::TempDir() + "test_span_trace.json";
  obs::write_span_trace(path);
  EXPECT_EQ(read_file(path), trace);
  std::remove(path.c_str());
  tracer.clear();
}

/// Structural JSON check: every string literal closes and holds no raw
/// control character, and braces/brackets balance outside strings.
bool json_well_formed(const std::string& text) {
  std::string open;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // the escaped character
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      open.push_back(c);
    } else if (c == '}' || c == ']') {
      if (open.empty() || open.back() != (c == '}' ? '{' : '[')) return false;
      open.pop_back();
    }
  }
  return !in_string && open.empty();
}

// Span names carry caller input (the service's `dispatch:<session>`), so
// the exporter must escape them and keep them whole at any length.
TEST(Spans, ChromeTraceEscapesNamesOfAnyLength) {
  obs::ScopedMetricsRegistry scoped;
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  tracer.clear();
  const std::string long_name(300, 'n');
  for (const std::string& name :
       {std::string("dispatch:tenant \"a\""), std::string("back\\slash"),
        std::string("line\nbreak"), long_name}) {
    obs::Span span(name, "batch");
  }
  const std::string trace = tracer.to_chrome_trace();
  tracer.clear();

  EXPECT_TRUE(json_well_formed(trace)) << trace;
  EXPECT_NE(trace.find("\"name\":\"dispatch:tenant \\\"a\\\"\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"back\\\\slash\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"line\\nbreak\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"" + long_name + "\",\"cat\":\"batch\""),
            std::string::npos);
}

}  // namespace
