// The three workloads. Each sets itself up several times (the last set-up
// is kept), runs its timed phase against the public API, checks sampled
// outputs against the scalar backend outside the timed region, and turns
// what it saw into end-to-end metrics — or, in the traced run, into
// per-layer metrics from spans, counters and the layer probes.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "kernels/jit.hpp"
#include "kernels/program_cache.hpp"
#include "mesh/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "service/service.hpp"
#include "support/parallel.hpp"
#include "vcl/catalog.hpp"
#include "vcl/event.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

dfg::vcl::DeviceSpec device_spec(const std::string& name) {
  dfg::vcl::DeviceSpec spec = dfg::vcl::xeon_x5660_scaled();
  spec.name = name;
  return spec;
}

namespace {

const Clock::time_point g_process_start = Clock::now();

/// Set-ups per run (the median is reported, the last one is kept): more
/// where set-up is short and its median noisier.
constexpr int kSetupRepeats = 5;
constexpr int kServiceSetupRepeats = 3;
/// Untraced closed loops run at least this many operations, so that the
/// p90 latency always has ten samples beyond it.
constexpr std::size_t kMinOps = 110;

using dfg::mesh::VectorField;

std::vector<float>& component(VectorField& field, std::size_t c) {
  return c == 0 ? field.u : c == 1 ? field.v : field.w;
}

const std::vector<float>& component(const VectorField& field, std::size_t c) {
  return c == 0 ? field.u : c == 1 ? field.v : field.w;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

/// The workload seed as the 32-bit seed of the synthetic flow generator.
std::uint32_t flow_seed(std::uint64_t seed) {
  return static_cast<std::uint32_t>(seed ^ (seed >> 32));
}

/// Registry totals of the workload's devices plus the program caches:
/// read at phase boundaries, their differences are the layer counts.
struct Counters {
  double writes = 0, reads = 0, kernels = 0, upload_bytes = 0;
  double sim_nanos = 0, retries = 0, integrity = 0;
  double resident_hits = 0, resident_misses = 0;
  dfg::kernels::ProgramCacheStats cache;
  dfg::kernels::JitCacheStats jit;

  static Counters sample(const std::vector<std::string>& devices) {
    dfg::obs::MetricsRegistry& reg = dfg::obs::metrics();
    Counters c;
    const auto value = [&](const char* name, dfg::obs::Labels labels) {
      return static_cast<double>(reg.counter_value(reg.counter(name, labels)));
    };
    for (const std::string& device : devices) {
      const auto kind = [&](dfg::vcl::EventKind k) {
        return dfg::obs::Labels{{"device", device},
                                {"kind", dfg::vcl::event_kind_slug(k)}};
      };
      using dfg::vcl::EventKind;
      const auto events = [&](EventKind k) {
        return value("dfgen_vcl_events_total", kind(k));
      };
      c.writes += events(EventKind::host_to_device);
      c.reads += events(EventKind::device_to_host);
      c.kernels += events(EventKind::kernel_exec);
      c.integrity += events(EventKind::integrity);
      c.upload_bytes +=
          value("dfgen_vcl_bytes_total", kind(EventKind::host_to_device));
      for (const EventKind k : {EventKind::host_to_device,
                                EventKind::device_to_host,
                                EventKind::kernel_exec}) {
        c.sim_nanos += value("dfgen_vcl_sim_nanos_total", kind(k));
      }
      const dfg::obs::Labels on_device{{"device", device}};
      c.retries += value("dfgen_vcl_command_retries_total", on_device);
      c.resident_hits += value("dfgen_resident_hits_total", on_device);
      c.resident_misses += value("dfgen_resident_misses_total", on_device);
    }
    c.cache = dfg::kernels::ProgramCache::instance().stats();
    c.jit = dfg::kernels::ProgramCache::instance().jit_stats();
    return c;
  }
};

double jit_fallbacks() {
  dfg::obs::MetricsRegistry& reg = dfg::obs::metrics();
  return static_cast<double>(
      reg.counter_value(reg.counter("dfgen_jit_fallbacks_total")));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> counter_metrics(const Counters& a, const Counters& b,
                                    double ops) {
  const double pipe_hits = static_cast<double>(
      b.cache.pipeline_hits - a.cache.pipeline_hits);
  const double pipe_misses = static_cast<double>(
      b.cache.pipeline_misses - a.cache.pipeline_misses);
  const double jit_hits = static_cast<double>(b.jit.hits - a.jit.hits);
  const double jit_misses = static_cast<double>(b.jit.misses - a.jit.misses);
  const double hits = b.resident_hits - a.resident_hits;
  const double misses = b.resident_misses - a.resident_misses;
  return {
      {"kernels.pipeline_cache_hit_ratio",
       ratio(pipe_hits, pipe_hits + pipe_misses), "ratio"},
      {"kernels.jit_cache_hit_ratio", ratio(jit_hits, jit_hits + jit_misses),
       "ratio"},
      {"kernels.jit_fallbacks", jit_fallbacks(), "count"},
      {"vcl.uploads_per_op", ratio(b.writes - a.writes, ops), "count"},
      {"vcl.upload_mb_per_op",
       ratio((b.upload_bytes - a.upload_bytes) / kMiB, ops), "MB"},
      {"vcl.downloads_per_op", ratio(b.reads - a.reads, ops), "count"},
      {"vcl.kernel_launches_per_op", ratio(b.kernels - a.kernels, ops),
       "count"},
      {"vcl.resident_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"vcl.retries", b.retries - a.retries, "count"},
      {"vcl.checksum_mismatches", b.integrity - a.integrity, "count"},
      {"vcl.sim_ms_per_op", ratio((b.sim_nanos - a.sim_nanos) * 1e-6, ops),
       "ms"},
  };
}

/// The counts an evaluation report carries, kept next to its span.
void trace_report(const dfg::EvaluationReport& report) {
  trace_counts(
      "EvaluationReport",
      {{"dev_writes", static_cast<double>(report.dev_writes)},
       {"dev_reads", static_cast<double>(report.dev_reads)},
       {"kernel_execs", static_cast<double>(report.kernel_execs)},
       {"resident_hits", static_cast<double>(report.resident_hits)},
       {"resident_misses", static_cast<double>(report.resident_misses)},
       {"pipeline_cache_hits", static_cast<double>(report.pipeline_cache_hits)},
       {"pipeline_cache_misses",
        static_cast<double>(report.pipeline_cache_misses)},
       {"checksum_mismatches", static_cast<double>(report.checksum_mismatches)},
       {"command_retries", static_cast<double>(report.command_retries)},
       {"report_wall_ms", report.wall_seconds * 1e3},
       {"sim_ms", report.sim_seconds * 1e3}});
}

/// What one timed phase saw.
struct PhaseStats {
  std::vector<double> latency_ms;
  /// How late each operation was sent after it was due (closed loops: due
  /// when the previous one completed).
  std::vector<double> lag_ms;
  /// Time the generator spent making the next inputs ready.
  double prep_ms = 0.0;
  std::size_t attempted = 0, completed = 0, failed = 0, rejected = 0;
  std::size_t checked = 0, mismatches = 0, within_limit = 0;
  double cells = 0.0;
  double seconds = 0.0;
  std::size_t device_peak_bytes = 0;
  /// service.* / memo.* figures of a phase that drove the service.
  std::vector<Metric> service;

  double ops_per_s() const {
    return ratio(static_cast<double>(completed), seconds);
  }
  void merge_outcome(const PhaseStats& other) {
    attempted += other.attempted;
    failed += other.failed;
    rejected += other.rejected;
    checked += other.checked;
    mismatches += other.mismatches;
  }
};

/// Scalar-backend twin of a workload's engine, on its own device. The
/// bound arrays are the caller's: it sees exactly the inputs it is asked
/// to check.
class Oracle {
 public:
  Oracle(const dfg::mesh::RectilinearMesh& mesh, const VectorField& field)
      : device_(device_spec("oracle")), engine_(device_, options()) {
    engine_.bind_mesh(mesh);
    engine_.bind("u", field.u);
    engine_.bind("v", field.v);
    engine_.bind("w", field.w);
  }

  /// True when `got` matches the scalar result bit for bit (NaN-class).
  bool matches(const std::string& expression, const std::vector<float>& got) {
    const std::vector<float> want = engine_.evaluate(expression).values;
    const std::size_t at = first_mismatch(got, want);
    if (at == static_cast<std::size_t>(-1)) return true;
    std::fprintf(stderr, "MISMATCH at element %zu of:\n%s\n", at,
                 expression.c_str());
    return false;
  }

 private:
  static dfg::EngineOptions options() {
    dfg::EngineOptions o;
    o.backend = dfg::kernels::BackendKind::scalar;
    return o;
  }

  dfg::vcl::Device device_;
  dfg::Engine engine_;
};

/// One caller driving an Engine in a closed loop: each operation is due
/// when the previous one completed. `prepare` makes the next operation's
/// inputs ready and returns its expression; the first operation and every
/// `check_every`-th after it are compared with the oracle outside the
/// timed region.
struct ClosedLoop {
  dfg::Engine& engine;
  Oracle& oracle;
  const char* op_name;
  double limit_ms = 0.0;
  std::size_t check_every = 1;
  std::size_t min_ops = 1;
  std::function<std::string()> prepare;
  std::uint64_t ops = 0;  ///< across phases, so checks stay spaced

  /// Runs for `duration` seconds of timed work, and at least min_ops.
  PhaseStats run(double duration) {
    PhaseStats st;
    const Clock::time_point start = Clock::now();
    Clock::time_point previous = start;
    double excluded = 0.0;
    while (seconds_between(start, Clock::now()) - excluded < duration ||
           st.attempted < min_ops) {
      dfg::obs::Span op(op_name, "bench");
      const bool check = ops++ % check_every == 0;
      const Clock::time_point p0 = Clock::now();
      const std::string expression = prepare();
      const Clock::time_point sent = Clock::now();
      st.prep_ms += ms_between(p0, sent);
      st.lag_ms.push_back(ms_between(previous, sent));
      ++st.attempted;
      try {
        dfg::EvaluationReport report;
        {
          dfg::obs::Span span("Engine::evaluate", "core");
          report = engine.evaluate(expression);
        }
        previous = Clock::now();
        trace_report(report);
        const double latency = ms_between(sent, previous);
        st.latency_ms.push_back(latency);
        ++st.completed;
        if (latency <= limit_ms) ++st.within_limit;
        st.cells += static_cast<double>(report.elements);
        st.device_peak_bytes =
            std::max(st.device_peak_bytes, report.memory_high_water_bytes);
        if (check) {
          ++st.checked;
          if (!oracle.matches(expression, report.values)) ++st.mismatches;
          excluded += seconds_between(previous, Clock::now());
          previous = Clock::now();
        }
      } catch (const std::exception& error) {
        std::fprintf(stderr, "%s failed: %s\n%s\n", op_name, error.what(),
                     expression.c_str());
        ++st.failed;
        previous = Clock::now();
      }
    }
    st.seconds = seconds_between(start, Clock::now()) - excluded;
    return st;
  }
};

/// Builds the workload state `repeats` times from a cold program
/// cache (so each set-up pays codegen and the JIT compile) and keeps the
/// last. The first set-up is timed from process start.
template <typename State, typename Make>
std::unique_ptr<State> repeated_setup(Make make, std::vector<double>& setup_s,
                                      int repeats = kSetupRepeats) {
  std::unique_ptr<State> state;
  for (int k = 0; k < repeats; ++k) {
    state.reset();
    dfg::kernels::ProgramCache::instance().clear();
    const Clock::time_point t0 = k == 0 ? g_process_start : Clock::now();
    state = make();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  return state;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Everything run_phases needs to know about a workload.
struct Workload {
  std::string name;
  std::vector<std::string> devices;
  double limit_ms = 0.0;
  double working_set_bytes = 0.0;
  double offered_rate = 0.0;  ///< open loop only
  std::vector<Metric> extra;
};

using PhaseFn = std::function<PhaseStats(double seconds)>;
using ProbeFn = std::function<ProbeInputs()>;

std::size_t llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::size_t>(l3);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<std::size_t>(l2) : 0;
}

std::string context_json(const RunConfig& config, const Workload& w) {
  const std::size_t llc = llc_bytes();
  const bool resident =
      llc != 0 && w.working_set_bytes <= static_cast<double>(llc);
  char buf[256];
  std::string out = "{\"workload\": \"" + w.name + "\"";
  out += ", \"seed\": " + std::to_string(config.seed);
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"worker_count\": " +
         std::to_string(dfg::support::worker_count());
  out += ", \"build_type\": \"" + json_escape(PERFBENCH_BUILD_TYPE) + "\"";
  out += ", \"jit_compiler\": \"" +
         json_escape(dfg::kernels::jit::compiler_command()) + "\"";
  std::snprintf(buf, sizeof buf,
                ", \"working_set_bytes\": %.0f, \"llc_bytes\": %zu, "
                "\"transfer_figures\": \"%s\", \"latency_limit_ms\": %g",
                w.working_set_bytes, llc,
                resident ? "cache-resident" : "memory-resident", w.limit_ms);
  out += buf;
  if (w.offered_rate > 0.0) {
    std::snprintf(buf, sizeof buf, ", \"offered_rate_rps\": %g",
                  w.offered_rate);
    out += buf;
  }
  out += "}";
  return out;
}

std::vector<Metric> end_to_end(const PhaseStats& st,
                               const std::vector<double>& setup_s,
                               std::vector<Metric>& extra) {
  const auto p50 = percentile(st.latency_ms, 0.5);
  const auto p90 = percentile(st.latency_ms, 0.9);
  const auto p99 = percentile(st.latency_ms, 0.99);
  if (!p50 || !p90) {
    throw std::runtime_error("too few samples for the p50/p90 latency (" +
                             std::to_string(st.latency_ms.size()) + ")");
  }
  if (p99) extra.push_back({"latency_p99_ms", *p99, "ms"});
  extra.push_back({"latency_samples",
                   static_cast<double>(st.latency_ms.size()), "count"});
  extra.push_back(
      {"error_ratio",
       ratio(static_cast<double>(st.failed + st.rejected + st.mismatches),
             static_cast<double>(st.attempted)),
       "ratio"});
  extra.push_back({"checked_ops", static_cast<double>(st.checked), "count"});
  extra.push_back({"first_setup_s", setup_s.front(), "s"});
  return {
      {"setup_s", median(setup_s), "s"},
      {"latency_p50_ms", *p50, "ms"},
      {"latency_p90_ms", *p90, "ms"},
      {"ops_per_s", st.ops_per_s(), "1/s"},
      {"cells_per_s", ratio(st.cells, st.seconds), "1/s"},
      {"goodput_rps", ratio(static_cast<double>(st.within_limit), st.seconds),
       "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"device_peak_mb", static_cast<double>(st.device_peak_bytes) / kMiB,
       "MB"},
  };
}

/// What tracing cost the traced half against the untraced one: ops/s in a
/// closed loop; p50 latency in an open loop, whose ops/s the offered rate
/// fixes.
double trace_overhead_pct(const PhaseStats& untraced, const PhaseStats& traced,
                          bool open_loop) {
  if (open_loop) {
    return 100.0 * (ratio(rank_percentile(traced.latency_ms, 0.5),
                          rank_percentile(untraced.latency_ms, 0.5)) -
                    1.0);
  }
  return 100.0 * (1.0 - ratio(traced.ops_per_s(), untraced.ops_per_s()));
}

/// Runs the timed phase(s) and assembles the result. Untraced: one phase
/// of config.seconds. Traced: an untraced half and a traced half (their
/// difference is obs.trace_overhead_pct), then the layer probes.
RunResult run_phases(const RunConfig& config, Workload w,
                     const std::vector<double>& setup_s, const PhaseFn& phase,
                     const ProbeFn& probe_inputs, bool drives_service) {
  RunResult result;
  result.context = context_json(config, w);
  PhaseStats outcome;
  const auto jit_compiles = [] {
    return static_cast<double>(
        dfg::kernels::ProgramCache::instance().jit_stats().compiles);
  };
  const double compiles_before = jit_compiles();
  if (!config.trace) {
    outcome = phase(config.seconds);
    w.extra.push_back(
        {"jit_compiles_timed", jit_compiles() - compiles_before, "count"});
    result.metrics = end_to_end(outcome, setup_s, w.extra);
  } else {
    const PhaseStats untraced = phase(config.seconds / 2.0);
    // From here on dfgen records its spans (and gauges and histograms)
    // and the benchmark its own spans and counts.
    dfg::obs::metrics().set_enabled(true);
    const Counters before = Counters::sample(w.devices);
    const PhaseStats traced = phase(config.seconds / 2.0);
    const Counters after = Counters::sample(w.devices);
    w.extra.push_back(
        {"jit_compiles_timed", jit_compiles() - compiles_before, "count"});
    outcome = untraced;
    outcome.merge_outcome(traced);

    result.metrics =
        counter_metrics(before, after, static_cast<double>(traced.completed));
    const ProbeInputs inputs = probe_inputs();
    for (Metric& m : probe_layers(inputs)) {
      result.metrics.push_back(std::move(m));
    }
    const std::vector<Metric> service =
        drives_service ? traced.service : probe_service(inputs);
    result.metrics.insert(result.metrics.end(), service.begin(), service.end());
    result.metrics.push_back(
        {"loadgen.lag_p99_ms", rank_percentile(traced.lag_ms, 0.99), "ms"});
    result.metrics.push_back({"loadgen.ring_wait_ms", traced.prep_ms, "ms"});
    result.metrics.push_back(
        {"obs.trace_overhead_pct",
         trace_overhead_pct(untraced, traced, w.offered_rate > 0.0), "%"});
    w.extra.push_back(
        {"spans",
         static_cast<double>(dfg::obs::SpanTracer::instance().records().size()),
         "count"});
    w.extra.push_back({"count_records",
                       static_cast<double>(trace_count_records()), "count"});

    if (!config.trace_file.empty()) {
      std::ofstream out(config.trace_file);
      out << chrome_trace(result.context);
      if (!out) {
        throw std::runtime_error("cannot write trace file " +
                                 config.trace_file);
      }
    }
  }

  const double fallbacks = jit_fallbacks();
  result.attempted = outcome.attempted;
  result.failed = outcome.failed + outcome.rejected + outcome.mismatches;
  result.correct = outcome.mismatches == 0 && outcome.checked > 0 &&
                   fallbacks == 0.0;
  if (fallbacks > 0.0) {
    std::fprintf(stderr,
                 "INVALID: %.0f kernel launches fell back from the JIT to the "
                 "VM; the figures would not describe JIT execution\n",
                 fallbacks);
  }
  w.extra.push_back({"mismatches", static_cast<double>(outcome.mismatches),
                     "count"});
  result.extra = std::move(w.extra);
  return result;
}

// ---------------------------------------------------------------------------
// insitu_step: one Engine in the paper's in-situ loop.

constexpr dfg::mesh::Dims kInsituDims{96, 96, 96};
constexpr double kInsituLimitMs = 50.0;
/// The scalar backend is far slower than the jit at 96^3: check the first
/// step and then every kInsituCheckEvery-th.
constexpr std::size_t kInsituCheckEvery = 400;

dfg::EngineOptions insitu_options() {
  dfg::EngineOptions options;
  options.strategy = dfg::runtime::StrategyKind::fusion;
  options.resident_pool = true;
  options.backend = dfg::kernels::BackendKind::auto_select;
  return options;
}

struct InsituState {
  explicit InsituState(std::uint64_t seed)
      : mesh(dfg::mesh::RectilinearMesh::uniform(kInsituDims)),
        base(dfg::mesh::rayleigh_taylor_flow(mesh, flow_seed(seed))),
        field(base),
        device(device_spec("insitu")),
        engine(device, insitu_options()) {
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    engine.evaluate(dfg::expressions::kQCriterion);  // compiles
  }

  dfg::mesh::RectilinearMesh mesh;
  VectorField base;
  VectorField field;
  dfg::vcl::Device device;
  dfg::Engine engine;
};

}  // namespace

RunResult run_insitu_step(const RunConfig& config) {
  std::vector<double> setup_s;
  auto state = repeated_setup<InsituState>(
      [&] { return std::make_unique<InsituState>(config.seed); }, setup_s);
  InsituState& s = *state;
  Oracle oracle(s.mesh, s.field);
  Rng rng(config.seed * 0x9E3779B97F4A7C15ull + 1);
  const char* const names[] = {"u", "v", "w"};

  // Before each step one velocity component is rewritten in place and
  // invalidated, as a simulation would between in-situ calls.
  ClosedLoop loop{s.engine,
                  oracle,
                  "insitu_step",
                  kInsituLimitMs,
                  kInsituCheckEvery,
                  config.trace ? 1 : kMinOps,
                  [&] {
                    const std::size_t c = rng.below(3);
                    const float scale =
                        static_cast<float>(1.0 + 0.1 * (rng.uniform() - 0.5));
                    {
                      dfg::obs::Span span("mutate_field", "loadgen");
                      const std::vector<float>& from = component(s.base, c);
                      std::vector<float>& to = component(s.field, c);
                      for (std::size_t i = 0; i < to.size(); ++i) {
                        to[i] = from[i] * scale;
                      }
                    }
                    dfg::obs::Span span("Engine::invalidate", "core");
                    s.engine.invalidate(names[c]);
                    return std::string(dfg::expressions::kQCriterion);
                  }};

  Workload w;
  w.name = "insitu_step";
  w.devices = {"insitu"};
  w.limit_ms = kInsituLimitMs;
  // Host u, v, w and the output, plus their device copies.
  w.working_set_bytes = 8.0 * static_cast<double>(s.mesh.cell_count()) * 4.0;
  const ProbeFn probe = [&] {
    ProbeInputs in;
    in.expressions = {dfg::expressions::kQCriterion};
    in.mesh = &s.mesh;
    in.fields = {{"u", s.field.u}, {"v", s.field.v}, {"w", s.field.w}};
    in.resident_pool = true;
    return in;
  };
  return run_phases(
      config, std::move(w), setup_s,
      [&](double seconds) { return loop.run(seconds); }, probe, false);
}

namespace {

// ---------------------------------------------------------------------------
// oneshot_explore: an analyst typing new expressions.

constexpr dfg::mesh::Dims kOneshotDims{32, 32, 32};
constexpr double kOneshotLimitMs = 1000.0;
constexpr std::size_t kOneshotCheckEvery = 4;

struct OneshotState {
  explicit OneshotState(std::uint64_t seed)
      : mesh(dfg::mesh::RectilinearMesh::uniform(kOneshotDims)),
        field(dfg::mesh::rayleigh_taylor_flow(mesh, flow_seed(seed))),
        device(device_spec("oneshot")),
        engine(device, options()),
        composer(seed) {
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    // The process's first compile (toolchain start-up, artifact directory)
    // belongs to set-up; the composer never repeats this network.
    engine.evaluate(dfg::expressions::kVelocityMagnitude);
    composer.reserve(fingerprint_of(dfg::expressions::kVelocityMagnitude));
  }

  static dfg::EngineOptions options() {
    dfg::EngineOptions o;
    o.strategy = dfg::runtime::StrategyKind::fusion;
    o.backend = dfg::kernels::BackendKind::auto_select;
    return o;
  }

  dfg::mesh::RectilinearMesh mesh;
  VectorField field;
  dfg::vcl::Device device;
  dfg::Engine engine;
  ExpressionComposer composer;
};

}  // namespace

RunResult run_oneshot_explore(const RunConfig& config) {
  std::vector<double> setup_s;
  auto state = repeated_setup<OneshotState>(
      [&] { return std::make_unique<OneshotState>(config.seed); }, setup_s);
  OneshotState& s = *state;
  Oracle oracle(s.mesh, s.field);
  std::vector<std::string> probe_expressions;

  ClosedLoop loop{s.engine,
                  oracle,
                  "oneshot_request",
                  kOneshotLimitMs,
                  kOneshotCheckEvery,
                  config.trace ? 1 : kMinOps,
                  [&] {
                    dfg::obs::Span span("ExpressionComposer::next", "loadgen");
                    std::string expression = s.composer.next();
                    if (probe_expressions.size() < 2) {
                      probe_expressions.push_back(expression);
                    }
                    return expression;
                  }};

  Workload w;
  w.name = "oneshot_explore";
  w.devices = {"oneshot"};
  w.limit_ms = kOneshotLimitMs;
  w.working_set_bytes = 8.0 * static_cast<double>(s.mesh.cell_count()) * 4.0;
  w.extra.push_back({"composer_regenerations",
                     static_cast<double>(s.composer.regenerations()), "count"});
  const ProbeFn probe = [&] {
    ProbeInputs in;
    in.expressions = probe_expressions;
    in.mesh = &s.mesh;
    in.fields = {{"u", s.field.u}, {"v", s.field.v}, {"w", s.field.w}};
    return in;
  };
  return run_phases(
      config, std::move(w), setup_s,
      [&](double seconds) { return loop.run(seconds); }, probe, false);
}

namespace {

// ---------------------------------------------------------------------------
// service_mix: four tenants sharing a simulation through one EvalService.

constexpr dfg::mesh::Dims kServiceDims{64, 64, 64};
constexpr int kTenants = 4;
constexpr std::size_t kRing = 3;
/// The simulation advances one timestep every kStepEvery requests.
constexpr std::size_t kStepEvery = 16;
constexpr std::size_t kWarmupSteps = 8;
/// Fixed offered load and the latency limit of goodput (both recorded in
/// BENCHMARK.json). On a 4-core host the service saturates at ~370 req/s
/// and meets the limit up to ~300 req/s, but latency swings widely from run
/// to run well below that knee: queueing multiplies any slowdown of the
/// shared host. The fixed rate keeps each worker under half busy.
constexpr double kServiceRate = 80.0;
constexpr double kServiceLimitMs = 100.0;
/// Service devices are smaller than the scaled X5660 so that the resident
/// pool's watermark and the memo cache (a quarter of a device) bound the
/// run's memory.
constexpr std::size_t kServiceDeviceBytes = std::size_t{256} << 20;
/// Sampled requests (every kServiceSampleEvery-th, at most
/// kServiceMaxSamples a phase) are checked after the phase.
constexpr std::size_t kServiceSampleEvery = 64;
constexpr std::size_t kServiceMaxSamples = 6;

/// Timestep `step` of the simulation: the base flow scaled per component.
void write_step(const VectorField& base, std::size_t step, VectorField& out) {
  for (std::size_t c = 0; c < 3; ++c) {
    const float scale = static_cast<float>(
        1.0 + 0.1 * std::sin(0.7 * static_cast<double>(step) +
                             static_cast<double>(c)));
    const std::vector<float>& from = component(base, c);
    std::vector<float>& to = component(out, c);
    to.resize(from.size());
    for (std::size_t i = 0; i < to.size(); ++i) to[i] = from[i] * scale;
  }
}

dfg::vcl::DeviceSpec service_device_spec(const char* name) {
  dfg::vcl::DeviceSpec spec = device_spec(name);
  spec.global_mem_bytes = kServiceDeviceBytes;
  return spec;
}

dfg::service::ServiceOptions service_options() {
  dfg::service::ServiceOptions options;
  options.resident_pool = true;
  options.memo = true;
  options.coalescing = true;
  options.backend = dfg::kernels::BackendKind::auto_select;
  return options;
}

struct ServiceState {
  explicit ServiceState(std::uint64_t seed)
      : mesh(dfg::mesh::RectilinearMesh::uniform(kServiceDims)),
        base(dfg::mesh::rayleigh_taylor_flow(mesh, flow_seed(seed))),
        device0(service_device_spec("svc-0")),
        device1(service_device_spec("svc-1")),
        service({&device0, &device1}, service_options()) {
    // Warm-up: every expression once, then kWarmupSteps timesteps of
    // the request mix as bursts of kStepEvery. The memo layer rewrites
    // networks according to what it has cached and seen, and each new
    // rewrite is a JIT compile; the warm-up lets those happen before
    // timing.
    advance_to(0);
    std::vector<dfg::service::Request> burst;
    for (const std::string& expression : service_expressions()) {
      burst.push_back(request(expression, 0, 0));
    }
    run_burst(burst);
    const std::vector<Arrival> mix = service_schedule(
        ~seed, 1.0, static_cast<double>(kWarmupSteps * kStepEvery), kTenants);
    for (std::size_t i = 0; i < mix.size(); i += kStepEvery) {
      advance_to(step + 1);
      burst.clear();
      for (std::size_t j = i; j < std::min(mix.size(), i + kStepEvery); ++j) {
        burst.push_back(request(
            service_expressions()[static_cast<std::size_t>(mix[j].expression)],
            step % kRing, mix[j].tenant));
      }
      run_burst(burst);
    }
  }

  /// Submits `requests` at once and waits for all of them.
  void run_burst(const std::vector<dfg::service::Request>& requests) {
    std::vector<dfg::service::Ticket> tickets;
    for (const dfg::service::Request& r : requests) {
      tickets.push_back(service.submit(r));
    }
    for (const dfg::service::Ticket& ticket : tickets) {
      if (ticket.wait().status != dfg::service::RequestStatus::completed) {
        throw std::runtime_error("service warm-up request did not complete");
      }
    }
  }

  /// Writes timestep `next` into its ring slot and announces the mutation.
  /// The slot's earlier requests must have resolved.
  void advance_to(std::size_t next) {
    VectorField& slot = ring[next % kRing];
    write_step(base, next, slot);
    for (const std::vector<float>* array : {&slot.u, &slot.v, &slot.w}) {
      service.note_host_mutation(array->data());
    }
    step = next;
  }

  dfg::service::Request request(const std::string& expression,
                                std::size_t slot, int tenant) const {
    dfg::service::Request r;
    r.expression = expression;
    r.mesh = &mesh;
    r.fields = {{"u", ring[slot].u}, {"v", ring[slot].v}, {"w", ring[slot].w}};
    r.session = "tenant-" + std::to_string(tenant);
    return r;
  }

  dfg::mesh::RectilinearMesh mesh;
  VectorField base;
  std::array<VectorField, kRing> ring;
  std::size_t step = 0;
  dfg::vcl::Device device0;
  dfg::vcl::Device device1;
  dfg::service::EvalService service;  // declared last: stops first
};

/// A submitted request the collector is waiting on.
struct InFlight {
  dfg::service::Ticket ticket;
  Clock::time_point due;
  std::uint64_t op = 0;
  int expression = 0;
  std::size_t step = 0;
};

/// A completed request kept for the post-phase check.
struct Sample {
  std::shared_ptr<const dfg::EvaluationReport> evaluation;
  int expression = 0;
  std::size_t step = 0;
};

}  // namespace

RunResult run_service_mix(const RunConfig& config) {
  std::vector<double> setup_s;
  auto state = repeated_setup<ServiceState>(
      [&] { return std::make_unique<ServiceState>(config.seed); }, setup_s,
      kServiceSetupRepeats);
  ServiceState& s = *state;
  VectorField replay;
  write_step(s.base, 0, replay);
  Oracle oracle(s.mesh, replay);
  std::uint64_t phase_index = 0;
  std::uint64_t op = 0;
  const std::vector<std::string>& expressions = service_expressions();

  const PhaseFn phase = [&](double duration) {
    PhaseStats st;
    const std::vector<Arrival> schedule = service_schedule(
        config.seed * 0x9E3779B97F4A7C15ull + ++phase_index, kServiceRate,
        duration, kTenants);
    const dfg::service::ServiceSnapshot before = s.service.snapshot();

    std::mutex mutex;
    std::condition_variable cv;
    std::deque<InFlight> incoming;
    bool sending_done = false;
    std::vector<double> queue_wait_ms;
    std::vector<Sample> samples;
    Clock::time_point last_resolved{};
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);

    // Collector: polls outstanding tickets and stamps each resolution.
    std::jthread collector([&] {
      std::vector<InFlight> pending;
      for (;;) {
        {
          std::unique_lock lock(mutex);
          cv.wait_for(lock, std::chrono::microseconds(200), [&] {
            return !incoming.empty() || sending_done;
          });
          while (!incoming.empty()) {
            pending.push_back(std::move(incoming.front()));
            incoming.pop_front();
          }
          if (sending_done && pending.empty()) break;
        }
        for (std::size_t i = 0; i < pending.size();) {
          if (!pending[i].ticket.ready()) {
            ++i;
            continue;
          }
          const Clock::time_point resolved = Clock::now();
          const InFlight& f = pending[i];
          const dfg::service::ServiceReport& report = f.ticket.wait();
          const double latency = ms_between(f.due, resolved);
          st.latency_ms.push_back(latency);
          last_resolved = resolved;
          if (report.status == dfg::service::RequestStatus::completed) {
            ++st.completed;
            if (latency <= kServiceLimitMs) ++st.within_limit;
            st.cells += static_cast<double>(report.evaluation->elements);
            st.device_peak_bytes =
                std::max(st.device_peak_bytes,
                         report.evaluation->memory_high_water_bytes);
            queue_wait_ms.push_back(report.queue_wait_seconds * 1e3);
            if (f.op % kServiceSampleEvery == 1 &&
                samples.size() < kServiceMaxSamples) {
              samples.push_back({report.evaluation, f.expression, f.step});
            }
          } else if (report.status == dfg::service::RequestStatus::rejected) {
            ++st.rejected;
          } else {
            std::fprintf(stderr, "request failed: %s\n", report.error.c_str());
            ++st.failed;
          }
          // A request runs from its due time to its resolution on other
          // threads; its figures are recorded when it resolves.
          trace_counts("request",
                       {{"latency_ms", latency},
                        {"queue_wait_ms", report.queue_wait_seconds * 1e3},
                        {"coalesced_fanout",
                         static_cast<double>(report.coalesced_fanout)},
                        {"device", static_cast<double>(report.device_index)},
                        {"status", static_cast<double>(report.status)}});
          pending[i] = std::move(pending.back());
          pending.pop_back();
        }
      }
    });

    const auto stop_collector = [&] {
      {
        std::scoped_lock lock(mutex);
        sending_done = true;
      }
      cv.notify_one();
    };

    // Generator (this thread): sends on schedule, advancing the simulation
    // every kStepEvery requests into the oldest ring slot.
    std::array<std::vector<dfg::service::Ticket>, kRing> slot_tickets;
    std::vector<double> submit_ms;
    try {
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Arrival& arrival = schedule[i];
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(arrival.at_seconds));
        if (i > 0 && i % kStepEvery == 0) {
          dfg::obs::Span span("advance_timestep", "loadgen");
          const Clock::time_point p0 = Clock::now();
          const std::size_t next = s.step + 1;
          const std::size_t slot = next % kRing;
          for (const dfg::service::Ticket& ticket : slot_tickets[slot]) {
            ticket.wait();
          }
          slot_tickets[slot].clear();
          s.advance_to(next);
          st.prep_ms += ms_between(p0, Clock::now());
        }
        std::this_thread::sleep_until(due);
        const std::size_t slot = s.step % kRing;
        dfg::service::Request request = s.request(
            expressions[static_cast<std::size_t>(arrival.expression)], slot,
            arrival.tenant);
        const Clock::time_point sent = Clock::now();
        st.lag_ms.push_back(ms_between(due, sent));
        dfg::service::Ticket ticket;
        {
          dfg::obs::Span span("EvalService::submit", "service");
          ticket = s.service.submit(std::move(request));
        }
        submit_ms.push_back(ms_between(sent, Clock::now()));
        ++st.attempted;
        ++op;
        slot_tickets[slot].push_back(ticket);
        {
          std::scoped_lock lock(mutex);
          incoming.push_back({ticket, due, op, arrival.expression, s.step});
        }
        cv.notify_one();
      }
    } catch (...) {
      stop_collector();
      throw;
    }
    stop_collector();
    collector.join();
    st.seconds = seconds_between(start, last_resolved);
    st.service = service_metrics(before, s.service.snapshot(), submit_ms,
                                 queue_wait_ms);

    // Outside the timed region: rebuild each sample's timestep and compare.
    for (const Sample& sample : samples) {
      write_step(s.base, sample.step, replay);
      ++st.checked;
      const auto& expression =
          expressions[static_cast<std::size_t>(sample.expression)];
      if (!oracle.matches(expression, sample.evaluation->values)) {
        ++st.mismatches;
      }
    }
    return st;
  };

  Workload w;
  w.name = "service_mix";
  w.devices = {"svc-0", "svc-1"};
  w.limit_ms = kServiceLimitMs;
  w.offered_rate = kServiceRate;
  // Host ring (3 slots x u, v, w), plus on each device up to the ring's
  // resident copies and one output.
  const double field_bytes = static_cast<double>(s.mesh.cell_count()) * 4.0;
  w.working_set_bytes = (9.0 + 2.0 * 10.0) * field_bytes;
  const ProbeFn probe = [&] {
    ProbeInputs in;
    in.expressions = {dfg::expressions::kQCriterion,
                      dfg::expressions::kOpLambda2};
    in.mesh = &s.mesh;
    const VectorField& slot = s.ring[s.step % kRing];
    in.fields = {{"u", slot.u}, {"v", slot.v}, {"w", slot.w}};
    in.resident_pool = true;
    return in;
  };
  return run_phases(config, std::move(w), setup_s, phase, probe, true);
}

}  // namespace perfbench
