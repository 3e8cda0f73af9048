#include "core/engine.hpp"

#include <array>

#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "kernels/generator.hpp"
#include "kernels/program_cache.hpp"
#include "kernels/source_printer.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/error.hpp"
#include "vcl/event.hpp"
#include "vcl/resident_pool.hpp"

namespace dfg {

namespace {

/// The registry series an evaluation's report is a delta view over. All
/// instrumentation (queue commands, fault injections) happens on the
/// evaluating thread, so thread-shard deltas are exact per evaluation even
/// with concurrent engines on other threads.
struct ReportCounters {
  obs::MetricId writes, reads, kernels, timeouts, integrity, retries, faults;
  obs::MetricId res_hits, res_misses, res_evictions, res_invalidations,
      res_saved;

  static ReportCounters resolve(const std::string& device) {
    obs::MetricsRegistry& reg = obs::metrics();
    const auto event_id = [&](vcl::EventKind kind) {
      return reg.counter(
          "dfgen_vcl_events_total",
          {{"device", device}, {"kind", vcl::event_kind_slug(kind)}});
    };
    ReportCounters ids;
    ids.writes = event_id(vcl::EventKind::host_to_device);
    ids.reads = event_id(vcl::EventKind::device_to_host);
    ids.kernels = event_id(vcl::EventKind::kernel_exec);
    ids.timeouts = event_id(vcl::EventKind::timeout);
    ids.integrity = event_id(vcl::EventKind::integrity);
    ids.retries = reg.counter("dfgen_vcl_command_retries_total",
                              {{"device", device}});
    ids.faults = reg.counter("dfgen_vcl_faults_injected_total",
                             {{"device", device}});
    // Registered eagerly (not at first pool event) so the series appear —
    // as zeros — in snapshots of pool-disabled runs, keeping the metrics
    // goldens schema-complete.
    const obs::Labels dev = {{"device", device}};
    ids.res_hits = reg.counter("dfgen_resident_hits_total", dev);
    ids.res_misses = reg.counter("dfgen_resident_misses_total", dev);
    ids.res_evictions = reg.counter("dfgen_resident_evictions_total", dev);
    ids.res_invalidations =
        reg.counter("dfgen_resident_invalidations_total", dev);
    ids.res_saved = reg.counter("dfgen_resident_upload_bytes_saved", dev);
    // Same eager registration for the jit series (process-wide, no device
    // label: the module cache is shared): vm-only runs snapshot them as
    // zeros instead of omitting them.
    reg.counter("dfgen_jit_compiles_total");
    reg.counter("dfgen_jit_compile_failures_total");
    reg.counter("dfgen_jit_cache_hits_total");
    reg.counter("dfgen_jit_cache_misses_total");
    reg.counter("dfgen_jit_cache_evictions_total");
    reg.counter("dfgen_jit_fallbacks_total");
    reg.counter("dfgen_jit_deferred_launches_total");
    return ids;
  }

  std::array<std::uint64_t, 12> sample() const {
    obs::MetricsRegistry& reg = obs::metrics();
    return {reg.thread_counter_value(writes),
            reg.thread_counter_value(reads),
            reg.thread_counter_value(kernels),
            reg.thread_counter_value(timeouts),
            reg.thread_counter_value(integrity),
            reg.thread_counter_value(retries),
            reg.thread_counter_value(faults),
            reg.thread_counter_value(res_hits),
            reg.thread_counter_value(res_misses),
            reg.thread_counter_value(res_evictions),
            reg.thread_counter_value(res_invalidations),
            reg.thread_counter_value(res_saved)};
  }
};

}  // namespace

Engine::Engine(vcl::Device& device, EngineOptions options)
    : device_(&device), options_(options) {}

void Engine::bind(const std::string& name, std::span<const float> values) {
  bindings_.bind(name, values);
}

void Engine::bind_mesh(const mesh::RectilinearMesh& mesh) {
  bindings_.bind_mesh(mesh);
  default_elements_ = mesh.cell_count();
}

void Engine::set_strategy(runtime::StrategyKind kind) {
  options_.strategy = kind;
}

void Engine::invalidate(const std::string& name) {
  if (!bindings_.has(name)) return;
  vcl::note_host_mutation(bindings_.get(name).data());
}

EvaluationReport Engine::evaluate(std::string_view expression,
                                  std::size_t elements) {
  const dataflow::Network network(
      dataflow::build_network(expression, options_.spec_options));
  return evaluate_network(network, elements);
}

EvaluationReport Engine::evaluate_network(const dataflow::Network& network,
                                          std::size_t elements) {
  if (elements == 0) {
    throw Error("evaluate requires a positive element count");
  }

  // Arm (or disarm) the device's resident pool for this evaluation.
  device_->resident().set_enabled(options_.resident_pool);

  // Arm the execution backend. The option pins it; otherwise the device
  // re-resolves DFGEN_BACKEND per evaluation (a differential harness can
  // flip backends between otherwise identical runs).
  if (options_.backend) {
    device_->set_backend(kernels::backend_for(*options_.backend));
  }
  const kernels::ExecutionBackend& backend = device_->backend();

  log_.clear();
  device_->memory().reset_high_water();
  // Fault plans count per evaluation, and any fault injected outside a
  // command queue (an allocation) must still land in this log.
  device_->fault().begin_run();
  device_->fault().set_sink(&log_);

  // Thread-local snapshots: concurrent evaluations on other threads must
  // not leak their cache or device traffic into this report (or vice
  // versa). The report below is a delta view over these registry series —
  // the counters themselves are the source of truth.
  const kernels::ProgramCacheStats cache_before =
      kernels::ProgramCache::instance().thread_stats();
  const ReportCounters ids = ReportCounters::resolve(device_->spec().name);
  const std::array<std::uint64_t, 12> before = ids.sample();
  obs::Span span(
      "evaluate:" + network.spec().node(network.output_id()).label,
      "request");
  runtime::FallbackOutcome outcome = runtime::execute_with_fallback(
      network, bindings_, elements, *device_, log_, options_.strategy,
      options_.fallback, options_.streamed_chunk_cells);
  span.add_sim_seconds(log_.total_sim_seconds());
  const std::array<std::uint64_t, 12> after = ids.sample();
  EvaluationReport report;
  report.values = std::move(outcome.values);
  report.output_name = network.spec().node(network.output_id()).label;
  report.elements = elements;
  report.strategy = runtime::strategy_name(outcome.executed);
  report.backend = backend.name();
  for (const runtime::DegradationRecord& step : outcome.degradations) {
    report.degradations.push_back({runtime::strategy_name(step.from),
                                   runtime::strategy_name(step.to),
                                   step.reason});
  }
  report.dev_writes = after[0] - before[0];
  report.dev_reads = after[1] - before[1];
  report.kernel_execs = after[2] - before[2];
  report.command_timeouts = after[3] - before[3];
  report.checksum_mismatches = after[4] - before[4];
  report.command_retries = after[5] - before[5];
  report.injected_faults = after[6] - before[6];
  report.resident_hits = after[7] - before[7];
  report.resident_misses = after[8] - before[8];
  report.resident_evictions = after[9] - before[9];
  report.resident_invalidations = after[10] - before[10];
  report.resident_upload_bytes_saved = after[11] - before[11];
  report.sim_seconds = log_.total_sim_seconds();
  report.wall_seconds = log_.total_wall_seconds();
  report.memory_high_water_bytes = device_->memory().high_water();
  report.network_script = network.spec().to_script();
  const kernels::ProgramCacheStats cache_after =
      kernels::ProgramCache::instance().thread_stats();
  report.pipeline_cache_hits =
      (cache_after.pipeline_hits - cache_before.pipeline_hits) +
      (cache_after.standalone_hits - cache_before.standalone_hits);
  report.pipeline_cache_misses =
      (cache_after.pipeline_misses - cache_before.pipeline_misses) +
      (cache_after.standalone_misses - cache_before.standalone_misses);
  if (outcome.pipeline != nullptr) {
    for (const kernels::FusedPipeline::Stage& stage :
         outcome.pipeline->stages) {
      if (!report.kernel_source.empty()) report.kernel_source += "\n";
      report.kernel_source += kernels::to_opencl_source(stage.program);
    }
  }
  return report;
}

EvaluationReport Engine::evaluate(std::string_view expression) {
  if (default_elements_ != 0) {
    return evaluate(expression, default_elements_);
  }
  // Infer the element count from the first bound non-mesh field the
  // expression uses.
  const dataflow::NetworkSpec probe =
      dataflow::build_network(expression, options_.spec_options);
  for (const std::string& name : probe.field_names()) {
    if (name == "x" || name == "y" || name == "z" || name == "dims") continue;
    if (bindings_.has(name)) {
      return evaluate(expression, bindings_.get(name).size());
    }
  }
  throw Error(
      "cannot infer the output element count: bind a mesh or call "
      "evaluate(expression, elements)");
}

}  // namespace dfg
