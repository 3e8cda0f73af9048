#include "core/engine.hpp"

#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "kernels/generator.hpp"
#include "kernels/program_cache.hpp"
#include "kernels/source_printer.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/error.hpp"
#include "vcl/resident_pool.hpp"

namespace dfg {

namespace {

/// Registers, as zeros, the series an evaluation may never touch: the
/// resident pool's (pool off) and the process-wide jit cache's (vm
/// backend). Snapshots then list them in every run, which keeps the
/// metrics goldens schema-complete.
void register_idle_series(const std::string& device) {
  obs::MetricsRegistry& reg = obs::metrics();
  for (const char* name :
       {"dfgen_resident_hits_total", "dfgen_resident_misses_total",
        "dfgen_resident_evictions_total", "dfgen_resident_invalidations_total",
        "dfgen_resident_upload_bytes_saved"}) {
    reg.counter(name, {{"device", device}});
  }
  for (const char* name :
       {"dfgen_jit_compiles_total", "dfgen_jit_compile_failures_total",
        "dfgen_jit_cache_hits_total", "dfgen_jit_cache_misses_total",
        "dfgen_jit_cache_evictions_total", "dfgen_jit_fallbacks_total",
        "dfgen_jit_deferred_launches_total"}) {
    reg.counter(name);
  }
}

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
  // Fault plans count per evaluation. Every fault lands in this log: the
  // strategies' command queues attach it while they run.
  device_->fault().begin_run();
  register_idle_series(device_->spec().name);

  // The report's device counters tally this evaluation's log. Cache
  // traffic is the calling thread's, so concurrent evaluations never leak
  // into it; the resident pool's is the device's, which this engine alone
  // drives while it evaluates.
  const kernels::ProgramCacheStats cache_before =
      kernels::ProgramCache::instance().thread_stats();
  const vcl::ResidentPool::Stats resident_before = device_->resident().stats();
  obs::Span span(
      "evaluate:" + network.spec().node(network.output_id()).label,
      "request");
  runtime::FallbackOutcome outcome = runtime::execute_with_fallback(
      network, bindings_, elements, *device_, log_, options_.strategy,
      options_.fallback, options_.streamed_chunk_cells);
  span.add_sim_seconds(log_.total_sim_seconds());
  const vcl::EventTally events = vcl::tally(log_.events());
  const vcl::ResidentPool::Stats resident = device_->resident().stats();
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
  report.dev_writes = events.dev_writes;
  report.dev_reads = events.dev_reads;
  report.kernel_execs = events.kernel_execs;
  report.command_timeouts = events.timeouts;
  report.checksum_mismatches = events.checksum_mismatches;
  report.command_retries = events.retries;
  report.injected_faults = events.injected_faults;
  report.resident_hits = resident.hits - resident_before.hits;
  report.resident_misses = resident.misses - resident_before.misses;
  report.resident_evictions = resident.evictions - resident_before.evictions;
  report.resident_invalidations =
      resident.invalidations - resident_before.invalidations;
  report.resident_upload_bytes_saved =
      resident.upload_bytes_saved - resident_before.upload_bytes_saved;
  report.sim_seconds = log_.total_sim_seconds();
  report.wall_seconds = log_.total_wall_seconds();
  report.memory_high_water_bytes = device_->memory().high_water();
  report.network_script = network.spec().to_script();
  const kernels::ProgramCacheStats cache_after =
      kernels::ProgramCache::instance().thread_stats();
  report.pipeline_cache_hits = cache_after.hits() - cache_before.hits();
  report.pipeline_cache_misses = cache_after.misses() - cache_before.misses();
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
  const dataflow::Network network(
      dataflow::build_network(expression, options_.spec_options));
  // Without a mesh, the first bound non-mesh field the expression uses
  // sets the element count.
  const std::size_t elements =
      default_elements_ != 0
          ? default_elements_
          : bindings_.element_count(network.spec().field_names());
  if (elements == 0) {
    throw Error(
        "cannot infer the output element count: bind a mesh or call "
        "evaluate(expression, elements)");
  }
  return evaluate_network(network, elements);
}

}  // namespace dfg
