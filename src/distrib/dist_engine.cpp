#include "distrib/dist_engine.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "kernels/program_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runtime/fallback.hpp"
#include "support/error.hpp"
#include "vcl/profiling.hpp"

namespace dfg::distrib {

namespace {

/// Builds the padded block's rectilinear mesh from global node coordinates.
mesh::RectilinearMesh padded_mesh(const mesh::RectilinearMesh& global,
                                  const BlockExtent& extent,
                                  const PaddedBlock& padded) {
  const auto slice = [](const std::vector<float>& nodes, std::size_t begin,
                        std::size_t count) {
    return std::vector<float>(nodes.begin() + static_cast<long>(begin),
                              nodes.begin() + static_cast<long>(begin + count));
  };
  // Node counts are cell counts + 1; the low ghost offset shifts the start.
  return mesh::RectilinearMesh(
      slice(global.x_nodes(), extent.i_begin - padded.lo_i,
            padded.dims.nx + 1),
      slice(global.y_nodes(), extent.j_begin - padded.lo_j,
            padded.dims.ny + 1),
      slice(global.z_nodes(), extent.k_begin - padded.lo_k,
            padded.dims.nz + 1));
}

}  // namespace

DistributedEngine::DistributedEngine(const mesh::RectilinearMesh& mesh,
                                     GridDecomposition decomposition,
                                     ClusterConfig config)
    : mesh_(&mesh),
      decomposition_(std::move(decomposition)),
      config_(std::move(config)) {
  if (!(decomposition_.global_dims() == mesh.dims())) {
    throw Error("decomposition dims do not match the mesh");
  }
  if (config_.nodes == 0 || config_.devices_per_node == 0) {
    throw Error("cluster config requires positive node and device counts");
  }
}

void DistributedEngine::bind_global(const std::string& name,
                                    std::span<const float> values) {
  if (values.size() < mesh_->cell_count()) {
    throw Error("global array '" + name + "' smaller than the global grid");
  }
  global_arrays_[name] = values;
}

DistributedReport DistributedEngine::evaluate(
    std::string_view expression, runtime::StrategyKind strategy_kind) {
  // One network is built and shared by every rank (the expression is the
  // same everywhere; only the bound arrays differ per block).
  dataflow::Network network(dataflow::build_network(expression));

  // Ghost data generation for every bound field the expression uses.
  GhostExchanger exchanger(decomposition_, config_.ghost_width);
  std::map<std::string, std::vector<PaddedBlock>> padded_fields;
  for (const std::string& name : network.spec().field_names()) {
    if (name == "x" || name == "y" || name == "z" || name == "dims") continue;
    const auto it = global_arrays_.find(name);
    if (it == global_arrays_.end()) {
      throw NetworkError("expression references unbound global field '" +
                         name + "'");
    }
    padded_fields[name] = exchanger.exchange(exchanger.scatter(it->second));
  }

  if (padded_fields.empty()) {
    throw NetworkError(
        "distributed evaluation requires at least one bound field in the "
        "expression");
  }

  const std::size_t ranks = config_.nodes * config_.devices_per_node;
  const std::size_t blocks = decomposition_.block_count();
  const mesh::Dims global_dims = decomposition_.global_dims();

  // One virtual device and accumulated profiling log per MPI task.
  const std::shared_ptr<kernels::ExecutionBackend> backend =
      config_.backend ? kernels::backend_for(*config_.backend) : nullptr;
  const auto make_device = [&] {
    auto device = std::make_unique<vcl::Device>(config_.device_spec);
    if (backend) device->set_backend(backend);
    return device;
  };
  std::vector<std::unique_ptr<vcl::Device>> devices(ranks);
  for (std::unique_ptr<vcl::Device>& device : devices) device = make_device();
  if (config_.fault_plan.armed()) {
    devices[0]->fault().arm(config_.fault_plan);
  }
  rank_logs_.assign(ranks, vcl::ProfilingLog{});

  // Thread-local snapshot: ranks execute on this thread, so the delta is
  // exactly this evaluation's cache traffic even when other engines
  // evaluate concurrently on other threads.
  const kernels::ProgramCacheStats cache_before =
      kernels::ProgramCache::instance().thread_stats();
  obs::MetricsRegistry& reg = obs::metrics();
  const obs::MetricId blocks_executed =
      reg.counter("dfgen_dist_blocks_executed_total");
  const obs::MetricId device_losses =
      reg.counter("dfgen_dist_device_losses_total");
  const obs::MetricId degraded_blocks =
      reg.counter("dfgen_dist_degraded_blocks_total");
  obs::Span request_span(
      "dist_evaluate:" +
          network.spec().node(network.output_id()).label,
      "request");

  DistributedReport report;
  report.values.assign(global_dims.cell_count(), 0.0f);
  report.blocks = blocks;
  report.ranks = ranks;
  report.blocks_per_rank_max = (blocks + ranks - 1) / ranks;

  for (std::size_t b = 0; b < blocks; ++b) {
    const BlockExtent extent = decomposition_.extent(b);
    // Any padded field of this block describes the block's padding.
    const PaddedBlock& shape = padded_fields.begin()->second[b];

    const mesh::RectilinearMesh block_mesh =
        padded_mesh(*mesh_, extent, shape);
    runtime::FieldBindings bindings;
    bindings.bind_mesh(block_mesh);
    for (const auto& [name, padded_blocks] : padded_fields) {
      bindings.bind(name, padded_blocks[b].values);
    }
    const std::size_t elements = shape.dims.cell_count();

    // Block span: parent of the strategy-attempt spans the fallback ladder
    // opens while this block executes (request -> block -> attempt ->
    // command).
    obs::Span block_span("block:" + std::to_string(b), "block");

    std::unique_ptr<vcl::Device>& device = devices[b % ranks];
    vcl::ProfilingLog block_log;
    runtime::FallbackOutcome outcome;
    for (;;) {
      try {
        outcome = runtime::execute_with_fallback(network, bindings, elements,
                                                 *device, block_log,
                                                 strategy_kind,
                                                 config_.fallback);
        break;
      } catch (const DeviceLost&) {
        if (!config_.fallback.enabled) throw;
        // The rank's device is gone: replace it with a fresh one (as a
        // real resource manager would re-acquire a context) and re-run
        // the block. The replacement starts with no fault plan armed.
        device = make_device();
        ++report.device_losses;
        reg.add(device_losses);
      }
    }
    rank_logs_[b % ranks].append(block_log);

    if (outcome.executed != strategy_kind) {
      ++report.degraded_blocks;
      reg.add(degraded_blocks);
    }
    report.strategy_degradations += outcome.degradations.size();
    reg.add(blocks_executed);
    block_span.add_sim_seconds(block_log.total_sim_seconds());

    // Keep only interior cells; ghost-cell results are discarded.
    const mesh::Dims bd = extent.dims();
    for (std::size_t k = 0; k < bd.nz; ++k) {
      for (std::size_t j = 0; j < bd.ny; ++j) {
        for (std::size_t i = 0; i < bd.nx; ++i) {
          report.values[(extent.i_begin + i) +
                        global_dims.nx * ((extent.j_begin + j) +
                                          global_dims.ny *
                                              (extent.k_begin + k))] =
              outcome.values[shape.index(i + shape.lo_i, j + shape.lo_j,
                                         k + shape.lo_k)];
        }
      }
    }
  }

  const kernels::ProgramCacheStats cache_after =
      kernels::ProgramCache::instance().thread_stats();
  report.pipeline_cache_hits = cache_after.hits() - cache_before.hits();
  report.pipeline_cache_misses = cache_after.misses() - cache_before.misses();

  report.ghost_messages = exchanger.messages();
  report.ghost_bytes = exchanger.bytes();
  for (std::size_t r = 0; r < ranks; ++r) {
    const vcl::ProfilingLog& log = rank_logs_[r];
    report.max_rank_sim_seconds =
        std::max(report.max_rank_sim_seconds, log.total_sim_seconds());
    report.total_sim_seconds += log.total_sim_seconds();
    const vcl::EventTally events = vcl::tally(log.events());
    report.total_dev_writes += events.dev_writes;
    report.total_dev_reads += events.dev_reads;
    report.total_kernel_execs += events.kernel_execs;
    report.command_timeouts += events.timeouts;
    report.checksum_mismatches += events.checksum_mismatches;
    report.command_retries += events.retries;
    report.injected_faults += events.injected_faults;
    report.max_device_high_water = std::max(
        report.max_device_high_water, devices[r]->memory().high_water());
  }
  request_span.add_sim_seconds(report.total_sim_seconds);
  return report;
}

}  // namespace dfg::distrib
