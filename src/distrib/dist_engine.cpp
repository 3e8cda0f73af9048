#include "distrib/dist_engine.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <utility>

#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "distrib/checkpoint.hpp"
#include "kernels/program_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runtime/fallback.hpp"
#include "runtime/planner.hpp"
#include "support/checksum.hpp"
#include "support/error.hpp"
#include "vcl/profiling.hpp"
#include "vcl/resident_pool.hpp"

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

/// Cluster-health counters for the current registry. Resolved once per
/// evaluation; the DistributedReport itself stays derived from the per-rank
/// profiling logs, so these series form an independent record the parity
/// tests can cross-check against.
struct DistCounters {
  obs::MetricId blocks, resumed, stragglers, spec_runs, spec_wins, losses,
      quarantines, degraded;

  static DistCounters resolve() {
    obs::MetricsRegistry& reg = obs::metrics();
    DistCounters ids;
    ids.blocks = reg.counter("dfgen_dist_blocks_executed_total");
    ids.resumed = reg.counter("dfgen_dist_resumed_blocks_total");
    ids.stragglers = reg.counter("dfgen_dist_straggler_blocks_total");
    ids.spec_runs =
        reg.counter("dfgen_dist_speculations_total", {{"result", "run"}});
    ids.spec_wins =
        reg.counter("dfgen_dist_speculations_total", {{"result", "won"}});
    ids.losses = reg.counter("dfgen_dist_device_losses_total");
    ids.quarantines = reg.counter("dfgen_dist_quarantines_total");
    ids.degraded = reg.counter("dfgen_dist_degraded_blocks_total");
    return ids;
  }
};

/// The resident-pool series for this cluster's device spec. Every rank's
/// device shares the spec name, so one label set aggregates the whole
/// cluster; ranks execute on the evaluating thread, so thread-shard deltas
/// isolate this evaluation from concurrent engines.
struct ResidentCounters {
  obs::MetricId hits, misses, evictions, invalidations, saved;

  static ResidentCounters resolve(const std::string& device) {
    obs::MetricsRegistry& reg = obs::metrics();
    const obs::Labels dev = {{"device", device}};
    ResidentCounters ids;
    ids.hits = reg.counter("dfgen_resident_hits_total", dev);
    ids.misses = reg.counter("dfgen_resident_misses_total", dev);
    ids.evictions = reg.counter("dfgen_resident_evictions_total", dev);
    ids.invalidations = reg.counter("dfgen_resident_invalidations_total", dev);
    ids.saved = reg.counter("dfgen_resident_upload_bytes_saved", dev);
    return ids;
  }

  std::array<std::uint64_t, 5> sample() const {
    obs::MetricsRegistry& reg = obs::metrics();
    return {reg.thread_counter_value(hits), reg.thread_counter_value(misses),
            reg.thread_counter_value(evictions),
            reg.thread_counter_value(invalidations),
            reg.thread_counter_value(saved)};
  }
};

/// One simulated MPI task: its device, accumulated log, and health.
struct RankState {
  std::unique_ptr<vcl::Device> device;
  vcl::ProfilingLog log;
  /// Cleared when the rank is quarantined; an unhealthy rank receives no
  /// further blocks (its accumulated time still counts in the report).
  bool healthy = true;
};

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
    std::vector<float> global_copy(it->second.begin(), it->second.end());
    padded_fields[name] = exchanger.exchange(exchanger.scatter(global_copy));
  }

  if (padded_fields.empty()) {
    throw NetworkError(
        "distributed evaluation requires at least one bound field in the "
        "expression");
  }

  const std::size_t ranks = config_.nodes * config_.devices_per_node;
  const std::size_t blocks = decomposition_.block_count();

  // One virtual device and accumulated profiling log per MPI task.
  const std::shared_ptr<kernels::ExecutionBackend> backend =
      config_.backend ? kernels::backend_for(*config_.backend) : nullptr;
  std::vector<RankState> states(ranks);
  for (RankState& state : states) {
    state.device = std::make_unique<vcl::Device>(config_.device_spec);
    state.device->resident().set_enabled(config_.resident_pool);
    if (backend) state.device->set_backend(backend);
  }
  if (config_.fault_plan.armed() && ranks > 0) {
    states[config_.fault_rank % ranks].device->fault().arm(config_.fault_plan);
  }

  // The journal key pins expression, strategy, problem shape and cluster
  // shape: a journal of any other run is invisible to this one.
  std::uint64_t run_key = support::fnv1a(expression);
  run_key = support::fnv1a(
      std::string_view(runtime::strategy_name(strategy_kind)), run_key);
  const mesh::Dims global_dims = decomposition_.global_dims();
  for (const std::size_t v :
       {global_dims.nx, global_dims.ny, global_dims.nz, blocks, ranks,
        config_.ghost_width}) {
    const std::uint64_t word = v;
    run_key = support::fnv1a(&word, sizeof(word), run_key);
  }
  CheckpointJournal journal(config_.checkpoint_dir, run_key);

  // Thread-local snapshot: ranks execute on this thread, so the delta is
  // exactly this evaluation's cache traffic even when other engines
  // evaluate concurrently on other threads.
  const kernels::ProgramCacheStats cache_before =
      kernels::ProgramCache::instance().thread_stats();
  const DistCounters counters = DistCounters::resolve();
  const ResidentCounters resident_ids =
      ResidentCounters::resolve(config_.device_spec.name);
  const std::array<std::uint64_t, 5> resident_before = resident_ids.sample();
  obs::MetricsRegistry& reg = obs::metrics();
  obs::Span request_span(
      "dist_evaluate:" +
          network.spec().node(network.output_id()).label,
      "request");

  DistributedReport report;
  report.values.assign(global_dims.cell_count(), 0.0f);
  report.blocks = blocks;
  report.ranks = ranks;
  report.blocks_per_rank_max = (blocks + ranks - 1) / ranks;

  const auto scatter = [&](const BlockExtent& extent, const PaddedBlock& shape,
                           const std::vector<float>& block_result) {
    // Keep only interior cells; ghost-cell results are discarded.
    const mesh::Dims bd = extent.dims();
    for (std::size_t k = 0; k < bd.nz; ++k) {
      for (std::size_t j = 0; j < bd.ny; ++j) {
        for (std::size_t i = 0; i < bd.nx; ++i) {
          report.values[(extent.i_begin + i) +
                        global_dims.nx * ((extent.j_begin + j) +
                                          global_dims.ny *
                                              (extent.k_begin + k))] =
              block_result[shape.index(i + shape.lo_i, j + shape.lo_j,
                                       k + shape.lo_k)];
        }
      }
    }
  };

  /// The healthy rank with the least accumulated simulated time; SIZE_MAX
  /// when none qualifies.
  const auto least_loaded_healthy = [&](std::size_t exclude) {
    std::size_t best = SIZE_MAX;
    double best_time = 0.0;
    for (std::size_t r = 0; r < ranks; ++r) {
      if (!states[r].healthy || r == exclude) continue;
      const double t = states[r].log.total_sim_seconds();
      if (best == SIZE_MAX || t < best_time) {
        best = r;
        best_time = t;
      }
    }
    return best;
  };

  /// Executes one block on `rank`, recording into `block_log`. Handles a
  /// lost device (replace and re-run) and a first escaped corruption
  /// (block-level re-execution) internally; a second corruption or a
  /// ladder-wide timeout escapes to the caller, which quarantines.
  const auto run_block_on = [&](std::size_t rank,
                                const runtime::FieldBindings& bindings,
                                std::size_t elements,
                                vcl::ProfilingLog& block_log) {
    RankState& state = states[rank];
    // Faults injected outside a queue op (allocations) must still land in
    // this block's log.
    state.device->fault().set_sink(&block_log);
    bool corruption_retried = false;
    for (;;) {
      try {
        // Residents this attempt acquires stay pinned (immune to eviction)
        // until the block completes or the attempt fails.
        vcl::ResidentPool::PinScope pins(state.device->resident());
        return runtime::execute_with_fallback(network, bindings, elements,
                                              *state.device, block_log,
                                              strategy_kind, config_.fallback);
      } catch (const DeviceLost&) {
        if (!config_.fallback.enabled) throw;
        // The rank's device is gone — and with it every resident buffer:
        // replace it with a fresh one (as a real resource manager would
        // re-acquire a context) and re-run the block from cold uploads.
        // The replacement starts with no fault plan armed.
        state.device = std::make_unique<vcl::Device>(config_.device_spec);
        state.device->resident().set_enabled(config_.resident_pool);
        if (backend) state.device->set_backend(backend);
        state.device->fault().set_sink(&block_log);
        ++report.device_losses;
        reg.add(counters.losses);
      } catch (const DataCorruption&) {
        // The queue already retried the transfer; re-execute the whole
        // block once from clean buffers before giving up on the device.
        if (!config_.fallback.enabled || corruption_retried) throw;
        corruption_retried = true;
      }
    }
  };

  const auto quarantine = [&](std::size_t rank) {
    if (!states[rank].healthy) return;
    states[rank].healthy = false;
    // A quarantined device's memory is no longer trusted; drop its
    // residents so a (hypothetical) rehabilitation starts from cold.
    states[rank].device->resident().clear();
    ++report.quarantined_devices;
    reg.add(counters.quarantines);
  };

  // Fastest clean block so far: the second leg of the straggler budget,
  // guarding against a pessimistic planner estimate. Deterministic
  // simulation makes equal-shaped clean blocks take identical time, so
  // this reference never flags a healthy block.
  double fastest_clean = 0.0;
  std::size_t completed_this_run = 0;

  for (std::size_t b = 0; b < blocks; ++b) {
    const BlockExtent extent = decomposition_.extent(b);
    // Any padded field of this block describes the block's padding.
    const PaddedBlock& shape = padded_fields.begin()->second[b];

    if (journal.has(b)) {
      // Journaled by a previous (crashed) run of the same evaluation:
      // load instead of executing.
      scatter(extent, shape, journal.load(b));
      ++report.resumed_blocks;
      reg.add(counters.resumed);
      continue;
    }

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

    std::size_t rank = b % ranks;
    if (!states[rank].healthy) {
      rank = least_loaded_healthy(SIZE_MAX);
    }
    runtime::FallbackOutcome outcome;
    double duration = 0.0;
    for (;;) {
      if (rank == SIZE_MAX) {
        throw Error("all devices quarantined; block " + std::to_string(b) +
                    " cannot be scheduled");
      }
      vcl::ProfilingLog block_log;
      try {
        outcome = run_block_on(rank, bindings, elements, block_log);
        duration = block_log.total_sim_seconds();
        states[rank].log.append(block_log);
        break;
      } catch (const DeviceTimeout&) {
        // The whole fallback ladder timed out on this device: the failed
        // attempts' deadline charges stay on the rank, the rank is
        // quarantined, and the block moves to a healthy device.
        states[rank].log.append(block_log);
        if (!config_.fallback.enabled) throw;
        quarantine(rank);
      } catch (const DataCorruption&) {
        // Second escaped corruption on this block: the device is lying
        // about its transfers; quarantine and move the block.
        states[rank].log.append(block_log);
        if (!config_.fallback.enabled) throw;
        quarantine(rank);
      }
      rank = least_loaded_healthy(SIZE_MAX);
    }

    // Straggler mitigation: a block that completed but blew its
    // simulated-time budget (a slow device under the command watchdog's
    // deadline) is speculatively re-executed elsewhere; the faster result
    // wins and both executions stay charged.
    if (config_.straggler_budget_factor > 0.0) {
      const double estimate = runtime::estimate_sim_seconds(
          network, bindings, elements, config_.device_spec, outcome.executed,
          backend ? backend->compute_efficiency() : 0.0);
      const double reference = std::max(estimate, fastest_clean);
      if (reference > 0.0 &&
          duration > config_.straggler_budget_factor * reference) {
        ++report.straggler_blocks;
        reg.add(counters.stragglers);
        const std::size_t spec_rank = least_loaded_healthy(rank);
        if (spec_rank != SIZE_MAX) {
          ++report.speculative_executions;
          reg.add(counters.spec_runs);
          vcl::ProfilingLog spec_log;
          try {
            runtime::FallbackOutcome spec_outcome =
                run_block_on(spec_rank, bindings, elements, spec_log);
            const double spec_duration = spec_log.total_sim_seconds();
            states[spec_rank].log.append(spec_log);
            if (spec_duration < duration) {
              outcome = std::move(spec_outcome);
              duration = spec_duration;
              ++report.speculations_won;
              reg.add(counters.spec_wins);
            }
          } catch (const Error&) {
            // The speculation target failed too; keep the original result
            // and quarantine the target.
            states[spec_rank].log.append(spec_log);
            quarantine(spec_rank);
          }
        }
      } else {
        fastest_clean = fastest_clean == 0.0
                            ? duration
                            : std::min(fastest_clean, duration);
      }
    }

    if (outcome.executed != strategy_kind) {
      ++report.degraded_blocks;
      reg.add(counters.degraded);
    }
    report.strategy_degradations += outcome.degradations.size();
    reg.add(counters.blocks);
    block_span.add_sim_seconds(duration);

    journal.append(b, outcome.values);
    ++completed_this_run;
    if (config_.abort_after_blocks != 0 &&
        completed_this_run >= config_.abort_after_blocks &&
        b + 1 < blocks) {
      throw Error("evaluation aborted after " +
                  std::to_string(completed_this_run) +
                  " completed blocks (crash injection)");
    }

    scatter(extent, shape, outcome.values);
  }

  const kernels::ProgramCacheStats cache_after =
      kernels::ProgramCache::instance().thread_stats();
  report.pipeline_cache_hits =
      (cache_after.pipeline_hits - cache_before.pipeline_hits) +
      (cache_after.standalone_hits - cache_before.standalone_hits);
  report.pipeline_cache_misses =
      (cache_after.pipeline_misses - cache_before.pipeline_misses) +
      (cache_after.standalone_misses - cache_before.standalone_misses);

  const std::array<std::uint64_t, 5> resident_after = resident_ids.sample();
  report.resident_hits = resident_after[0] - resident_before[0];
  report.resident_misses = resident_after[1] - resident_before[1];
  report.resident_evictions = resident_after[2] - resident_before[2];
  report.resident_invalidations = resident_after[3] - resident_before[3];
  report.resident_upload_bytes_saved = resident_after[4] - resident_before[4];

  report.journaled_blocks = journal.journaled_count();
  report.ghost_messages = exchanger.messages();
  report.ghost_bytes = exchanger.bytes();
  for (std::size_t r = 0; r < ranks; ++r) {
    const vcl::ProfilingLog& log = states[r].log;
    report.max_rank_sim_seconds =
        std::max(report.max_rank_sim_seconds, log.total_sim_seconds());
    report.total_sim_seconds += log.total_sim_seconds();
    report.total_dev_writes += log.count(vcl::EventKind::host_to_device);
    report.total_dev_reads += log.count(vcl::EventKind::device_to_host);
    report.total_kernel_execs += log.count(vcl::EventKind::kernel_exec);
    report.command_timeouts += log.count(vcl::EventKind::timeout);
    report.checksum_mismatches += log.count(vcl::EventKind::integrity);
    report.max_device_high_water = std::max(
        report.max_device_high_water, states[r].device->memory().high_water());
    for (const vcl::Event& event : log.events()) {
      if (event.kind != vcl::EventKind::fault) continue;
      if (event.label.rfind("retry:", 0) == 0) {
        ++report.command_retries;
      } else {
        ++report.injected_faults;
      }
    }
  }
  request_span.add_sim_seconds(report.total_sim_seconds);
  return report;
}

}  // namespace dfg::distrib
