#include "runtime/planner.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "kernels/backend.hpp"
#include "kernels/generator.hpp"
#include "kernels/primitives.hpp"
#include "kernels/program_cache.hpp"
#include "runtime/slab.hpp"
#include "support/error.hpp"
#include "vcl/cost_model.hpp"

namespace dfg::runtime {

namespace {

/// Resolves the 0 = "process default" sentinel of the public estimators:
/// an engine-less caller executes launch_program under the DFGEN_BACKEND
/// backend, so that is the efficiency its measured simulated time carries.
double resolve_efficiency(double requested) {
  if (requested > 0.0) return requested;
  return kernels::backend_for(kernels::default_backend_kind())
      ->compute_efficiency();
}

/// Floats a node's value occupies on the host / in a device buffer.
std::size_t value_floats(const dataflow::NetworkSpec& spec, int id,
                         const FieldBindings& bindings,
                         std::size_t elements) {
  const dataflow::SpecNode& node = spec.node(id);
  switch (node.type) {
    case dataflow::NodeType::field_source:
      return bindings.get(node.field_name).size();
    case dataflow::NodeType::constant:
      return elements;
    case dataflow::NodeType::filter:
      return elements * (node.components == 1 ? 1 : 4);
  }
  return 0;
}

std::size_t roundtrip_high_water(const dataflow::Network& network,
                                 const FieldBindings& bindings,
                                 std::size_t elements) {
  const auto& spec = network.spec();
  std::size_t peak_floats = 0;
  for (const dataflow::SpecNode& node : spec.nodes()) {
    if (node.type != dataflow::NodeType::filter) continue;
    if (node.kind == "decompose") continue;  // host-side slicing
    std::size_t kernel_floats = 0;
    for (const int in : node.inputs) {
      kernel_floats += value_floats(spec, in, bindings, elements);
    }
    kernel_floats += elements * (node.components == 1 ? 1 : 4);
    peak_floats = std::max(peak_floats, kernel_floats);
  }
  return peak_floats * sizeof(float);
}

std::size_t staged_high_water(const dataflow::Network& network,
                              const FieldBindings& bindings,
                              std::size_t elements) {
  // Replays StagedStrategy's allocation discipline: lazy source
  // materialisation at first consumer, output allocation before input
  // release, reference-counted release after each filter.
  const auto& spec = network.spec();
  std::vector<int> refs = network.use_counts();
  std::vector<bool> live(spec.nodes().size(), false);
  std::vector<std::size_t> floats(spec.nodes().size(), 0);
  std::size_t current = 0;
  std::size_t peak = 0;

  const auto materialise = [&](int id) {
    if (live[id]) return;
    floats[id] = value_floats(spec, id, bindings, elements);
    current += floats[id];
    peak = std::max(peak, current);
    live[id] = true;
  };

  for (const int id : network.topo_order()) {
    const dataflow::SpecNode& node = spec.node(id);
    if (node.type != dataflow::NodeType::filter) continue;
    for (const int in : node.inputs) materialise(in);
    materialise(id);  // the filter's output buffer
    for (const int in : node.inputs) {
      if (--refs[in] == 0) {
        current -= floats[in];
        live[in] = false;
      }
    }
  }
  const int out_id = spec.output_id();
  if (!live[out_id]) materialise(out_id);
  return peak * sizeof(float);
}

std::size_t fusion_high_water(const dataflow::Network& network,
                              const FieldBindings& bindings,
                              std::size_t elements) {
  // Covers both the single-kernel case (inputs + output) and the
  // partitioned pipeline, whose materialised intermediates stay on the
  // device for the whole run. The cached pipeline is the very object the
  // fusion strategy executes, so the estimate replays its exact programs.
  const std::shared_ptr<const kernels::FusedPipeline> pipeline =
      kernels::ProgramCache::instance().fused_pipeline(network);
  std::set<std::string> fields;
  std::size_t floats = 0;
  for (const kernels::FusedPipeline::Stage& stage : pipeline->stages) {
    floats += elements * stage.program.out_stride();
    for (const kernels::BufferParam& param : stage.program.params()) {
      if (param.name.rfind("__m", 0) == 0) continue;  // a stage output
      if (fields.insert(param.name).second) {
        floats += bindings.get(param.name).size();
      }
    }
  }
  return floats * sizeof(float);
}

std::size_t streamed_high_water(const dataflow::Network& network,
                                const FieldBindings& bindings,
                                std::size_t elements,
                                std::size_t chunk_cells) {
  const std::shared_ptr<const kernels::FusedPipeline> pipeline =
      kernels::ProgramCache::instance().fused_single(network);
  const kernels::Program& program = pipeline->stages.front().program;
  const SlabPlan plan = make_slab_plan(program, bindings, elements);

  const std::size_t chunk_planes = chunk_planes_for(plan, chunk_cells);
  // The peak is the largest slab over the chunk sequence; boundary chunks
  // clamp their halo at the domain faces exactly as run_fused_slab does.
  std::size_t max_slab_planes = 0;
  for (std::size_t begin = 0; begin < plan.total_planes;
       begin += chunk_planes) {
    const std::size_t end = std::min(plan.total_planes, begin + chunk_planes);
    const std::size_t slab_lo = begin > plan.halo ? begin - plan.halo : 0;
    const std::size_t slab_hi = std::min(plan.total_planes, end + plan.halo);
    max_slab_planes = std::max(max_slab_planes, slab_hi - slab_lo);
  }
  const std::size_t slab_cells = max_slab_planes * plan.plane_cells;
  const std::size_t dims_params =
      program.params().size() - plan.slabbed_params;
  const std::size_t floats = plan.slabbed_params * slab_cells +
                             dims_params * 3 +
                             slab_cells * program.out_stride();
  return floats * sizeof(float);
}

/// Replays FusionStrategy's command stream: unique field uploads at first
/// use, one kernel per pipeline stage, one readback of the final stage's
/// buffer.
double fusion_sim_seconds(const dataflow::Network& network,
                          const FieldBindings& bindings,
                          std::size_t elements, const vcl::CostModel& cost,
                          double efficiency) {
  const std::shared_ptr<const kernels::FusedPipeline> pipeline =
      kernels::ProgramCache::instance().fused_pipeline(network);
  std::set<std::string> fields;
  double seconds = 0.0;
  std::size_t final_stride = 1;
  for (const kernels::FusedPipeline::Stage& stage : pipeline->stages) {
    for (const kernels::BufferParam& param : stage.program.params()) {
      if (param.name.rfind("__m", 0) == 0) continue;  // a stage output
      if (fields.insert(param.name).second) {
        seconds += cost.transfer_seconds(bindings.get(param.name).size() *
                                         sizeof(float));
      }
    }
    seconds += cost.kernel_seconds(
        stage.program.flops_per_item() * elements,
        stage.program.global_bytes_per_item() * elements,
        stage.program.max_live_scalar_registers(), efficiency);
    if (stage.node_id == network.output_id()) {
      final_stride = stage.program.out_stride();
    }
  }
  seconds += cost.transfer_seconds(elements * final_stride * sizeof(float));
  return seconds;
}

/// Replays StagedStrategy's command stream: lazy source materialisation
/// (field upload or const_fill kernel at first consumer), one standalone
/// kernel per filter, one readback of the output buffer.
double staged_sim_seconds(const dataflow::Network& network,
                          const FieldBindings& bindings,
                          std::size_t elements, const vcl::CostModel& cost,
                          double efficiency) {
  const auto& spec = network.spec();
  std::vector<bool> materialised(spec.nodes().size(), false);
  double seconds = 0.0;

  const auto materialise_source = [&](int id) {
    if (materialised[id]) return;
    materialised[id] = true;
    const dataflow::SpecNode& node = spec.node(id);
    if (node.type == dataflow::NodeType::field_source) {
      seconds += cost.transfer_seconds(bindings.get(node.field_name).size() *
                                       sizeof(float));
    } else {  // constant: one fill kernel
      const std::shared_ptr<const kernels::Program> fill =
          kernels::ProgramCache::instance().standalone(
              "const_fill", 0, static_cast<float>(node.const_value));
      seconds += cost.kernel_seconds(
          fill->flops_per_item() * elements,
          fill->global_bytes_per_item() * elements,
          fill->max_live_scalar_registers(), efficiency);
    }
  };

  for (const int id : network.topo_order()) {
    const dataflow::SpecNode& node = spec.node(id);
    if (node.type != dataflow::NodeType::filter) continue;
    for (const int in : node.inputs) {
      if (spec.node(in).type != dataflow::NodeType::filter) {
        materialise_source(in);
      }
    }
    const std::shared_ptr<const kernels::Program> program =
        kernels::ProgramCache::instance().standalone(node.kind,
                                                     node.component);
    seconds += cost.kernel_seconds(
        program->flops_per_item() * elements,
        program->global_bytes_per_item() * elements,
        program->max_live_scalar_registers(), efficiency);
    materialised[id] = true;
  }

  const int out_id = spec.output_id();
  if (!materialised[out_id]) materialise_source(out_id);
  seconds += cost.transfer_seconds(
      value_floats(spec, out_id, bindings, elements) * sizeof(float));
  return seconds;
}

/// Replays RoundtripStrategy's command stream: per filter (decompose is
/// host-side slicing), one upload per argument occurrence, the kernel, and
/// a readback of the result.
double roundtrip_sim_seconds(const dataflow::Network& network,
                             const FieldBindings& bindings,
                             std::size_t elements, const vcl::CostModel& cost,
                             double efficiency) {
  const auto& spec = network.spec();
  double seconds = 0.0;
  for (const int id : network.topo_order()) {
    const dataflow::SpecNode& node = spec.node(id);
    if (node.type != dataflow::NodeType::filter) continue;
    if (node.kind == "decompose") continue;  // host-side slicing
    for (const int in : node.inputs) {
      seconds += cost.transfer_seconds(
          value_floats(spec, in, bindings, elements) * sizeof(float));
    }
    const std::shared_ptr<const kernels::Program> program =
        kernels::ProgramCache::instance().standalone(node.kind,
                                                     node.component);
    seconds += cost.kernel_seconds(
        program->flops_per_item() * elements,
        program->global_bytes_per_item() * elements,
        program->max_live_scalar_registers(), efficiency);
    seconds += cost.transfer_seconds(elements * program->out_stride() *
                                     sizeof(float));
  }
  return seconds;
}

/// Replays StreamedFusionStrategy's command stream with `chunk_cells`
/// per chunk (0 = one plane): per chunk, one upload per parameter, one
/// kernel over the slab and one readback of the slab.
double streamed_sim_seconds(const dataflow::Network& network,
                            const FieldBindings& bindings,
                            std::size_t elements, const vcl::CostModel& cost,
                            std::size_t chunk_cells, double efficiency) {
  const std::shared_ptr<const kernels::FusedPipeline> pipeline =
      kernels::ProgramCache::instance().fused_single(network);
  const kernels::Program& program = pipeline->stages.front().program;
  const SlabPlan plan = make_slab_plan(program, bindings, elements);
  const std::size_t chunk_planes = chunk_planes_for(plan, chunk_cells);
  const std::size_t dims_params =
      program.params().size() - plan.slabbed_params;

  double seconds = 0.0;
  for (std::size_t begin = 0; begin < plan.total_planes;
       begin += chunk_planes) {
    const std::size_t end = std::min(plan.total_planes, begin + chunk_planes);
    const std::size_t slab_lo = begin > plan.halo ? begin - plan.halo : 0;
    const std::size_t slab_hi = std::min(plan.total_planes, end + plan.halo);
    const std::size_t slab_cells = (slab_hi - slab_lo) * plan.plane_cells;

    // One transfer per parameter, each paying the link latency, exactly
    // like run_fused_slab's per-buffer writes.
    double upload = 0.0;
    for (std::size_t p = 0; p < plan.slabbed_params; ++p) {
      upload += cost.transfer_seconds(slab_cells * sizeof(float));
    }
    for (std::size_t p = 0; p < dims_params; ++p) {
      upload += cost.transfer_seconds(3 * sizeof(float));
    }
    const double kernel = cost.kernel_seconds(
        program.flops_per_item() * slab_cells,
        program.global_bytes_per_item() * slab_cells,
        program.max_live_scalar_registers(), efficiency);
    const double read = cost.transfer_seconds(
        slab_cells * program.out_stride() * sizeof(float));
    seconds += upload + kernel + read;
  }
  return seconds;
}

}  // namespace

std::size_t estimate_high_water(const dataflow::Network& network,
                                const FieldBindings& bindings,
                                std::size_t elements, StrategyKind kind,
                                std::size_t streamed_chunk_cells) {
  switch (kind) {
    case StrategyKind::roundtrip:
      return roundtrip_high_water(network, bindings, elements);
    case StrategyKind::staged:
      return staged_high_water(network, bindings, elements);
    case StrategyKind::fusion:
      return fusion_high_water(network, bindings, elements);
    case StrategyKind::streamed:
      return streamed_high_water(network, bindings, elements,
                                 streamed_chunk_cells);
  }
  throw Error("unknown strategy kind");
}

double estimate_sim_seconds(const dataflow::Network& network,
                            const FieldBindings& bindings,
                            std::size_t elements, const vcl::DeviceSpec& spec,
                            StrategyKind kind,
                            std::size_t streamed_chunk_cells,
                            double compute_efficiency) {
  const double efficiency = resolve_efficiency(compute_efficiency);
  const vcl::CostModel cost(spec);
  switch (kind) {
    case StrategyKind::fusion:
      return fusion_sim_seconds(network, bindings, elements, cost, efficiency);
    case StrategyKind::staged:
      return staged_sim_seconds(network, bindings, elements, cost, efficiency);
    case StrategyKind::roundtrip:
      return roundtrip_sim_seconds(network, bindings, elements, cost,
                                   efficiency);
    case StrategyKind::streamed:
      try {
        return streamed_sim_seconds(network, bindings, elements, cost,
                                    streamed_chunk_cells, efficiency);
      } catch (const KernelError&) {
        // Streamed cannot execute this network; the ladder would land on a
        // neighbouring rung, whose cost is close enough for budgeting.
        return fusion_sim_seconds(network, bindings, elements, cost,
                                  efficiency);
      }
  }
  throw Error("unknown strategy kind");
}

StrategyKind select_strategy(const dataflow::Network& network,
                             const FieldBindings& bindings,
                             std::size_t elements,
                             const vcl::Device& device) {
  // Effective headroom: the tracker's free memory clamped by any injected
  // synthetic capacity, so selection agrees with what allocation enforces.
  const std::size_t free_bytes = device.effective_available();
  std::size_t smallest = SIZE_MAX;
  // Preference order by measured simulated runtime. Streamed is skipped
  // (KernelError) on networks it cannot execute, e.g. gradients of
  // computed values.
  for (const StrategyKind kind :
       {StrategyKind::fusion, StrategyKind::streamed, StrategyKind::staged,
        StrategyKind::roundtrip}) {
    std::size_t needed;
    try {
      needed = estimate_high_water(network, bindings, elements, kind);
    } catch (const KernelError&) {
      continue;
    }
    if (needed <= free_bytes) return kind;
    smallest = std::min(smallest, needed);
  }
  throw DeviceOutOfMemory(device.spec().name, smallest,
                          device.memory().in_use(),
                          device.memory().capacity());
}

}  // namespace dfg::runtime
