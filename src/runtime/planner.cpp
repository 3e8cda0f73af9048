#include "runtime/planner.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "kernels/generator.hpp"
#include "kernels/program_cache.hpp"
#include "runtime/slab.hpp"
#include "support/error.hpp"
#include "vcl/cost_model.hpp"

namespace dfg::runtime {

namespace {

/// Receives a strategy's device commands in the order the strategy issues
/// them. Always tracks live and peak device floats; sums cost-model
/// seconds only when built with a cost model.
class Tally {
 public:
  Tally() = default;
  Tally(const vcl::CostModel& cost, double efficiency)
      : cost_(&cost), efficiency_(efficiency) {}

  void allocate(std::size_t floats) {
    live_ += floats;
    peak_ = std::max(peak_, live_);
  }
  void release(std::size_t floats) { live_ -= floats; }
  void transfer(std::size_t floats) {
    if (cost_ != nullptr) {
      seconds_ += cost_->transfer_seconds(floats * sizeof(float));
    }
  }
  void launch(const kernels::Program& program, std::size_t items) {
    if (cost_ == nullptr) return;
    seconds_ += cost_->kernel_seconds(
        program.flops_per_item() * items,
        program.global_bytes_per_item() * items,
        program.max_live_scalar_registers(), efficiency_);
  }

  std::size_t high_water_bytes() const { return peak_ * sizeof(float); }
  double seconds() const { return seconds_; }

 private:
  const vcl::CostModel* cost_ = nullptr;
  double efficiency_ = 0.0;
  std::size_t live_ = 0;
  std::size_t peak_ = 0;
  double seconds_ = 0.0;
};

/// Floats a node's value occupies on the host.
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

/// RoundtripStrategy: per filter (decompose is host-side slicing), one
/// upload per argument occurrence, the output buffer, the kernel and a
/// readback; the device then drops the filter's whole working set.
void replay_roundtrip(const dataflow::Network& network,
                      const FieldBindings& bindings, std::size_t elements,
                      Tally& tally) {
  const auto& spec = network.spec();
  for (const int id : network.topo_order()) {
    const dataflow::SpecNode& node = spec.node(id);
    if (node.type != dataflow::NodeType::filter) continue;
    if (node.kind == "decompose") continue;
    const std::shared_ptr<const kernels::Program> program =
        kernels::ProgramCache::instance().standalone(node.kind,
                                                     node.component);
    std::size_t held = 0;
    for (const int in : node.inputs) {
      const std::size_t floats = value_floats(spec, in, bindings, elements);
      tally.allocate(floats);
      tally.transfer(floats);
      held += floats;
    }
    const std::size_t out = elements * program->out_stride();
    tally.allocate(out);
    tally.launch(*program, elements);
    tally.transfer(out);
    tally.release(held + out);
  }
}

/// StagedStrategy: sources materialise at their first consumer (a field
/// upload or a const_fill kernel), each filter's output is allocated
/// before its inputs are released, reference counting frees a value after
/// its last consumer, and the output is read back once.
void replay_staged(const dataflow::Network& network,
                   const FieldBindings& bindings, std::size_t elements,
                   Tally& tally) {
  const auto& spec = network.spec();
  std::vector<int> refs = network.use_counts();
  std::vector<bool> live(spec.nodes().size(), false);
  std::vector<std::size_t> floats(spec.nodes().size(), 0);

  const auto materialise_source = [&](int id) {
    const dataflow::SpecNode& node = spec.node(id);
    live[id] = true;
    if (node.type == dataflow::NodeType::field_source) {
      floats[id] = bindings.get(node.field_name).size();
      tally.allocate(floats[id]);
      tally.transfer(floats[id]);
    } else {  // constant
      floats[id] = elements;
      tally.allocate(elements);
      tally.launch(*kernels::ProgramCache::instance().standalone(
                       "const_fill", 0, static_cast<float>(node.const_value)),
                   elements);
    }
  };

  for (const int id : network.topo_order()) {
    const dataflow::SpecNode& node = spec.node(id);
    if (node.type != dataflow::NodeType::filter) continue;
    const std::shared_ptr<const kernels::Program> program =
        kernels::ProgramCache::instance().standalone(node.kind,
                                                     node.component);
    for (const int in : node.inputs) {
      if (!live[in]) materialise_source(in);
    }
    floats[id] = elements * program->out_stride();
    tally.allocate(floats[id]);
    tally.launch(*program, elements);
    live[id] = true;
    for (const int in : node.inputs) {
      if (--refs[in] == 0) {
        tally.release(floats[in]);
        live[in] = false;
      }
    }
  }
  const int out_id = spec.output_id();
  if (!live[out_id]) materialise_source(out_id);
  tally.transfer(floats[out_id]);
}

/// FusionStrategy: per pipeline stage, uploads of the fields it is first
/// to use, its output buffer and one kernel; every value stays on the
/// device until the final stage's buffer is read back.
void replay_fusion(const dataflow::Network& network,
                   const FieldBindings& bindings, std::size_t elements,
                   Tally& tally) {
  const std::shared_ptr<const kernels::FusedPipeline> pipeline =
      kernels::ProgramCache::instance().fused_pipeline(network);
  std::set<std::string> stage_outputs;
  for (const kernels::FusedPipeline::Stage& stage : pipeline->stages) {
    stage_outputs.insert(kernels::materialized_param_name(stage.node_id));
  }
  std::set<std::string> uploaded;
  std::size_t out = 0;
  for (const kernels::FusedPipeline::Stage& stage : pipeline->stages) {
    for (const kernels::BufferParam& param : stage.program.params()) {
      if (stage_outputs.count(param.name) != 0) continue;
      if (!uploaded.insert(param.name).second) continue;
      const std::size_t floats = bindings.get(param.name).size();
      tally.allocate(floats);
      tally.transfer(floats);
    }
    out = elements * stage.program.out_stride();
    tally.allocate(out);
    tally.launch(stage.program, elements);
  }
  tally.transfer(out);
}

/// StreamedFusionStrategy with `chunk_cells` per chunk (0 = one plane):
/// per chunk, run_fused_slab's upload of every parameter's slab (dims as
/// 3 floats), the slab output, one kernel over the slab and one readback;
/// the chunk's buffers are released before the next chunk.
void replay_streamed(const dataflow::Network& network,
                     const FieldBindings& bindings, std::size_t elements,
                     std::size_t chunk_cells, Tally& tally) {
  const std::shared_ptr<const kernels::FusedPipeline> pipeline =
      kernels::ProgramCache::instance().fused_single(network);
  const kernels::Program& program = pipeline->stages.front().program;
  const SlabPlan plan = make_slab_plan(program, bindings, elements);
  const std::vector<SlabParam> params = resolve_slab_params(program, bindings);
  const std::size_t chunk_planes = chunk_planes_for(plan, chunk_cells);
  for (std::size_t begin = 0; begin < plan.total_planes;
       begin += chunk_planes) {
    const SlabBounds slab = slab_bounds(
        plan, begin, std::min(plan.total_planes, begin + chunk_planes));
    const std::size_t cells = slab.planes() * plan.plane_cells;
    std::size_t held = 0;
    for (const SlabParam& param : params) {
      const std::size_t floats = param.is_dims ? 3 : cells;
      tally.allocate(floats);
      tally.transfer(floats);
      held += floats;
    }
    const std::size_t out = cells * program.out_stride();
    tally.allocate(out);
    tally.launch(program, cells);
    tally.transfer(out);
    tally.release(held + out);
  }
}

void replay(const dataflow::Network& network, const FieldBindings& bindings,
            std::size_t elements, StrategyKind kind,
            std::size_t streamed_chunk_cells, Tally& tally) {
  switch (kind) {
    case StrategyKind::roundtrip:
      return replay_roundtrip(network, bindings, elements, tally);
    case StrategyKind::staged:
      return replay_staged(network, bindings, elements, tally);
    case StrategyKind::fusion:
      return replay_fusion(network, bindings, elements, tally);
    case StrategyKind::streamed:
      return replay_streamed(network, bindings, elements,
                             streamed_chunk_cells, tally);
  }
  throw Error("unknown strategy kind");
}

}  // namespace

std::size_t estimate_high_water(const dataflow::Network& network,
                                const FieldBindings& bindings,
                                std::size_t elements, StrategyKind kind,
                                std::size_t streamed_chunk_cells) {
  Tally tally;
  replay(network, bindings, elements, kind, streamed_chunk_cells, tally);
  return tally.high_water_bytes();
}

double estimate_sim_seconds(const dataflow::Network& network,
                            const FieldBindings& bindings,
                            std::size_t elements, const vcl::DeviceSpec& spec,
                            StrategyKind kind,
                            std::size_t streamed_chunk_cells,
                            double compute_efficiency) {
  const vcl::CostModel cost(spec);
  Tally tally(cost, compute_efficiency);
  replay(network, bindings, elements, kind, streamed_chunk_cells, tally);
  return tally.seconds();
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
