// Fusion execution strategy (paper §III-C3).
//
// The dynamic kernel generator fuses the entire network into one kernel:
// unique external inputs upload once, a single dispatch computes the whole
// expression with intermediates in registers (constants inlined at source
// level, decompose lowered to vector-component selects, gradients reading
// global memory directly), and one transfer returns the result. Global
// memory holds only the inputs and the output — the footprint the paper's
// Figure 2 annotates as "all filters combined into a single kernel".
//
// Networks that take gradients of *computed* values cannot fuse into one
// kernel (a stencil cannot read registers); for those the strategy runs
// the partitioned pipeline: one fused kernel per materialisation barrier,
// intermediates staying on the device, still with (unique inputs) uploads
// and a single readback.
//
// The pipeline comes from the process-wide ProgramCache (generated once per
// network structure), and buffer-name lookups are resolved to dense slot
// indices up front, so the per-evaluation path performs no string-keyed map
// lookups.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernels/generator.hpp"
#include "kernels/program_cache.hpp"
#include "kernels/vm.hpp"
#include "runtime/strategy.hpp"
#include "support/error.hpp"

namespace dfg::runtime {

namespace {

/// Per-stage buffer wiring with every parameter name resolved to a dense
/// slot index (resolved once per pipeline, reused across stages).
struct StagePlan {
  std::vector<std::size_t> param_slots;
  std::size_t out_slot = 0;
};

}  // namespace

std::vector<float> FusionStrategy::execute(const dataflow::Network& network,
                                           const FieldBindings& bindings,
                                           std::size_t elements,
                                           vcl::Device& device,
                                           vcl::ProfilingLog& log) const {
  vcl::CommandQueue queue(device, log);
  const std::shared_ptr<const kernels::FusedPipeline> pipeline =
      kernels::ProgramCache::instance().fused_pipeline(network);
  executed_pipeline_ = pipeline;

  // Resolve every buffer name (fields, materialised intermediates, the
  // output) to a slot index.
  std::vector<std::string> slot_names;
  std::map<std::string, std::size_t> slot_index;
  const auto slot_for = [&](const std::string& name) {
    const auto it = slot_index.find(name);
    if (it != slot_index.end()) return it->second;
    const std::size_t slot = slot_names.size();
    slot_names.push_back(name);
    slot_index.emplace(name, slot);
    return slot;
  };
  const int output_id = network.output_id();
  std::vector<StagePlan> plans;
  plans.reserve(pipeline->stages.size());
  for (const kernels::FusedPipeline::Stage& stage : pipeline->stages) {
    StagePlan plan;
    plan.param_slots.reserve(stage.program.params().size());
    for (const kernels::BufferParam& param : stage.program.params()) {
      plan.param_slots.push_back(slot_for(param.name));
    }
    plan.out_slot = slot_for(
        stage.node_id == output_id && !pipeline->partitioned()
            ? std::string("out")
            : kernels::materialized_param_name(stage.node_id));
    plans.push_back(std::move(plan));
  }
  const std::size_t final_slot =
      slot_index.at(pipeline->partitioned()
                        ? kernels::materialized_param_name(output_id)
                        : std::string("out"));

  // Device values live for the whole pipeline: field uploads happen once at
  // first use (in stage-parameter order, matching the uncached event
  // stream); materialised intermediates are written by their stage and
  // read by later stages' kernels without further transfers. A field slot
  // may share a pool-resident buffer.
  std::vector<std::shared_ptr<const vcl::Buffer>> values(slot_names.size());
  for (std::size_t s = 0; s < pipeline->stages.size(); ++s) {
    const kernels::FusedPipeline::Stage& stage = pipeline->stages[s];
    const StagePlan& plan = plans[s];
    std::vector<kernels::BufferBinding> stage_inputs;
    stage_inputs.reserve(plan.param_slots.size());
    for (const std::size_t slot : plan.param_slots) {
      if (!values[slot]) {
        // A field parameter seen for the first time: stage the binding.
        // (Materialised parameters are created by their producing stage
        // and are always present by the time a consumer asks.)
        values[slot] = stage_input(queue, bindings.get(slot_names[slot]),
                                   slot_names[slot]);
      }
      stage_inputs.push_back(binding_of(*values[slot]));
    }
    vcl::Buffer out_buffer =
        device.allocate(elements * stage.program.out_stride());
    launch_program(queue, stage.program, std::move(stage_inputs),
                   out_buffer.device_view(), elements);
    values[plan.out_slot] =
        std::make_shared<const vcl::Buffer>(std::move(out_buffer));
  }

  const vcl::Buffer& final_buffer = *values[final_slot];
  std::vector<float> result(final_buffer.size());
  queue.read(final_buffer, result,
             network.spec().node(output_id).label);
  result.resize(elements);
  return result;
}

}  // namespace dfg::runtime
