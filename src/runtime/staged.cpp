// Staged execution strategy (paper §III-C2).
//
// One kernel per filter, but intermediates never leave the device: unique
// external inputs are uploaded once, results are staged in device global
// memory between kernel invocations, and only the network output is read
// back. Consequences measured by the paper: host-device traffic collapses
// to (unique inputs + 1), kernel count grows — decompose becomes a kernel
// moving intermediate lanes on the device, and each unique constant is
// materialised by one constant-fill kernel — and the device footprint is
// the largest of the three strategies, bounded by reference counting that
// releases each intermediate after its last consumer has run.
#include <memory>
#include <vector>

#include "kernels/primitives.hpp"
#include "kernels/program_cache.hpp"
#include "kernels/vm.hpp"
#include "runtime/strategy.hpp"
#include "support/error.hpp"

namespace dfg::runtime {

std::vector<float> StagedStrategy::execute(const dataflow::Network& network,
                                           const FieldBindings& bindings,
                                           std::size_t elements,
                                           vcl::Device& device,
                                           vcl::ProfilingLog& log) const {
  vcl::CommandQueue queue(device, log);
  const auto& spec = network.spec();
  // One device value per node: filter outputs and constants are owned
  // here, a field may share a pool-resident upload.
  std::vector<std::shared_ptr<const vcl::Buffer>> values(spec.nodes().size());
  std::vector<int> refs = network.use_counts();

  // Sources are materialised lazily, at their first consumer: each unique
  // external input still uploads exactly once and each unique constant is
  // filled by exactly one kernel, but buffers do not occupy device memory
  // before they are needed (this is what gives the paper's Figure 2 example
  // its staged footprint of 4 arrays rather than 5).
  const auto materialise_source = [&](int id) {
    const dataflow::SpecNode& node = spec.node(id);
    if (node.type == dataflow::NodeType::field_source) {
      values[id] = stage_input(queue, bindings.get(node.field_name),
                               node.field_name);
    } else {  // constant
      vcl::Buffer buffer = device.allocate(elements);
      const std::shared_ptr<const kernels::Program> fill =
          kernels::ProgramCache::instance().standalone(
              "const_fill", 0, static_cast<float>(node.const_value));
      launch_program(queue, *fill, {}, buffer.device_view(), elements);
      values[id] = std::make_shared<const vcl::Buffer>(std::move(buffer));
    }
  };

  const auto input_of = [&](int id) {
    if (!values[id]) {
      if (spec.node(id).type == dataflow::NodeType::filter) {
        throw NetworkError("staged execution consumed '" +
                           spec.node(id).label +
                           "' after its buffer was released");
      }
      materialise_source(id);
    }
    return binding_of(*values[id]);
  };

  for (const int id : network.topo_order()) {
    const dataflow::SpecNode& node = spec.node(id);
    if (node.type != dataflow::NodeType::filter) continue;

    const std::shared_ptr<const kernels::Program> program =
        kernels::ProgramCache::instance().standalone(node.kind,
                                                     node.component);
    std::vector<kernels::BufferBinding> inputs;
    inputs.reserve(node.inputs.size());
    for (const int in : node.inputs) inputs.push_back(input_of(in));

    vcl::Buffer out = device.allocate(elements * program->out_stride());
    launch_program(queue, *program, std::move(inputs), out.device_view(),
                   elements);
    values[id] = std::make_shared<const vcl::Buffer>(std::move(out));

    // Reference counting: release intermediates after their last consumer.
    // Dropping the sole owner frees the buffer; dropping a share of a
    // resident upload leaves it in the pool for the next evaluation — that
    // is the transfer saving.
    for (const int in : node.inputs) {
      if (--refs[in] == 0) values[in].reset();
    }
  }

  const int out_id = spec.output_id();
  if (!values[out_id]) {
    // The output can be a bare source (e.g. "r = 3.0") that no filter
    // consumed; materialise it now.
    if (spec.node(out_id).type == dataflow::NodeType::filter) {
      throw NetworkError("staged execution lost the output buffer");
    }
    materialise_source(out_id);
  }
  const vcl::Buffer& out_buffer = *values[out_id];
  std::vector<float> result(out_buffer.size());
  queue.read(out_buffer, result, spec.node(out_id).label);
  result.resize(elements);
  return result;
}

}  // namespace dfg::runtime
