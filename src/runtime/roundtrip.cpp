// Roundtrip execution strategy (paper §III-C1).
//
// One kernel dispatch per filter, with *every* kernel argument uploaded at
// dispatch time (an argument used twice is written twice) and every result
// transferred straight back to the host. Intermediates therefore live in
// host memory and the device only ever holds one kernel's working set —
// the least-constrained strategy, at the cost of maximal PCIe traffic.
// Decompose runs on the host as array slicing, and constants are
// materialised as host arrays uploaded per use (both per the device-event
// accounting of the paper's Table II).
#include <map>
#include <memory>
#include <vector>

#include "kernels/primitives.hpp"
#include "kernels/program_cache.hpp"
#include "kernels/vm.hpp"
#include "runtime/strategy.hpp"
#include "support/error.hpp"

namespace dfg::runtime {

namespace {

/// A node's value held on the host: either a view of a bound array or an
/// owned intermediate produced by a kernel readback / host-side operation.
struct HostValue {
  std::span<const float> view;
  std::vector<float> owned;
  int components = 1;

  void own(std::vector<float> data, int comps) {
    owned = std::move(data);
    view = owned;
    components = comps;
  }
};

}  // namespace

std::vector<float> RoundtripStrategy::execute(const dataflow::Network& network,
                                              const FieldBindings& bindings,
                                              std::size_t elements,
                                              vcl::Device& device,
                                              vcl::ProfilingLog& log) const {
  vcl::CommandQueue queue(device, log);
  const auto& spec = network.spec();
  std::vector<HostValue> values(spec.nodes().size());

  for (const int id : network.topo_order()) {
    const dataflow::SpecNode& node = spec.node(id);
    HostValue& value = values[id];
    switch (node.type) {
      case dataflow::NodeType::field_source:
        value.view = bindings.get(node.field_name);
        value.components = 1;
        continue;
      case dataflow::NodeType::constant:
        // Constant source filters materialise a problem-sized host array;
        // it is uploaded as a buffer argument by each consuming kernel.
        value.own(std::vector<float>(
                      elements, static_cast<float>(node.const_value)),
                  1);
        continue;
      case dataflow::NodeType::filter:
        break;
    }

    if (node.kind == "decompose") {
      // Host-side slicing of the transferred vector-valued array: roundtrip
      // already holds the intermediate on the host, so no kernel is needed.
      const HostValue& in = values[node.inputs[0]];
      std::vector<float> sliced(elements);
      for (std::size_t i = 0; i < elements; ++i) {
        sliced[i] = in.view[i * 4 + static_cast<std::size_t>(node.component)];
      }
      value.own(std::move(sliced), 1);
      continue;
    }

    const std::shared_ptr<const kernels::Program> program_ptr =
        kernels::ProgramCache::instance().standalone(node.kind,
                                                     node.component);
    const kernels::Program& program = *program_ptr;

    // Upload one buffer per argument occurrence. Only bound field arrays
    // are pool-eligible: host intermediates (owned vectors above) die at
    // the end of this evaluation and must stay transient.
    std::vector<std::shared_ptr<const vcl::Buffer>> arg_buffers;
    std::vector<kernels::BufferBinding> arg_bindings;
    arg_buffers.reserve(node.inputs.size());
    arg_bindings.reserve(node.inputs.size());
    for (const int input : node.inputs) {
      const bool poolable =
          spec.node(input).type == dataflow::NodeType::field_source;
      arg_buffers.push_back(stage_input(
          queue, values[input].view,
          node.kind + ":" + spec.node(input).label, poolable));
      arg_bindings.push_back(binding_of(*arg_buffers.back()));
    }

    vcl::Buffer out_buffer = device.allocate(elements * program.out_stride());
    launch_program(queue, program, std::move(arg_bindings),
                   out_buffer.device_view(), elements);

    std::vector<float> host_out(out_buffer.size());
    queue.read(out_buffer, host_out, node.label);
    value.own(std::move(host_out), program.out_components());
    // arg_buffers and out_buffer release here: the device never holds more
    // than one filter's working set.
  }

  const HostValue& out = values[spec.output_id()];
  return std::vector<float>(out.view.begin(),
                            out.view.begin() + static_cast<long>(elements));
}

}  // namespace dfg::runtime
