#include "runtime/strategy.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kernels/backend.hpp"
#include "kernels/vm.hpp"
#include "runtime/slab.hpp"
#include "runtime/walk.hpp"
#include "support/error.hpp"

namespace dfg::runtime {

const char* strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::roundtrip:
      return "roundtrip";
    case StrategyKind::staged:
      return "staged";
    case StrategyKind::fusion:
      return "fusion";
    case StrategyKind::streamed:
      return "streamed";
  }
  return "?";
}

std::unique_ptr<Strategy> make_strategy(StrategyKind kind,
                                        std::size_t streamed_chunk_cells) {
  return std::make_unique<Strategy>(kind, streamed_chunk_cells);
}

std::vector<float> Strategy::execute(const dataflow::Network& network,
                                     const FieldBindings& bindings,
                                     std::size_t elements, vcl::Device& device,
                                     vcl::ProfilingLog& log) const {
  DeviceTarget target(device, log);
  return walk(kind_, network, bindings, elements, streamed_chunk_cells_,
              target)
      .result;
}

void check_bindings(const dataflow::Network& network,
                    const FieldBindings& bindings, std::size_t elements) {
  const dataflow::NetworkSpec& spec = network.spec();
  // Which nodes are read over the grid: every filter operand except
  // grad3d's dims, and the output.
  std::vector<bool> gridded(spec.nodes().size(), false);
  gridded[static_cast<std::size_t>(spec.output_id())] = true;
  for (const dataflow::SpecNode& node : spec.nodes()) {
    for (std::size_t i = 0; i < node.inputs.size(); ++i) {
      const bool dims = node.kind == "grad3d" && i == 1;
      if (!dims) gridded[static_cast<std::size_t>(node.inputs[i])] = true;
    }
  }
  for (const dataflow::SpecNode& node : spec.nodes()) {
    if (node.type != dataflow::NodeType::field_source ||
        network.use_count(node.id) == 0) {
      continue;
    }
    const std::size_t bound = bindings.get(node.field_name).size();
    if (gridded[static_cast<std::size_t>(node.id)] && bound < elements) {
      throw NetworkError("field '" + node.field_name + "' holds " +
                         std::to_string(bound) + " values, fewer than the " +
                         std::to_string(elements) + " cells it is read over");
    }
  }
}

std::size_t DeviceTarget::chunk_planes(const SlabPlan& plan,
                                       const kernels::Program& program,
                                       std::size_t chunk_cells) {
  if (chunk_cells == 0) {
    const std::size_t budget_bytes =
        queue_.device().effective_available() / 2;
    const std::size_t bytes_per_cell =
        (plan.slabbed_params + program.out_stride()) * sizeof(float);
    chunk_cells = budget_bytes / std::max<std::size_t>(bytes_per_cell, 1);
  }
  return chunk_planes_for(plan, chunk_cells);
}

DeviceTarget::Host DeviceTarget::host_slice(const Host& in, int lane,
                                            std::size_t count) {
  std::vector<float> sliced(count);
  for (std::size_t i = 0; i < count; ++i) {
    sliced[i] = in.view[i * 4 + static_cast<std::size_t>(lane)];
  }
  return Host(std::move(sliced));
}

void DeviceTarget::host_copy(const Host& from, std::size_t offset,
                             std::size_t count, Host& to, std::size_t at) {
  std::copy_n(from.view.begin() + static_cast<long>(offset), count,
              to.owned.begin() + static_cast<long>(at));
}

DeviceTarget::Result DeviceTarget::result(Host&& host, std::size_t elements) {
  if (host.owned.empty()) {
    return Result(host.view.begin(),
                  host.view.begin() + static_cast<long>(elements));
  }
  host.owned.resize(elements);
  return std::move(host.owned);
}

DeviceTarget::Value DeviceTarget::upload(std::span<const float> host,
                                         const std::string& label,
                                         bool poolable,
                                         const void* generation_key) {
  vcl::Device& device = queue_.device();
  if (poolable) {
    if (Value resident =
            device.resident().acquire(queue_, host, label, generation_key)) {
      return resident;
    }
  }
  vcl::Buffer buffer = device.allocate(host.size());
  queue_.write(buffer, host, label);
  return std::make_shared<const vcl::Buffer>(std::move(buffer));
}

void DeviceTarget::launch(const kernels::Program& program, Args&& args,
                          const Output& out, std::size_t items) {
  launch_program(queue_, program, std::move(args.bindings),
                 out->device_view(), items);
}

DeviceTarget::Host DeviceTarget::read(const Value& buffer,
                                      const std::string& label) {
  std::vector<float> host(buffer->size());
  queue_.read(*buffer, host, label);
  return Host(std::move(host));
}

void launch_program(vcl::CommandQueue& queue, const kernels::Program& program,
                    std::vector<kernels::BufferBinding> inputs,
                    std::span<float> out, std::size_t elements) {
  // Preparation happens before the launch is enqueued: a jit backend's
  // one-time compile (or its decision to degrade this program to the VM)
  // is charged as its own span, never against the kernel-exec command the
  // watchdog deadlines.
  kernels::ExecutionBackend& backend = queue.device().backend();
  std::shared_ptr<const kernels::CompiledKernel> kernel =
      backend.prepare(program);
  vcl::KernelLaunch launch;
  launch.label = program.name();
  launch.ndrange = elements;
  launch.flops = program.flops_per_item() * elements;
  launch.global_bytes = program.global_bytes_per_item() * elements;
  launch.registers_used = program.max_live_scalar_registers();
  launch.grain = kernels::kTileSize;
  launch.compute_efficiency = backend.compute_efficiency();
  float* out_data = out.data();
  const std::size_t out_elements = out.size();
  launch.body = [&program, kernel = std::move(kernel),
                 bindings = std::move(inputs), out_data,
                 out_elements](std::size_t begin, std::size_t end) {
    kernel->run(program, bindings, out_data, out_elements, begin, end);
  };
  queue.launch(launch);
}

}  // namespace dfg::runtime
