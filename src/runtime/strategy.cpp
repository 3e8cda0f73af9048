#include "runtime/strategy.hpp"

#include <memory>
#include <utility>

#include "kernels/backend.hpp"
#include "kernels/vm.hpp"
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
  switch (kind) {
    case StrategyKind::roundtrip:
      return std::make_unique<RoundtripStrategy>();
    case StrategyKind::staged:
      return std::make_unique<StagedStrategy>();
    case StrategyKind::fusion:
      return std::make_unique<FusionStrategy>();
    case StrategyKind::streamed:
      return std::make_unique<StreamedFusionStrategy>(streamed_chunk_cells);
  }
  throw Error("unknown strategy kind");
}

kernels::BufferBinding binding_of(const vcl::Buffer& buffer) {
  return kernels::BufferBinding{buffer.device_view().data(), buffer.size()};
}

std::shared_ptr<const vcl::Buffer> stage_input(
    vcl::CommandQueue& queue, std::span<const float> host,
    const std::string& label, bool poolable, const void* generation_key) {
  vcl::Device& device = queue.device();
  if (poolable) {
    if (std::shared_ptr<const vcl::Buffer> resident =
            device.resident().acquire(queue, host, label, generation_key)) {
      return resident;
    }
  }
  vcl::Buffer buffer = device.allocate(host.size());
  queue.write(buffer, host, label);
  return std::make_shared<const vcl::Buffer>(std::move(buffer));
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
