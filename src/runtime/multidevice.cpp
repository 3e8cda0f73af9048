#include "runtime/multidevice.hpp"

#include <algorithm>
#include <memory>

#include "kernels/generator.hpp"
#include "kernels/program_cache.hpp"
#include "runtime/slab.hpp"
#include "support/error.hpp"

namespace dfg::runtime {

MultiDeviceReport execute_multi_device_fusion(
    const dataflow::Network& network, const FieldBindings& bindings,
    std::size_t elements, std::vector<vcl::Device*> devices,
    std::vector<vcl::ProfilingLog>& logs) {
  if (devices.empty()) {
    throw NetworkError("multi-device execution requires at least one device");
  }
  if (logs.size() != devices.size()) {
    throw NetworkError("multi-device execution needs one log per device");
  }

  const std::shared_ptr<const kernels::FusedPipeline> pipeline =
      kernels::ProgramCache::instance().fused_single(network);
  const kernels::Program& program = pipeline->stages.front().program;
  const SlabPlan plan = make_slab_plan(program, bindings, elements);
  const std::vector<SlabParam> params =
      resolve_slab_params(program, bindings);

  MultiDeviceReport report;
  report.values.assign(elements, 0.0f);

  // Contiguous plane ranges, near-even split; trailing devices may idle
  // when there are fewer planes than devices.
  const std::size_t device_count = devices.size();
  const std::size_t base = plan.total_planes / device_count;
  const std::size_t extra = plan.total_planes % device_count;
  std::size_t begin = 0;
  for (std::size_t d = 0; d < device_count; ++d) {
    const std::size_t span = base + (d < extra ? 1 : 0);
    if (span == 0) continue;
    const std::size_t end = begin + span;
    run_fused_slab(program, params, plan, begin, end, *devices[d],
                   logs[d], report.values);
    begin = end;
    ++report.devices_used;
  }

  report.device_sim_seconds.reserve(device_count);
  for (const vcl::ProfilingLog& log : logs) {
    const double sim = log.total_sim_seconds();
    report.device_sim_seconds.push_back(sim);
    report.critical_path_sim_seconds =
        std::max(report.critical_path_sim_seconds, sim);
    report.aggregate_sim_seconds += sim;
  }
  return report;
}

}  // namespace dfg::runtime
