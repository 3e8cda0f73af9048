// Streamed-fusion execution strategy: the paper's first future-work item
// ("we plan to investigate the runtime performance of our execution
// strategies in a streaming context").
//
// Generates the same fused kernel as the fusion strategy but executes it
// over z-plane slabs whose working set fits a configurable device budget,
// re-uploading each slab's sub-ranges (plus gradient halo planes) and
// reading each slab's interior back. Device memory becomes O(chunk) instead
// of O(problem), so expressions whose fusion working set exceeds the device
// still run — at the price of extra transfers and dispatches. Interior
// results are bit-identical to single-kernel fusion.
#include <algorithm>
#include <memory>

#include "kernels/generator.hpp"
#include "kernels/program_cache.hpp"
#include "runtime/slab.hpp"
#include "runtime/strategy.hpp"
#include "support/error.hpp"

namespace dfg::runtime {

StreamedFusionStrategy::StreamedFusionStrategy(std::size_t max_chunk_cells)
    : max_chunk_cells_(max_chunk_cells) {}

std::size_t StreamedFusionStrategy::pick_chunk_planes(
    const SlabPlan& plan, const kernels::Program& program,
    vcl::Device& device) const {
  std::size_t budget_cells;
  if (max_chunk_cells_ != 0) {
    budget_cells = max_chunk_cells_;
  } else {
    // Auto: target half the device's free memory for the slab working set
    // (inputs + output), leaving room for the host's other buffers. The
    // effective headroom respects an injected synthetic capacity, so a
    // degraded run sizes its chunks to the capacity that actually binds.
    const std::size_t budget_bytes = device.effective_available() / 2;
    const std::size_t bytes_per_cell =
        (plan.slabbed_params + program.out_stride()) * sizeof(float);
    budget_cells = budget_bytes / std::max<std::size_t>(bytes_per_cell, 1);
  }
  return chunk_planes_for(plan, budget_cells);
}

std::vector<float> StreamedFusionStrategy::execute(
    const dataflow::Network& network, const FieldBindings& bindings,
    std::size_t elements, vcl::Device& device, vcl::ProfilingLog& log) const {
  const std::shared_ptr<const kernels::FusedPipeline> pipeline =
      kernels::ProgramCache::instance().fused_single(network);
  executed_pipeline_ = pipeline;
  const kernels::Program& program = pipeline->stages.front().program;
  const SlabPlan plan = make_slab_plan(program, bindings, elements);
  const std::vector<SlabParam> params =
      resolve_slab_params(program, bindings);

  std::vector<float> result(elements, 0.0f);
  const std::size_t chunk_planes = pick_chunk_planes(plan, program, device);
  for (std::size_t begin = 0; begin < plan.total_planes;
       begin += chunk_planes) {
    const std::size_t end =
        std::min(plan.total_planes, begin + chunk_planes);
    run_fused_slab(program, params, plan, begin, end, device, log, result);
  }
  return result;
}

}  // namespace dfg::runtime
