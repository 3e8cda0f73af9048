#include "runtime/planner.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "kernels/generator.hpp"
#include "kernels/program_cache.hpp"
#include "runtime/fallback.hpp"
#include "runtime/slab.hpp"
#include "runtime/walk.hpp"
#include "support/error.hpp"
#include "vcl/cost_model.hpp"

namespace dfg::runtime {

namespace {

/// Records the command stream of `kind`'s own walk on `tally`.
void walk(const dataflow::Network& network, const FieldBindings& bindings,
          std::size_t elements, StrategyKind kind,
          std::size_t streamed_chunk_cells, Tally& tally) {
  kernels::ProgramCache& cache = kernels::ProgramCache::instance();
  switch (kind) {
    case StrategyKind::roundtrip:
      return walk_roundtrip(network, bindings, elements, tally);
    case StrategyKind::staged:
      return walk_staged(network, bindings, elements, tally);
    case StrategyKind::fusion:
      return walk_fusion(network, *cache.fused_pipeline(network), bindings,
                         elements, tally);
    case StrategyKind::streamed: {
      const std::shared_ptr<const kernels::FusedPipeline> pipeline =
          cache.fused_single(network);
      const kernels::Program& program = pipeline->stages.front().program;
      const SlabPlan plan = make_slab_plan(program, bindings, elements);
      return walk_streamed(program, plan,
                           chunk_planes_for(plan, streamed_chunk_cells),
                           bindings, tally);
    }
  }
  throw Error("unknown strategy kind");
}

}  // namespace

std::size_t estimate_high_water(const dataflow::Network& network,
                                const FieldBindings& bindings,
                                std::size_t elements, StrategyKind kind,
                                std::size_t streamed_chunk_cells) {
  Tally tally;
  walk(network, bindings, elements, kind, streamed_chunk_cells, tally);
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
  walk(network, bindings, elements, kind, streamed_chunk_cells, tally);
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
  // The memory ladder is the preference order (measured simulated
  // runtime). Streamed is skipped (KernelError) on networks it cannot
  // execute, e.g. gradients of computed values.
  for (const StrategyKind kind : kMemoryLadder) {
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
