#include "runtime/planner.hpp"

#include <algorithm>
#include <cstdint>

#include "runtime/fallback.hpp"
#include "runtime/walk.hpp"
#include "support/error.hpp"
#include "vcl/cost_model.hpp"

namespace dfg::runtime {

std::size_t estimate_high_water(const dataflow::Network& network,
                                const FieldBindings& bindings,
                                std::size_t elements, StrategyKind kind,
                                std::size_t streamed_chunk_cells) {
  Tally tally;
  walk(kind, network, bindings, elements, streamed_chunk_cells, tally);
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
  walk(kind, network, bindings, elements, streamed_chunk_cells, tally);
  return tally.seconds();
}

std::optional<std::size_t> rung_high_water(const dataflow::Network& network,
                                           const FieldBindings& bindings,
                                           std::size_t elements,
                                           StrategyKind kind) {
  try {
    return estimate_high_water(network, bindings, elements, kind);
  } catch (const KernelError&) {
    return std::nullopt;
  }
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
  // runtime). A rung that cannot run the network is skipped.
  for (const StrategyKind kind : kMemoryLadder) {
    const std::optional<std::size_t> needed =
        rung_high_water(network, bindings, elements, kind);
    if (!needed) continue;
    if (*needed <= free_bytes) return kind;
    smallest = std::min(smallest, *needed);
  }
  throw DeviceOutOfMemory(device.spec().name, smallest,
                          device.memory().in_use(),
                          device.memory().capacity());
}

}  // namespace dfg::runtime
