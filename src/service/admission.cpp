#include "service/admission.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "runtime/fallback.hpp"
#include "runtime/planner.hpp"

namespace dfg::service {

std::size_t projected_floor_bytes(const dataflow::Network& network,
                                  const runtime::FieldBindings& bindings,
                                  std::size_t elements,
                                  runtime::StrategyKind requested,
                                  bool fallback_enabled) {
  std::size_t floor = std::numeric_limits<std::size_t>::max();
  const std::size_t first = runtime::ladder_position(requested);
  const std::size_t last =
      fallback_enabled ? std::size(runtime::kMemoryLadder) : first + 1;
  for (std::size_t i = first; i < last; ++i) {
    // A rung that cannot run this network is skipped, as the ladder would.
    if (const std::optional<std::size_t> needed = runtime::rung_high_water(
            network, bindings, elements, runtime::kMemoryLadder[i])) {
      floor = std::min(floor, *needed);
    }
  }
  return floor;
}

}  // namespace dfg::service
