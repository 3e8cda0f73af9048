// Service layer: admission control.
//
// Backpressure with a reason attached. A request is admitted only when
//   * the bounded queue has room (max_queue_depth), and
//   * the projected device-memory *floor* of the request — the smallest
//     planner-estimated high-water over the rungs the fallback policy may
//     execute — fits at least one device's hard capacity (a request no
//     rung can ever run is refused up front, not after queueing).
// The projections reuse runtime::estimate_high_water, which is bit-exact
// against the memory tracker, so admission never refuses a request that
// would in fact have fit, and never admits one that cannot.
#pragma once

#include <cstddef>
#include <string>

#include "dataflow/network.hpp"
#include "runtime/bindings.hpp"
#include "runtime/strategy.hpp"

namespace dfg::service {

/// The smallest planner-projected device high-water (bytes) over the
/// ladder rungs reachable from `requested`: just `requested` itself when
/// `fallback_enabled` is false, otherwise every rung at or below it.
/// Rungs that cannot execute this network (runtime::rung_high_water
/// returns nullopt) are skipped; SIZE_MAX means no rung could be
/// estimated — admission then lets execution produce the canonical error
/// instead of guessing.
std::size_t projected_floor_bytes(const dataflow::Network& network,
                                  const runtime::FieldBindings& bindings,
                                  std::size_t elements,
                                  runtime::StrategyKind requested,
                                  bool fallback_enabled);

}  // namespace dfg::service
