// Runtime layer: memory planning and automatic strategy selection.
//
// The paper's discussion (§V-D) concludes that hosts must "select from
// multiple execution strategies and target devices" under memory
// constraints. This module makes that selection analytical: it runs each
// strategy's own device walk (runtime/walk.hpp, the code Strategy::execute
// runs) against a Tally target, which records the allocations, releases,
// transfers and launches in the order the strategy issues them without
// executing any — no trial allocation, no field value read. One walk per
// strategy yields both estimates: the device-memory high-water mark and,
// priced by the cost model, the simulated duration. Both equal what the
// executed strategy measures on the cold path (locked in by tests), so a
// host can pick the fastest strategy that fits before moving a single
// byte.
#pragma once

#include <cstddef>
#include <optional>

#include "dataflow/network.hpp"
#include "runtime/bindings.hpp"
#include "runtime/strategy.hpp"
#include "vcl/device.hpp"

namespace dfg::runtime {

/// Predicted device-memory high-water mark (bytes) of executing `network`
/// over `elements` cells under `kind`. For the streamed strategy the
/// prediction assumes the given chunk size (0 = the minimal viable chunk,
/// i.e. the strategy's memory floor; see Tally::chunk_planes). Bindings
/// are consulted for array extents only; no data is read. Throws
/// KernelError where `kind` cannot execute the network (see
/// estimate_sim_seconds).
std::size_t estimate_high_water(const dataflow::Network& network,
                                const FieldBindings& bindings,
                                std::size_t elements, StrategyKind kind,
                                std::size_t streamed_chunk_cells = 0);

/// Predicted simulated duration (seconds) of executing `network` over
/// `elements` cells under `kind` on a device described by `spec`, with
/// kernels priced at `compute_efficiency` — the executing backend's
/// fraction of peak flop rate (ExecutionBackend::compute_efficiency). The
/// memo layer prices subtrees with this.
///
/// The estimate equals the executed strategy's simulated time: both run
/// runtime::walk, with the same cost model. Streamed chunk sizing is the
/// one target operation that differs, for chunk 0 only (Tally::chunk_planes
/// against DeviceTarget::chunk_planes); pass an explicit chunk to predict
/// an explicitly chunked run.
///
/// Both estimators throw KernelError when `kind` cannot execute the
/// network (streamed on gradients of computed values), and NetworkError
/// on bindings the walk refuses (an unbound field, or one read over the
/// grid that is too short), exactly as the strategy would.
double estimate_sim_seconds(const dataflow::Network& network,
                            const FieldBindings& bindings,
                            std::size_t elements, const vcl::DeviceSpec& spec,
                            StrategyKind kind,
                            std::size_t streamed_chunk_cells,
                            double compute_efficiency);

/// estimate_high_water of ladder rung `kind` at its memory floor, or
/// nullopt when the rung cannot run this network (KernelError, e.g.
/// streamed on gradients of computed values). The one rule by which the
/// planner and admission skip a rung; other errors propagate.
std::optional<std::size_t> rung_high_water(const dataflow::Network& network,
                                           const FieldBindings& bindings,
                                           std::size_t elements,
                                           StrategyKind kind);

/// The fastest strategy whose predicted working set fits the device's
/// *free* memory, in kMemoryLadder order fusion > streamed > staged >
/// roundtrip (the simulated-runtime ordering measured in the benchmarks).
/// Throws DeviceOutOfMemory when none fits.
StrategyKind select_strategy(const dataflow::Network& network,
                             const FieldBindings& bindings,
                             std::size_t elements, const vcl::Device& device);

}  // namespace dfg::runtime
