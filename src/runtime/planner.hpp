// Runtime layer: memory planning and automatic strategy selection.
//
// The paper's discussion (§V-D) concludes that hosts must "select from
// multiple execution strategies and target devices" under memory
// constraints. This module makes that selection analytical: it predicts
// each strategy's device-memory high-water mark from the network alone —
// no execution, no trial allocation — by replaying the exact allocation
// discipline each strategy implements. Predictions are bit-for-bit equal
// to the tracker's measured high-water (locked in by tests), so a host can
// pick the fastest strategy that fits before moving a single byte.
#pragma once

#include <cstddef>

#include "dataflow/network.hpp"
#include "runtime/bindings.hpp"
#include "runtime/strategy.hpp"
#include "vcl/device.hpp"

namespace dfg::runtime {

/// Predicted device-memory high-water mark (bytes) of executing `network`
/// over `elements` cells under `kind`. For the streamed strategy the
/// prediction assumes the given chunk size (0 = the minimal viable chunk,
/// i.e. the strategy's memory floor). Bindings are consulted for array
/// extents only; no data is read.
std::size_t estimate_high_water(const dataflow::Network& network,
                                const FieldBindings& bindings,
                                std::size_t elements, StrategyKind kind,
                                std::size_t streamed_chunk_cells = 0);

/// Predicted simulated duration (seconds) of executing `network` over
/// `elements` cells under `kind` on a device described by `spec` —
/// obtained by replaying the strategy's command stream against the cost
/// model, without executing anything. The memo layer prices subtrees with
/// this. For the streamed strategy on a network it cannot execute, the
/// fusion estimate is returned (the rung the fallback ladder would skip
/// to).
///
/// The estimate equals the executed strategy's simulated time exactly
/// (same cost model, same event sequence) with one deliberate exception:
/// a streamed estimate with `streamed_chunk_cells` = 0 prices one-plane
/// chunks (the strategy's memory floor), while a streamed run with chunk
/// 0 auto-sizes its chunks to half the device's free memory, so the two
/// differ. Pass an explicit chunk to predict an explicitly chunked run.
///
/// `compute_efficiency` is the executing backend's fraction of peak flop
/// rate; 0 resolves the process-default backend (DFGEN_BACKEND), which is
/// what an engine-less caller executes under — so default-arg estimates
/// stay bit-exact against measured simulated time whichever backend the
/// environment names. Engines pass their device's pinned backend
/// explicitly.
double estimate_sim_seconds(const dataflow::Network& network,
                            const FieldBindings& bindings,
                            std::size_t elements, const vcl::DeviceSpec& spec,
                            StrategyKind kind,
                            std::size_t streamed_chunk_cells = 0,
                            double compute_efficiency = 0.0);

/// The fastest strategy whose predicted working set fits the device's
/// *free* memory, in preference order fusion > streamed > staged >
/// roundtrip (the simulated-runtime ordering measured in the benchmarks).
/// Throws DeviceOutOfMemory when none fits.
StrategyKind select_strategy(const dataflow::Network& network,
                             const FieldBindings& bindings,
                             std::size_t elements, const vcl::Device& device);

}  // namespace dfg::runtime
