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

#include <set>
#include <string>

#include "dataflow/network.hpp"
#include "runtime/bindings.hpp"
#include "runtime/strategy.hpp"
#include "vcl/device.hpp"

namespace dfg::runtime {

/// Which of a network's field inputs are warm — already resident on the
/// target device, so a strategy would eliminate their uploads entirely.
/// Passed to the estimators (nullptr = all-cold, the historical behaviour,
/// bit-exact against the tracker with the pool disabled). The streamed
/// estimators deliberately ignore residency: slab sub-ranges are keyed per
/// chunk, so warmth there depends on chunk alignment — pricing them cold
/// keeps streamed estimates conservative.
struct Residency {
  std::set<std::string> warm;

  bool is_warm(const std::string& name) const {
    return warm.count(name) != 0;
  }

  /// Asks the device's resident pool which of `network`'s bound fields
  /// would hit right now. Empty when the pool is disabled.
  static Residency probe(const vcl::Device& device,
                         const FieldBindings& bindings,
                         const dataflow::Network& network);
};

/// Predicted device-memory high-water mark (bytes) of executing `network`
/// over `elements` cells under `kind`. For the streamed strategy the
/// prediction assumes the given chunk size (0 = the minimal viable chunk,
/// i.e. the strategy's memory floor). Bindings are consulted for array
/// extents only; no data is read. With `residency`, warm field inputs are
/// excluded from the working set (their buffers already exist; the
/// device's free memory already accounts for them).
std::size_t estimate_high_water(const dataflow::Network& network,
                                const FieldBindings& bindings,
                                std::size_t elements, StrategyKind kind,
                                std::size_t streamed_chunk_cells = 0,
                                const Residency* residency = nullptr);

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
/// `compute_efficiency` (here and in select_fastest_strategy below) is
/// the executing backend's fraction of peak flop rate; 0 resolves the
/// process-default backend (DFGEN_BACKEND), which is what an engine-less
/// caller executes under — so default-arg estimates stay bit-exact
/// against measured simulated time whichever backend the environment
/// names. Engines pass their device's pinned backend explicitly.
double estimate_sim_seconds(const dataflow::Network& network,
                            const FieldBindings& bindings,
                            std::size_t elements, const vcl::DeviceSpec& spec,
                            StrategyKind kind,
                            std::size_t streamed_chunk_cells = 0,
                            const Residency* residency = nullptr,
                            double compute_efficiency = 0.0);

/// The fastest strategy whose predicted working set fits the device's
/// *free* memory, in preference order fusion > streamed > staged >
/// roundtrip (the simulated-runtime ordering measured in the benchmarks).
/// Throws DeviceOutOfMemory when none fits.
StrategyKind select_strategy(const dataflow::Network& network,
                             const FieldBindings& bindings,
                             std::size_t elements, const vcl::Device& device);

/// Residency-aware selection: among the strategies whose residency-aware
/// working set fits the device's free memory, the one with the smallest
/// residency-aware simulated-time estimate (ties break in the preference
/// order select_strategy uses). With warm inputs this can legitimately
/// invert the static order — e.g. prefer a warm staged/roundtrip run,
/// whose uploads vanish, over a cold fusion. Throws DeviceOutOfMemory when
/// nothing fits.
StrategyKind select_fastest_strategy(const dataflow::Network& network,
                                     const FieldBindings& bindings,
                                     std::size_t elements,
                                     const vcl::Device& device,
                                     const Residency* residency = nullptr,
                                     double compute_efficiency = 0.0);

}  // namespace dfg::runtime
