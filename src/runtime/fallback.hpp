// Runtime layer: automatic strategy degradation.
//
// The paper's §V-D concludes that hosts must "select from multiple
// execution strategies and target devices" under memory constraints; its
// own GPU evaluation simply aborts the cells that do not fit. This module
// closes that gap at runtime: when a strategy fails, the engine degrades
// along the paper-ordered memory ladder
//
//     fusion → streamed → staged → roundtrip
//
// re-planning the evaluation on the next rung. Each rung trades simulated
// speed for a different (ultimately host-resident) memory discipline, so
// the final rung — roundtrip, whose device footprint is one kernel's
// working set — succeeds whenever any strategy can. The ladder is reactive:
// a rung's partially-written device state unwinds via buffer RAII before
// the next rung re-plans, so degradation is safe mid-execution, not just at
// admission time.
//
// Failure handling per error type:
//   * DeviceOutOfMemory — degrade to the next rung (the working set was
//     too big; lower rungs hold less on the device).
//   * DeviceError (transient) — the CommandQueue already retried the
//     failed command with bounded, seeded backoff; if the error still
//     escapes, degrade.
//   * DeviceTimeout — the queue's watchdog abandoned the command at its
//     deadline and already retried it; if it still escapes (a persistent
//     slowdown), degrade. A timeout on the last rung propagates.
//   * DataCorruption — propagates. The queue already re-executed the
//     corrupted transfer within its retry budget; corruption that
//     persists is a device problem no cheaper strategy fixes, so it
//     reaches the caller as a typed error.
//   * KernelError on a rung we degraded *into* — the rung is structurally
//     unsupported (e.g. streamed cannot execute gradients of computed
//     values); skip to the next rung. On the rung the caller requested the
//     error propagates unchanged.
//   * DeviceLost — propagates: no rung can run on a lost device. The
//     DistributedEngine recovers above this layer by replacing the device.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/network.hpp"
#include "kernels/generator.hpp"
#include "runtime/bindings.hpp"
#include "runtime/strategy.hpp"
#include "vcl/device.hpp"
#include "vcl/fault.hpp"
#include "vcl/profiling.hpp"

namespace dfg::runtime {

/// Governs degradation and command retries for one engine / one cluster.
struct FallbackPolicy {
  /// Off by default for the single-device Engine: strict mode preserves
  /// the paper's abort-at-capacity semantics (benchmarks chart the failed
  /// cells). The DistributedEngine defaults it on.
  bool enabled = false;
  /// Watchdog deadline: a command charged more than this many times its
  /// cost-model estimate is abandoned with DeviceTimeout. Installed on the
  /// device at execution time (vcl::Device::set_watchdog_factor); <= 0
  /// disables slowdown detection (hangs still time out).
  double deadline_factor = 8.0;
  /// Command-level retry behaviour, installed on the device at execution
  /// time and applied by the CommandQueue.
  vcl::RetryPolicy retry;

  /// The resilient preset: degradation on, default retries.
  static FallbackPolicy resilient() {
    FallbackPolicy policy;
    policy.enabled = true;
    return policy;
  }
};

/// One rung transition, with the error text that forced it.
struct DegradationRecord {
  StrategyKind from{};
  StrategyKind to{};
  std::string reason;
};

struct FallbackOutcome {
  std::vector<float> values;
  /// The rung that actually produced `values`.
  StrategyKind executed{};
  /// The fused pipeline that rung ran (fusion and streamed; null for the
  /// per-primitive rungs).
  std::shared_ptr<const kernels::FusedPipeline> pipeline;
  std::vector<DegradationRecord> degradations;
};

/// The ladder, in degradation order. Position in this array defines which
/// rungs a requested strategy may degrade to (everything after it).
inline constexpr StrategyKind kMemoryLadder[] = {
    StrategyKind::fusion, StrategyKind::streamed, StrategyKind::staged,
    StrategyKind::roundtrip};

/// Index of `kind` in kMemoryLadder.
std::size_t ladder_position(StrategyKind kind);

/// Executes `network` starting at `requested`, degrading along the ladder
/// per `policy`. Each rung runs runtime::walk on a DeviceTarget, as
/// Strategy::execute does, so with the policy disabled this equals
/// make_strategy(requested, streamed_chunk_cells)->execute(...): same
/// command stream, same result, same errors (a test holds it to that).
/// Throws the last rung's error when no rung succeeds.
/// On return and on a throw alike, the events this call appended to `log`
/// are published to the device's dfgen_vcl_* series. Every evaluation path
/// runs here, so the series count each device event once; a strategy run
/// directly (benches, run_reference) feeds only its log.
FallbackOutcome execute_with_fallback(const dataflow::Network& network,
                                      const FieldBindings& bindings,
                                      std::size_t elements,
                                      vcl::Device& device,
                                      vcl::ProfilingLog& log,
                                      StrategyKind requested,
                                      const FallbackPolicy& policy,
                                      std::size_t streamed_chunk_cells = 0);

}  // namespace dfg::runtime
