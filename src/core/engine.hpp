// Core layer: the host interface.
//
// The paper's §III-D: a host application (there, VisIt; here, any C++
// code) binds views of its existing field arrays, hands the framework an
// expression string, and receives the derived field plus a report of the
// device events, simulated runtime and device memory high-water mark —
// the quantities the paper's three evaluation studies chart. The engine is
// designed for in-situ use: bound arrays are never copied on the host
// side, and one engine is reused across time steps (rebinding is cheap).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dataflow/spec.hpp"
#include "kernels/backend.hpp"
#include "mesh/mesh.hpp"
#include "runtime/bindings.hpp"
#include "runtime/fallback.hpp"
#include "runtime/strategy.hpp"
#include "vcl/device.hpp"
#include "vcl/profiling.hpp"

namespace dfg {

struct EngineOptions {
  runtime::StrategyKind strategy = runtime::StrategyKind::fusion;
  dataflow::SpecOptions spec_options;
  /// Streamed strategy only: target cells per chunk (0 = auto-size from
  /// the device's free memory).
  std::size_t streamed_chunk_cells = 0;
  /// Degradation and retry behaviour. Disabled by default: a strategy that
  /// does not fit throws DeviceOutOfMemory, matching the paper's aborted
  /// GPU cells. Enable it to degrade along fusion → streamed → staged →
  /// roundtrip instead; the report then lists every rung transition.
  runtime::FallbackPolicy fallback;
  /// Keep bound field uploads resident on the device across evaluations
  /// (vcl::ResidentPool): repeated evaluations over the same arrays skip
  /// their host-to-device transfers. Off by default — the cold path is
  /// byte-identical to previous releases. Callers that mutate a bound
  /// array between evaluations must call Engine::invalidate (or
  /// vcl::note_host_mutation); the stale device copy is dropped at the
  /// next evaluation that binds it, before its replacement is uploaded.
  bool resident_pool = false;
  /// Execution backend for this engine's device: the tiled VM interpreter
  /// (`vm`), native code compiled per program on its first launch
  /// (`jit`), or `auto_select` (tiered: the VM until a program's native
  /// code is ready; a program launched twice is compiled off the calling
  /// thread; per-program fallback to the VM). Unset defers to
  /// DFGEN_BACKEND, read per evaluation; set, it overrides the env for
  /// this engine's device.
  std::optional<kernels::BackendKind> backend;
};

/// One strategy-degradation step taken during an evaluation, in
/// human-readable form (strategy names plus the error that forced it).
struct DegradationStep {
  std::string from;
  std::string to;
  std::string reason;
};

/// Everything one evaluation produced. `values` is the derived field
/// (elements floats); the remaining members snapshot the profiling state
/// for this evaluation only; the device-event counters tally its log.
struct EvaluationReport {
  std::vector<float> values;
  std::string output_name;
  std::size_t elements = 0;

  /// The strategy that actually produced `values` — the requested one, or
  /// the rung the engine degraded to.
  std::string strategy;
  /// The execution backend the device was armed with ("vm", "jit", ...).
  /// Note a jit device may still have run individual programs on the VM if
  /// their compiles failed — see dfgen_jit_fallbacks_total — and an auto
  /// device runs a program on the VM until its background compile has
  /// landed — see dfgen_jit_deferred_launches_total.
  std::string backend;
  std::size_t dev_writes = 0;   ///< host-to-device transfers (Dev-W)
  std::size_t dev_reads = 0;    ///< device-to-host transfers (Dev-R)
  std::size_t kernel_execs = 0; ///< kernel dispatches (K-Exe)
  double sim_seconds = 0.0;     ///< cost-model device time
  double wall_seconds = 0.0;    ///< host wall-clock time of device ops
  std::size_t memory_high_water_bytes = 0;

  /// Every rung transition the fallback policy took, in order. Empty when
  /// the requested strategy ran to completion.
  std::vector<DegradationStep> degradations;
  /// Commands re-enqueued after a transient injected fault.
  std::size_t command_retries = 0;
  /// Faults the armed FaultPlan injected during this evaluation.
  std::size_t injected_faults = 0;
  /// Commands abandoned at their watchdog deadline (T-Out events).
  std::size_t command_timeouts = 0;
  /// Transfers whose destination checksum disagreed with the source
  /// (Chksum events); each was re-executed before values propagated.
  std::size_t checksum_mismatches = 0;

  /// Fused-program cache traffic during this evaluation: requests served
  /// from the process-wide cache vs. requests that ran the generator.
  /// Steady-state re-evaluation of the same expression shows zero misses.
  std::size_t pipeline_cache_hits = 0;
  std::size_t pipeline_cache_misses = 0;

  /// Resident-buffer pool traffic during this evaluation (all zero while
  /// the pool is disabled). A hit is an input upload eliminated entirely;
  /// upload_bytes_saved totals the bytes those transfers would have moved.
  /// An invalidation is a stale entry (its array announced as mutated
  /// since the upload) dropped by this evaluation's acquire.
  std::size_t resident_hits = 0;
  std::size_t resident_misses = 0;
  std::size_t resident_evictions = 0;
  std::size_t resident_invalidations = 0;
  std::size_t resident_upload_bytes_saved = 0;

  /// The network-definition script (inspectable, per the paper's §III-B1).
  std::string network_script;
  /// Generated OpenCL-like source of the fused kernels the fusion or
  /// streamed strategy ran (empty for the other strategies).
  std::string kernel_source;
};

/// Thread-safety contract (relied on by service::EvalService): one Engine
/// instance must be driven by one thread at a time, but concurrent
/// evaluate() calls on *distinct engines bound to distinct devices* are
/// safe. Everything an evaluation mutates is engine-local (bindings, log)
/// or device-local (memory tracker, fault injector, watchdog/retry
/// policies — the device must not be shared across engines evaluating
/// concurrently); the only process-wide state touched is the
/// kernels::ProgramCache, which is internally synchronized and whose
/// traffic is attributed per thread (thread_stats).
class Engine {
 public:
  /// The device must outlive the engine.
  explicit Engine(vcl::Device& device, EngineOptions options = {});

  /// Binds (or rebinds) a named host array; the view must stay valid
  /// across evaluations that use it.
  void bind(const std::string& name, std::span<const float> values);

  /// Binds a mesh's x/y/z/dims arrays and makes its cell count the default
  /// element count. The mesh must outlive the engine's evaluations.
  void bind_mesh(const mesh::RectilinearMesh& mesh);

  void set_strategy(runtime::StrategyKind kind);
  runtime::StrategyKind strategy() const { return options_.strategy; }

  /// Declares that the host mutated (or replaced) the named bound array:
  /// bumps its generation tag, the resident pool's only coherence signal,
  /// so the next evaluation drops the stale device copy and re-uploads.
  /// Touches no device state and is safe from any thread. Required for
  /// correctness whenever the resident pool is enabled and a bound array
  /// changes in place; harmless (and a no-op on unbound names) otherwise.
  void invalidate(const std::string& name);

  /// Evaluates an expression script over an explicit output element count.
  EvaluationReport evaluate(std::string_view expression, std::size_t elements);

  /// Evaluates a pre-built network over an explicit output element count.
  /// evaluate(expression, elements) is this after parsing; the memo layer
  /// calls it directly with rewritten networks (extracted subtrees,
  /// spliced consumers) that have no expression-string form.
  EvaluationReport evaluate_network(const dataflow::Network& network,
                                    std::size_t elements);

  /// Evaluates using the mesh cell count when a mesh is bound, otherwise
  /// the extent of the first bound field the expression uses.
  EvaluationReport evaluate(std::string_view expression);

  vcl::Device& device() { return *device_; }
  const runtime::FieldBindings& bindings() const { return bindings_; }
  /// Profiling log of the most recent evaluation.
  const vcl::ProfilingLog& log() const { return log_; }

 private:
  vcl::Device* device_;
  EngineOptions options_;
  runtime::FieldBindings bindings_;
  vcl::ProfilingLog log_;
  std::size_t default_elements_ = 0;
};

}  // namespace dfg
