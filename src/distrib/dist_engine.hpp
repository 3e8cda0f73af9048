// Distributed layer: the distributed-memory parallel engine.
//
// Reproduces the paper's §IV-D3/§V-C experiment functionally: a global
// rectilinear mesh decomposed into sub-grids, one simulated MPI task per
// OpenCL device (two devices per node on Edge), multiple sub-grids
// processed per device, ghost data generated before execution, and the
// derived field assembled back into the global grid. Ranks execute
// in-process (sequentially), each against its own virtual device and
// profiling log, so the report can state per-rank and critical-path
// simulated times alongside the exchange traffic.
//
// Resilience is one mechanism: each block runs through the shared
// fallback ladder (runtime::execute_with_fallback), and a rank whose
// device is lost gets a fresh device on which the block re-runs. Any
// other error that escapes the ladder (a persistent DeviceTimeout or
// DataCorruption) fails the evaluation with that typed error, as it does
// from Engine; it never yields an assembled field.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "distrib/decomposition.hpp"
#include "distrib/ghost.hpp"
#include "kernels/backend.hpp"
#include "mesh/mesh.hpp"
#include "runtime/fallback.hpp"
#include "runtime/strategy.hpp"
#include "vcl/device.hpp"
#include "vcl/fault.hpp"

namespace dfg::distrib {

struct ClusterConfig {
  std::size_t nodes = 8;
  std::size_t devices_per_node = 2;  ///< one MPI task per device, as on Edge
  vcl::DeviceSpec device_spec;
  std::size_t ghost_width = 1;
  /// Per-block resilience, enabled by default: a block whose device fails
  /// degrades that block along the memory ladder (and a lost device is
  /// replaced) instead of failing the whole run — one bad allocation must
  /// not kill a 27-billion-cell evaluation.
  runtime::FallbackPolicy fallback = runtime::FallbackPolicy::resilient();
  /// Deterministic fault schedule armed on rank 0's device before
  /// execution (empty = no injection). Indices count across the whole
  /// evaluation, so a scheduled fault hits exactly one block.
  vcl::FaultPlan fault_plan;
  /// Execution backend armed on every rank's device (and replacement
  /// devices). Unset defers to DFGEN_BACKEND.
  std::optional<kernels::BackendKind> backend;
};

struct DistributedReport {
  std::vector<float> values;  ///< the derived field on the global grid
  std::size_t blocks = 0;
  std::size_t ranks = 0;
  std::size_t blocks_per_rank_max = 0;
  std::size_t ghost_messages = 0;
  std::size_t ghost_bytes = 0;
  /// Critical path: the slowest rank's simulated device time.
  double max_rank_sim_seconds = 0.0;
  /// Aggregate simulated device time across all ranks.
  double total_sim_seconds = 0.0;
  std::size_t total_dev_writes = 0;
  std::size_t total_dev_reads = 0;
  std::size_t total_kernel_execs = 0;
  /// Largest per-device memory high-water mark.
  std::size_t max_device_high_water = 0;
  /// Blocks that finished on a cheaper strategy than the requested one.
  std::size_t degraded_blocks = 0;
  /// Total rung transitions taken across all blocks.
  std::size_t strategy_degradations = 0;
  /// Devices lost mid-run and replaced (the affected block is re-run).
  std::size_t device_losses = 0;
  /// Injected faults / retried commands recorded across all rank logs.
  std::size_t injected_faults = 0;
  std::size_t command_retries = 0;
  /// Commands abandoned at their watchdog deadline (T-Out events).
  std::size_t command_timeouts = 0;
  /// Transfers whose destination checksum disagreed with the source
  /// (Chksum events); each was re-executed before any value propagated.
  std::size_t checksum_mismatches = 0;
  /// Fused-program cache traffic across the whole run. Every block of a
  /// distributed evaluation shares one pipeline, so misses stay O(1) while
  /// hits grow with the block count.
  std::size_t pipeline_cache_hits = 0;
  std::size_t pipeline_cache_misses = 0;
};

class DistributedEngine {
 public:
  /// The mesh must outlive the engine. The decomposition must match the
  /// mesh's cell dims.
  DistributedEngine(const mesh::RectilinearMesh& mesh,
                    GridDecomposition decomposition, ClusterConfig config);

  /// Binds a global cell-centered array (e.g. "u"). The view must stay
  /// valid until evaluate() returns. Mesh coordinates are bound
  /// automatically per block.
  void bind_global(const std::string& name, std::span<const float> values);

  DistributedReport evaluate(std::string_view expression,
                             runtime::StrategyKind strategy);

  /// Profiling logs of the most recent evaluation, one per rank; the
  /// report's device counters are their vcl::tally.
  const std::vector<vcl::ProfilingLog>& rank_logs() const {
    return rank_logs_;
  }

 private:
  const mesh::RectilinearMesh* mesh_;
  GridDecomposition decomposition_;
  ClusterConfig config_;
  std::map<std::string, std::span<const float>> global_arrays_;
  std::vector<vcl::ProfilingLog> rank_logs_;
};

}  // namespace dfg::distrib
