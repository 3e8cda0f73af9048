// Virtual compute layer: device model.
//
// The paper executes on OpenCL 1.1 devices (an Intel Xeon X5660 CPU runtime
// and an NVIDIA Tesla M2050 GPU). This module substitutes a *virtual* OpenCL
// device: it reproduces the parts of the OpenCL device model the paper's
// evaluation depends on —
//   * a global memory pool with a hard capacity, enforced at buffer
//     allocation time (the source of the paper's failed GPU test cases),
//   * allocation tracking with a high-water mark (Figure 6's metric),
//   * a performance envelope (bandwidths, flop rate, overheads) consumed by
//     the cost model to attribute simulated durations to profiling events
//     (Figure 5's metric).
// Kernels genuinely execute on the host, so results are numerically real;
// only the *timing* is simulated.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "vcl/fault.hpp"
#include "vcl/resident_pool.hpp"

namespace dfg::kernels {
class ExecutionBackend;
}  // namespace dfg::kernels

namespace dfg::vcl {

enum class DeviceType { cpu, gpu };

/// Static description of a virtual OpenCL device. The performance fields
/// parameterise the cost model; the capacity field parameterises the
/// allocator.
struct DeviceSpec {
  std::string name;
  DeviceType type = DeviceType::cpu;
  /// Hard capacity of device global memory, enforced by the allocator.
  std::size_t global_mem_bytes = 0;
  int compute_units = 1;
  /// Host<->device transfer bandwidth (GB/s) and per-transfer latency (us).
  /// For a CPU device the "transfer" is a host-side copy, so bandwidth is
  /// high and latency low; for a GPU it models the PCIe link.
  double transfer_gbps = 1.0;
  double transfer_latency_us = 0.0;
  /// Device global memory streaming bandwidth (GB/s).
  double global_mem_gbps = 1.0;
  /// Peak single-precision throughput (GFLOP/s).
  double gflops = 1.0;
  /// Fixed overhead charged per kernel dispatch (us).
  double launch_overhead_us = 0.0;
  /// Per-work-item register budget before the cost model charges a spill
  /// penalty (mirrors the paper's note that fused kernels must avoid
  /// spilling local registers into global memory).
  int register_budget = 64;
};

/// Tracks live device allocations against a capacity and records the
/// high-water mark. reserve() throws DeviceOutOfMemory when the capacity
/// would be exceeded, leaving the tracker unchanged.
///
/// Internally synchronized: a pooled device buffer is freed by whichever
/// thread drops its last handle (vcl::ResidentPool), which need not be the
/// thread driving the device, so reserve/release must tolerate concurrent
/// callers.
class MemoryTracker {
 public:
  MemoryTracker(std::string device_name, std::size_t capacity_bytes)
      : device_name_(std::move(device_name)), capacity_(capacity_bytes) {}
  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  void reserve(std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (bytes > capacity_ - in_use_) {
      throw DeviceOutOfMemory(device_name_, bytes, in_use_, capacity_);
    }
    in_use_ += bytes;
    if (in_use_ > high_water_) high_water_ = in_use_;
  }

  void release(std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    in_use_ = bytes > in_use_ ? 0 : in_use_ - bytes;
  }

  std::size_t in_use() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return in_use_;
  }
  std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return high_water_;
  }
  std::size_t capacity() const { return capacity_; }
  std::size_t available() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return capacity_ - in_use_;
  }

  /// Resets the high-water mark to the current usage (used between test
  /// cases; live buffers keep counting).
  void reset_high_water() {
    std::lock_guard<std::mutex> lock(mutex_);
    high_water_ = in_use_;
  }

 private:
  std::string device_name_;
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::size_t in_use_ = 0;
  std::size_t high_water_ = 0;
};

/// Host storage of released buffers, kept for the next allocation of the
/// same element count (vcl/buffer.hpp): at most kMaxBlocks, the oldest
/// dropped first. Internally synchronized, like the tracker.
class SpareBlocks {
 public:
  static constexpr std::size_t kMaxBlocks = 4;

  SpareBlocks() = default;
  SpareBlocks(const SpareBlocks&) = delete;
  SpareBlocks& operator=(const SpareBlocks&) = delete;
  ~SpareBlocks();

  /// The newest spare of exactly `elements` floats, else an empty vector.
  std::vector<float> take(std::size_t elements);
  void give(std::vector<float> block);
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::vector<float>> blocks_;  // oldest first
};

class Buffer;

/// A virtual OpenCL device: a spec plus an allocator. Buffers reference the
/// device that created them and must not outlive it. Released storage waits
/// in spares() (at most SpareBlocks::kMaxBlocks blocks) for the next buffer
/// of its size, so an in-situ allocate/release loop stops page-faulting.
class Device {
 public:
  explicit Device(DeviceSpec spec)
      : spec_(std::move(spec)),
        memory_(spec_.name, spec_.global_mem_bytes),
        fault_(spec_.name),
        resident_(*this) {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceSpec& spec() const { return spec_; }
  MemoryTracker& memory() { return memory_; }
  const MemoryTracker& memory() const { return memory_; }

  /// Fault-injection state: arm a FaultPlan here to synthesize allocation
  /// failures, transient command errors, or whole-device loss. Unarmed, the
  /// injector is inert and the device behaves exactly as before.
  FaultInjector& fault() { return fault_; }
  const FaultInjector& fault() const { return fault_; }

  /// Retry behaviour the command queue applies to transient command faults.
  void set_retry_policy(RetryPolicy policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Watchdog deadline: a command whose simulated duration exceeds
  /// `factor` times its cost-model estimate is abandoned with
  /// DeviceTimeout. A healthy command runs at exactly its estimate, so any
  /// factor > 1 never trips on a clean device. Values <= 0 disable the
  /// slowdown watchdog — but a command that would *never* complete (an
  /// injected hang) still times out rather than stalling the process.
  void set_watchdog_factor(double factor) { watchdog_factor_ = factor; }
  double watchdog_factor() const { return watchdog_factor_; }

  /// Free memory actually allocatable right now: the tracker's headroom
  /// clamped by any armed synthetic capacity. Consumers that size working
  /// sets to the device (the streamed auto-sizer, the strategy planner)
  /// must use this, not the raw tracker, or their plans overshoot an
  /// injected capacity cliff.
  std::size_t effective_available() const {
    return std::min(memory_.available(),
                    fault_.synthetic_available(memory_.in_use()));
  }

  /// Resident-buffer pool: bound host inputs kept on-device across
  /// evaluations (disabled by default; the engine arms it per evaluate).
  ResidentPool& resident() { return resident_; }
  const ResidentPool& resident() const { return resident_; }

  /// The execution backend realizing this device's kernel launches. Unset
  /// (the default), backend() resolves the process default on every call —
  /// DFGEN_BACKEND, vm when absent — so a harness flipping the variable
  /// between evaluations is honoured without re-arming each device. The
  /// engines pin an explicit backend here when their options name one.
  void set_backend(std::shared_ptr<kernels::ExecutionBackend> backend) {
    backend_ = std::move(backend);
  }
  kernels::ExecutionBackend& backend() const;

  /// Allocates a device buffer of `elements` float32 values. Throws
  /// DeviceOutOfMemory if the device capacity would be exceeded. When the
  /// capacity wall is hit, resident buffers no caller holds are evicted
  /// LRU-first and the allocation retried, so pool occupancy can never
  /// fail an allocation the cold path would have satisfied. The resident
  /// pool's own uploads allocate here too. The buffer starts zeroed unless
  /// `zero_fill` is false: only for an upload, whose write of exactly
  /// `elements` words must land before anything reads the buffer
  /// (vcl/buffer.hpp).
  Buffer allocate(std::size_t elements, bool zero_fill = true);

  SpareBlocks& spares() { return spares_; }

 private:
  DeviceSpec spec_;
  MemoryTracker memory_;
  FaultInjector fault_;
  RetryPolicy retry_;
  double watchdog_factor_ = 8.0;
  std::shared_ptr<kernels::ExecutionBackend> backend_;
  SpareBlocks spares_;
  /// Declared last: destroyed first, while the tracker and the spare list
  /// are still alive to take the released resident buffers.
  ResidentPool resident_;
};

}  // namespace dfg::vcl
