// Virtual compute layer: in-order command queue.
//
// The analogue of an OpenCL command queue created with profiling enabled.
// Every operation executes synchronously (the paper's framework also
// enqueues, waits and then reads the profiling timestamps), is timed with a
// wall clock, priced by the device cost model, and recorded in the attached
// ProfilingLog as a Dev-W / Dev-R / K-Exe event. The log is the queue's only
// output: the queue touches no metrics registry, and the dfgen_vcl_* series
// are published from the log by runtime::execute_with_fallback.
//
// Two defensive layers wrap every command:
//   * a watchdog — the command's charged simulated duration is compared
//     against `device.watchdog_factor()` times its cost-model estimate; a
//     command that would exceed the deadline (an injected hang or a severe
//     slowdown) is abandoned and the deadline is charged to the timeline
//     as a T-Out event. A hang is retried (one wedged command, a fresh
//     attempt probes the device); a slowdown escalates as DeviceTimeout
//     immediately — it is a device-wide condition and re-probing would
//     only burn another deadline;
//   * end-to-end transfer integrity — every transfer's source is hashed
//     as it is copied (support::copy_checksum: one pass, each 64 Ki-word
//     block copied and then hashed while cache-hot, the blocks spread over
//     the worker team), and the destination is hashed and compared after
//     the copy, on every transfer whether or not a fault plan is armed; a
//     mismatch (an injected bit-flip) is charged as a Chksum event and the
//     transfer re-executed, then DataCorruption escapes. The checksum
//     hashes each block as eight interleaved FNV-1a lanes and still covers
//     every word: one changed word changes the digest with certainty.
// Both layers are pure observers on a healthy device: the command stream,
// event counts and simulated durations of a fault-free run are
// byte-identical to a build without them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "support/checksum.hpp"
#include "vcl/buffer.hpp"
#include "vcl/cost_model.hpp"
#include "vcl/device.hpp"
#include "vcl/profiling.hpp"

namespace dfg::vcl {

/// Everything the queue needs to dispatch one kernel over a 1-D NDRange.
/// The body is invoked over disjoint [begin, end) chunks, possibly
/// concurrently, covering [0, ndrange).
struct KernelLaunch {
  std::string label;
  std::size_t ndrange = 0;
  /// Totals across the whole NDRange, used by the cost model.
  std::uint64_t flops = 0;
  std::size_t global_bytes = 0;
  int registers_used = 0;
  /// Work-partitioning grain: worker chunks are multiples of this (except
  /// the NDRange tail). Strategies launching bytecode programs set it to
  /// kernels::kTileSize so the tiled VM only ever sees whole tiles; the
  /// default of 1 reproduces plain ceil(n/workers) chunking.
  std::size_t grain = 1;
  /// Fraction of peak flop rate the cost model credits this launch — set
  /// from the executing backend (interpreted dispatch keeps the historical
  /// CostModel::kComputeEfficiency; jit-compiled launches run at
  /// kernels::kCompiledEfficiency). The watchdog estimate uses the same
  /// value, so switching backends rescales estimate and charge together
  /// and never trips a deadline by itself.
  double compute_efficiency = CostModel::kComputeEfficiency;
  std::function<void(std::size_t, std::size_t)> body;
};

class CommandQueue {
 public:
  /// Injected faults during this queue's lifetime (including allocation
  /// faults raised outside the queue) are recorded into `log`.
  CommandQueue(Device& device, ProfilingLog& log)
      : device_(&device),
        log_(&log),
        cost_(device.spec()),
        integrity_seed_(support::fnv1a(device.spec().name)),
        fault_sink_(device.fault(), &log) {}

  Device& device() { return *device_; }
  ProfilingLog& log() { return *log_; }

  /// Host-to-device transfer (clEnqueueWriteBuffer). `host` must not exceed
  /// the buffer extent.
  void write(Buffer& buffer, std::span<const float> host,
             const std::string& label);

  /// Device-to-host transfer (clEnqueueReadBuffer). `host` must be at least
  /// the buffer extent.
  void read(const Buffer& buffer, std::span<float> host,
            const std::string& label);

  /// Kernel dispatch (clEnqueueNDRangeKernel) over launch.ndrange items.
  void launch(const KernelLaunch& launch);

 private:
  /// What one attempt of a command left behind: a transfer's destination
  /// and the digest of the source it copied. A kernel leaves neither: its
  /// output integrity is covered by the later readback checksum.
  struct Landed {
    std::span<float> destination;
    std::optional<std::uint64_t> source_digest;
  };

  /// Runs one command through the full defensive stack: fault-injection
  /// gate (transient retries with seeded backoff), watchdog deadline, the
  /// command body, integrity verification, and event recording. `execute`
  /// performs the data movement / dispatch once per attempt; a transfer's
  /// destination is then (under an armed plan) corrupted, hashed and
  /// compared with the source digest.
  void run_command(EventKind site, const std::string& label,
                   std::size_t bytes, std::uint64_t flops,
                   double estimate_seconds,
                   const std::function<Landed()>& execute);

  /// Marks a command complete (advances the device-loss countdown).
  void complete();

  Device* device_;
  ProfilingLog* log_;
  CostModel cost_;
  /// Seed of the transfer checksums, derived from the device name so two
  /// devices never share a digest stream.
  std::uint64_t integrity_seed_;
  FaultInjector::SinkScope fault_sink_;
};

}  // namespace dfg::vcl
