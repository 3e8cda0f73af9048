// Virtual compute layer: profiling events.
//
// Mirrors the OpenCL device-event profiling API the paper's "OpenCL
// environment interface" is built on. Every queue operation produces one
// Event categorised as a host-to-device transfer, a device-to-host
// transfer, or a kernel execution — exactly the three categories of
// Table II (Dev-W / Dev-R / K-Exe).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace dfg::vcl {

enum class EventKind : int {
  host_to_device = 0,  ///< Dev-W in the paper's Table II.
  device_to_host = 1,  ///< Dev-R.
  kernel_exec = 2,     ///< K-Exe.
  /// An injected fault or a retry of a faulted command. Never produced by a
  /// healthy run: Table II's three categories stay byte-identical when no
  /// FaultPlan is armed.
  fault = 3,
  /// The watchdog abandoned a command that exceeded its deadline (k times
  /// the cost-model estimate). The event's sim_seconds is the deadline —
  /// the simulated time the device was tied up before the abort. Never
  /// produced by a healthy run.
  timeout = 4,
  /// A transfer's destination checksum did not match its source: silent
  /// corruption detected (and the transfer re-executed). Never produced by
  /// a healthy run.
  integrity = 5,
};

constexpr int kEventKindCount = 6;

/// Human-readable name ("Dev-W", "Dev-R", "K-Exe", "Fault", "T-Out",
/// "Chksum").
const char* event_kind_name(EventKind kind);

/// Metric-label slug ("host_to_device", "device_to_host", "kernel_exec",
/// "fault", "timeout", "integrity") — the `kind` label every per-device
/// obs counter and histogram uses.
const char* event_kind_slug(EventKind kind);

struct Event {
  EventKind kind = EventKind::kernel_exec;
  /// Free-form label, e.g. the kernel or buffer name; for diagnostics only.
  std::string label;
  /// Bytes moved (transfers) or read+written against global memory (kernels).
  std::size_t bytes = 0;
  /// Floating point operations performed (kernels only).
  std::uint64_t flops = 0;
  /// Duration attributed by the device cost model (seconds). This is the
  /// quantity the runtime study (Figure 5) reports.
  double sim_seconds = 0.0;
  /// Real host wall-clock duration of the virtual operation (seconds),
  /// including a transfer's source and destination checksums.
  double wall_seconds = 0.0;
};

}  // namespace dfg::vcl
