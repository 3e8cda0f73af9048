// Virtual compute layer: profiling log.
//
// The paper's framework "records and categorizes timing events" through an
// OpenCL environment interface; this class is that interface. It
// accumulates events per category and exposes the aggregates the three
// evaluation studies need: event counts (Table II), summed simulated time
// (Figure 5) and bytes moved.
// It is the only record of device commands: reports count it with
// vcl::tally, and execute_with_fallback publishes the dfgen_vcl_* series
// from it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "vcl/event.hpp"

namespace dfg::vcl {

class ProfilingLog {
 public:
  void record(Event event);

  /// Appends every event of `other` (the distributed engine executes each
  /// block into a private log and merges it into the owning rank's log).
  void append(const ProfilingLog& other);

  /// Number of events of one kind (e.g. Dev-W count for Table II).
  std::size_t count(EventKind kind) const;

  /// Summed simulated duration over one kind / over everything (seconds).
  double sim_seconds(EventKind kind) const;
  double total_sim_seconds() const;

  /// Summed wall-clock duration over everything (seconds).
  double total_wall_seconds() const;

  /// Bytes moved by events of one kind.
  std::size_t bytes(EventKind kind) const;

  /// Total floating point operations recorded on kernel events.
  std::uint64_t total_flops() const;

  const std::vector<Event>& events() const { return events_; }

  void clear();

 private:
  std::vector<Event> events_;
  std::array<std::size_t, kEventKindCount> counts_{};
  std::array<double, kEventKindCount> sim_seconds_{};
  std::array<std::size_t, kEventKindCount> bytes_{};
  double wall_seconds_ = 0.0;
  std::uint64_t flops_ = 0;
};

/// Label prefix of the Fault event the command queue records when it
/// retries a command; any other Fault event is an injected fault.
inline constexpr std::string_view kRetryLabelPrefix = "retry:";

/// A run of events counted by category: the device-event figures of
/// every report. Fault events split by kRetryLabelPrefix into retries and
/// injected faults.
struct EventTally {
  std::size_t dev_writes = 0;           ///< Dev-W
  std::size_t dev_reads = 0;            ///< Dev-R
  std::size_t kernel_execs = 0;         ///< K-Exe
  std::size_t timeouts = 0;             ///< T-Out
  std::size_t checksum_mismatches = 0;  ///< Chksum
  std::size_t retries = 0;
  std::size_t injected_faults = 0;
};

EventTally tally(std::span<const Event> events);

}  // namespace dfg::vcl
