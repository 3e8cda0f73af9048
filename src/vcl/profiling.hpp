// Virtual compute layer: profiling log.
//
// The paper's framework "records and categorizes timing events" through an
// OpenCL environment interface; this class is that interface. It
// accumulates events per category and exposes the aggregates the three
// evaluation studies need: event counts (Table II), summed simulated time
// (Figure 5) and bytes moved.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
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
  std::size_t total_count() const;

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

}  // namespace dfg::vcl
