#include "vcl/profiling.hpp"

#include <utility>

namespace dfg::vcl {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::host_to_device:
      return "Dev-W";
    case EventKind::device_to_host:
      return "Dev-R";
    case EventKind::kernel_exec:
      return "K-Exe";
    case EventKind::fault:
      return "Fault";
    case EventKind::timeout:
      return "T-Out";
    case EventKind::integrity:
      return "Chksum";
  }
  return "?";
}

const char* event_kind_slug(EventKind kind) {
  switch (kind) {
    case EventKind::host_to_device:
      return "host_to_device";
    case EventKind::device_to_host:
      return "device_to_host";
    case EventKind::kernel_exec:
      return "kernel_exec";
    case EventKind::fault:
      return "fault";
    case EventKind::timeout:
      return "timeout";
    case EventKind::integrity:
      return "integrity";
  }
  return "unknown";
}

void ProfilingLog::record(Event event) {
  const auto idx = static_cast<std::size_t>(event.kind);
  counts_[idx] += 1;
  sim_seconds_[idx] += event.sim_seconds;
  bytes_[idx] += event.bytes;
  wall_seconds_ += event.wall_seconds;
  flops_ += event.flops;
  events_.push_back(std::move(event));
}

void ProfilingLog::append(const ProfilingLog& other) {
  events_.reserve(events_.size() + other.events_.size());
  for (const Event& event : other.events_) record(event);
}

std::size_t ProfilingLog::count(EventKind kind) const {
  return counts_[static_cast<std::size_t>(kind)];
}

double ProfilingLog::sim_seconds(EventKind kind) const {
  return sim_seconds_[static_cast<std::size_t>(kind)];
}

double ProfilingLog::total_sim_seconds() const {
  double total = 0.0;
  for (double s : sim_seconds_) total += s;
  return total;
}

double ProfilingLog::total_wall_seconds() const { return wall_seconds_; }

std::size_t ProfilingLog::bytes(EventKind kind) const {
  return bytes_[static_cast<std::size_t>(kind)];
}

std::uint64_t ProfilingLog::total_flops() const { return flops_; }

void ProfilingLog::clear() {
  events_.clear();
  counts_.fill(0);
  sim_seconds_.fill(0.0);
  bytes_.fill(0);
  wall_seconds_ = 0.0;
  flops_ = 0;
}

EventTally tally(std::span<const Event> events) {
  std::array<std::size_t, kEventKindCount> counts{};
  std::size_t retries = 0;
  for (const Event& event : events) {
    ++counts[static_cast<std::size_t>(event.kind)];
    if (event.kind == EventKind::fault &&
        event.label.starts_with(kRetryLabelPrefix)) {
      ++retries;
    }
  }
  const auto count = [&](EventKind kind) {
    return counts[static_cast<std::size_t>(kind)];
  };
  return {.dev_writes = count(EventKind::host_to_device),
          .dev_reads = count(EventKind::device_to_host),
          .kernel_execs = count(EventKind::kernel_exec),
          .timeouts = count(EventKind::timeout),
          .checksum_mismatches = count(EventKind::integrity),
          .retries = retries,
          .injected_faults = count(EventKind::fault) - retries};
}

}  // namespace dfg::vcl
