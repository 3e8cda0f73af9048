#include "vcl/trace.hpp"

#include <charconv>
#include <sstream>
#include <string>

#include "support/string_util.hpp"

namespace dfg::vcl {

namespace {

constexpr double kMicro = 1.0e6;
/// The one process every trace shows: its pid and its viewer name.
constexpr int kPid = 1;
constexpr const char* kProcessName = "virtual device";

const char* track_name(EventKind kind) {
  switch (kind) {
    case EventKind::kernel_exec:
      return "compute";
    case EventKind::fault:
      return "faults";
    case EventKind::timeout:
      return "timeouts";
    case EventKind::integrity:
      return "integrity";
    default:
      return "copy";
  }
}

int track_id(EventKind kind) {
  switch (kind) {
    case EventKind::kernel_exec:
      return 2;
    case EventKind::fault:
      return 3;
    case EventKind::timeout:
      return 4;
    case EventKind::integrity:
      return 5;
    default:
      return 1;
  }
}

/// Seconds as microseconds in the shortest fixed-point text that reads back
/// to the same double: a stream's default six significant digits would
/// round every timestamp past one second to tens of microseconds.
std::string micros(double seconds) {
  char buf[400];  // the longest fixed-point double, a subnormal, needs ~330
  const auto result = std::to_chars(buf, buf + sizeof(buf), seconds * kMicro,
                                    std::chars_format::fixed);
  return std::string(buf, result.ptr);
}

}  // namespace

std::string to_chrome_trace(const ProfilingLog& log) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& json) {
    if (!first) os << ",";
    first = false;
    os << "\n" << json;
  };

  // Process / thread metadata.
  {
    std::ostringstream meta;
    meta << "{\"ph\":\"M\",\"pid\":" << kPid
         << ",\"name\":\"process_name\",\"args\":{\"name\":\""
         << kProcessName << "\"}}";
    emit(meta.str());
  }
  // The faults / timeouts / integrity tracks only appear when the log
  // holds such events, keeping fault-free traces identical to the seed's.
  for (const EventKind kind :
       {EventKind::host_to_device, EventKind::kernel_exec, EventKind::fault,
        EventKind::timeout, EventKind::integrity}) {
    if ((kind == EventKind::fault || kind == EventKind::timeout ||
         kind == EventKind::integrity) &&
        log.count(kind) == 0) {
      continue;
    }
    std::ostringstream meta;
    meta << "{\"ph\":\"M\",\"pid\":" << kPid
         << ",\"tid\":" << track_id(kind)
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
         << track_name(kind) << "\"}}";
    emit(meta.str());
  }

  // In-order device timeline: each event occupies [t, t + sim_seconds).
  double t = 0.0;
  for (const Event& event : log.events()) {
    std::ostringstream row;
    row << "{\"ph\":\"X\",\"pid\":" << kPid
        << ",\"tid\":" << track_id(event.kind) << ",\"name\":\""
        << support::json_escape(event.label) << "\",\"cat\":\""
        << event_kind_name(event.kind) << "\",\"ts\":" << micros(t)
        << ",\"dur\":" << micros(event.sim_seconds)
        << ",\"args\":{\"bytes\":" << event.bytes
        << ",\"flops\":" << event.flops << "}}";
    emit(row.str());
    t += event.sim_seconds;
  }

  os << "\n]}\n";
  return os.str();
}

}  // namespace dfg::vcl
