// Virtual compute layer: Chrome trace export.
//
// Serialises a profiling log as a Chrome trace-event JSON document
// (loadable in chrome://tracing or Perfetto), reconstructing the device
// timeline from the recorded event order and simulated durations. Events
// are grouped onto two tracks per device — a copy track for host<->device
// transfers and a compute track for kernels — mirroring how the paper's
// profiling tooling categorises device events.
#pragma once

#include <string>

#include "vcl/profiling.hpp"

namespace dfg::vcl {

/// Full trace document for one log (in-order timeline of its events),
/// shown as the process "virtual device".
std::string to_chrome_trace(const ProfilingLog& log);

}  // namespace dfg::vcl
