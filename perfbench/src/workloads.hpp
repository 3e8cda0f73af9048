// The benchmark's workloads and the layer probes of its traced run.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "mesh/mesh.hpp"
#include "service/report.hpp"
#include "vcl/device.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace.
  std::string trace_file;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  /// Failed, rejected and mismatching operations.
  std::uint64_t failed = 0;
  /// End-to-end metrics (trace off) or per-layer metrics (trace on).
  std::vector<Metric> metrics;
  /// Figures printed on the info line only: they do not apply to every
  /// workload or fail the percentile rule on some.
  std::vector<Metric> extra;
  /// Context record, a JSON object.
  std::string context;
};

RunResult run_insitu_step(const RunConfig& config);
RunResult run_oneshot_explore(const RunConfig& config);
RunResult run_service_mix(const RunConfig& config);

/// The scaled X5660 virtual device under another name. Each workload's
/// devices have names of their own, so registry counters tell them apart.
dfg::vcl::DeviceSpec device_spec(const std::string& name);

/// What the layer probes run on: a sample of the workload's expressions
/// over its own mesh and fields.
struct ProbeInputs {
  std::vector<std::string> expressions;
  const dfg::mesh::RectilinearMesh* mesh = nullptr;
  std::vector<dfg::service::FieldRef> fields;
  bool resident_pool = false;
};

/// Times direct calls into expr, dataflow, kernels, support, vcl, runtime
/// and core with the probe inputs, recording a span around each call.
std::vector<Metric> probe_layers(const ProbeInputs& inputs);

/// A closed-loop pass of the probe expressions through a one-device
/// EvalService, for workloads that do not drive the service themselves.
std::vector<Metric> probe_service(const ProbeInputs& inputs);

/// service.* and memo.* metrics from two snapshots and per-request samples.
std::vector<Metric> service_metrics(const dfg::service::ServiceSnapshot& before,
                                    const dfg::service::ServiceSnapshot& after,
                                    const std::vector<double>& submit_ms,
                                    const std::vector<double>& queue_wait_ms);

}  // namespace perfbench
