// Differential parity tests between the report structs, the profiling
// logs they are counted from and the metrics registry.
//
// Every device event is recorded once, in a ProfilingLog. Reports count it
// with vcl::tally; runtime::execute_with_fallback publishes the dfgen_vcl_*
// series from the same events. So each direction is checked here:
//
//   * Registry equals log — for every EventKind, the events, bytes and
//     simulated-nanosecond series equal the log's count, bytes and summed
//     per-event nanoseconds, after a faulty Engine evaluation and after a
//     faulty DistributedEngine evaluation.
//   * Engine and DistributedEngine — the report equals the registry's
//     totals (a fresh registry per test, so deltas) over the same
//     evaluation, on clean AND faulty runs (the distributed one including
//     the dist-layer counters).
//   * EvalService — the registry-backed snapshot must equal what the
//     resolved tickets say happened.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "distrib/decomposition.hpp"
#include "distrib/dist_engine.hpp"
#include "mesh/generators.hpp"
#include "mesh/mesh.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "vcl/catalog.hpp"
#include "vcl/device.hpp"
#include "vcl/event.hpp"
#include "vcl/profiling.hpp"

namespace {

using namespace dfg;
using runtime::StrategyKind;

struct Workload {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 8, 8});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);

  void bind(Engine& engine) {
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
  }
};

/// One series' total in the current registry. Each test installs a fresh
/// ScopedMetricsRegistry, so this is the delta over its evaluations.
std::uint64_t series(const char* name, obs::Labels labels) {
  obs::MetricsRegistry& reg = obs::metrics();
  return reg.counter_value(reg.counter(name, std::move(labels)));
}

/// One device's series of one event kind.
std::uint64_t of_kind(const char* name, const std::string& device,
                      const char* kind) {
  return series(name, {{"device", device}, {"kind", kind}});
}

std::uint64_t events_of(const std::string& device, const char* kind) {
  return of_kind("dfgen_vcl_events_total", device, kind);
}

void expect_report_equals_registry(const EvaluationReport& report,
                                   const std::string& device) {
  EXPECT_EQ(report.dev_writes, events_of(device, "host_to_device"));
  EXPECT_EQ(report.dev_reads, events_of(device, "device_to_host"));
  EXPECT_EQ(report.kernel_execs, events_of(device, "kernel_exec"));
  EXPECT_EQ(report.command_timeouts, events_of(device, "timeout"));
  EXPECT_EQ(report.checksum_mismatches, events_of(device, "integrity"));
  EXPECT_EQ(report.command_retries,
            series("dfgen_vcl_command_retries_total", {{"device", device}}));
  EXPECT_EQ(report.injected_faults,
            series("dfgen_vcl_faults_injected_total", {{"device", device}}));
}

/// Every kind's events, bytes and simulated nanoseconds in the registry
/// equal what `logs` (all from devices named `device`) hold: count, bytes,
/// and the sum of each event's own nanoseconds.
void expect_registry_equals_logs(const std::vector<vcl::ProfilingLog>& logs,
                                 const std::string& device) {
  for (int k = 0; k < vcl::kEventKindCount; ++k) {
    const auto kind = static_cast<vcl::EventKind>(k);
    const char* slug = vcl::event_kind_slug(kind);
    std::uint64_t count = 0, bytes = 0, nanos = 0;
    for (const vcl::ProfilingLog& log : logs) {
      count += log.count(kind);
      bytes += log.bytes(kind);
      for (const vcl::Event& event : log.events()) {
        if (event.kind == kind) nanos += obs::sim_nanos(event.sim_seconds);
      }
    }
    EXPECT_EQ(events_of(device, slug), count) << slug;
    EXPECT_EQ(of_kind("dfgen_vcl_bytes_total", device, slug), bytes) << slug;
    EXPECT_EQ(of_kind("dfgen_vcl_sim_nanos_total", device, slug), nanos)
        << slug;
  }
}

/// A fault plan that, on a resilient fusion Q-criterion evaluation,
/// produces every event kind: a transient write fault (one injected fault
/// plus one retry), a hang the watchdog abandons, and a bit flip the
/// transfer checksum catches.
vcl::FaultPlan every_kind_plan() {
  vcl::FaultPlan plan;
  plan.fail_write_index = 2;
  plan.transient_count = 1;
  plan.hang_command_index = 5;
  plan.corrupt_write_index = 3;
  return plan;
}

TEST(ReportParity, RegistryEqualsLogForEveryKindAfterFaultyEngineRun) {
  obs::ScopedMetricsRegistry scoped;
  Workload wl;
  vcl::Device device(vcl::xeon_x5660_scaled());
  device.fault().arm(every_kind_plan());
  EngineOptions options;
  options.strategy = StrategyKind::fusion;
  options.fallback = runtime::FallbackPolicy::resilient();
  Engine engine(device, options);
  wl.bind(engine);
  const EvaluationReport report = engine.evaluate(expressions::kQCriterion);

  for (int k = 0; k < vcl::kEventKindCount; ++k) {
    EXPECT_GT(engine.log().count(static_cast<vcl::EventKind>(k)), 0u)
        << vcl::event_kind_slug(static_cast<vcl::EventKind>(k));
  }
  expect_registry_equals_logs({engine.log()}, device.spec().name);
  expect_report_equals_registry(report, device.spec().name);
}

TEST(ReportParity, RegistryEqualsLogForEveryKindAfterFaultyDistributedRun) {
  obs::ScopedMetricsRegistry scoped;
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 8, 8});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  distrib::ClusterConfig config;
  config.nodes = 2;
  config.devices_per_node = 2;
  config.device_spec = vcl::tesla_m2050_scaled();
  config.fault_plan = every_kind_plan();
  config.fault_plan.lose_device_after = 12;  // and a device replacement
  distrib::DistributedEngine engine(
      mesh, distrib::GridDecomposition(mesh.dims(), 2, 2, 2), config);
  engine.bind_global("u", field.u);
  engine.bind_global("v", field.v);
  engine.bind_global("w", field.w);
  const distrib::DistributedReport report =
      engine.evaluate(expressions::kQCriterion, StrategyKind::fusion);

  EXPECT_GE(report.device_losses, 1u);
  EXPECT_GE(report.command_retries, 1u);
  expect_registry_equals_logs(engine.rank_logs(), config.device_spec.name);
}

TEST(ReportParity, EngineReportEqualsRegistryDeltasOnCleanRuns) {
  Workload wl;
  for (const StrategyKind kind :
       {StrategyKind::roundtrip, StrategyKind::staged, StrategyKind::fusion,
        StrategyKind::streamed}) {
    obs::ScopedMetricsRegistry scoped;
    vcl::Device device(vcl::xeon_x5660_scaled());
    EngineOptions options;
    options.strategy = kind;
    Engine engine(device, options);
    wl.bind(engine);
    const EvaluationReport report =
        engine.evaluate(expressions::kQCriterion);
    expect_report_equals_registry(report, device.spec().name);
    EXPECT_GT(report.dev_writes, 0u);
    EXPECT_GT(report.kernel_execs, 0u);
  }
}

TEST(ReportParity, EngineReportEqualsRegistryDeltasUnderFaults) {
  obs::ScopedMetricsRegistry scoped;
  Workload wl;
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.fail_write_index = 2;  // transient on the 2nd upload: one retry
  plan.transient_count = 1;
  device.fault().arm(plan);

  EngineOptions options;
  options.strategy = StrategyKind::fusion;
  options.fallback = runtime::FallbackPolicy::resilient();
  Engine engine(device, options);
  wl.bind(engine);
  const EvaluationReport report = engine.evaluate(expressions::kQCriterion);
  EXPECT_EQ(report.command_retries, 1u);
  EXPECT_EQ(report.injected_faults, 1u);
  expect_report_equals_registry(report, device.spec().name);
}

TEST(ReportParity, EngineResidentCountersEqualRegistryDeltas) {
  // The resident counters are the device pool's stats deltas over the
  // evaluate call, and the pool publishes the same traffic to its
  // dfgen_resident_* series.
  obs::ScopedMetricsRegistry scoped;
  Workload wl;
  vcl::Device device(vcl::xeon_x5660_scaled());
  EngineOptions options;
  options.resident_pool = true;
  Engine engine(device, options);
  wl.bind(engine);

  const auto pool_series = [&](const char* name) {
    return series(name, {{"device", device.spec().name}});
  };
  for (int run = 0; run < 3; ++run) {
    const vcl::ResidentPool::Stats before = device.resident().stats();
    const std::uint64_t hits_before = pool_series("dfgen_resident_hits_total");
    const std::uint64_t misses_before =
        pool_series("dfgen_resident_misses_total");
    const std::uint64_t saved_before =
        pool_series("dfgen_resident_upload_bytes_saved");
    const EvaluationReport report = engine.evaluate(expressions::kQCriterion);
    const vcl::ResidentPool::Stats after = device.resident().stats();
    EXPECT_EQ(report.resident_hits,
              pool_series("dfgen_resident_hits_total") - hits_before);
    EXPECT_EQ(report.resident_misses,
              pool_series("dfgen_resident_misses_total") - misses_before);
    EXPECT_EQ(report.resident_upload_bytes_saved,
              pool_series("dfgen_resident_upload_bytes_saved") - saved_before);
    EXPECT_EQ(report.resident_hits, after.hits - before.hits);
    EXPECT_EQ(report.resident_misses, after.misses - before.misses);
    EXPECT_EQ(report.resident_evictions, after.evictions - before.evictions);
    EXPECT_EQ(report.resident_invalidations,
              after.invalidations - before.invalidations);
    EXPECT_EQ(report.resident_upload_bytes_saved,
              after.upload_bytes_saved - before.upload_bytes_saved);
    if (run > 0) {
      EXPECT_GT(report.resident_hits, 0u);
    }
  }
}

TEST(ReportParity, DistributedReportEqualsRegistryDeltasUnderFaults) {
  // Fresh registry: its totals over every rank's device (all ranks share
  // one spec, so one device label) must equal the report's per-rank log
  // tallies exactly.
  obs::ScopedMetricsRegistry scoped;

  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 8, 8});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  distrib::ClusterConfig config;
  config.nodes = 2;
  config.devices_per_node = 2;
  config.device_spec = vcl::tesla_m2050_scaled();
  config.fault_plan.fail_write_index = 5;  // transient: a retry + a fault
  config.fault_plan.transient_count = 1;
  config.fault_plan.lose_device_after = 12;  // then lose the whole device
  distrib::DistributedEngine engine(
      mesh, distrib::GridDecomposition(mesh.dims(), 2, 2, 2), config);
  engine.bind_global("u", field.u);
  engine.bind_global("v", field.v);
  engine.bind_global("w", field.w);
  const distrib::DistributedReport report =
      engine.evaluate(expressions::kQCriterion, StrategyKind::fusion);

  const std::string& device = config.device_spec.name;
  EXPECT_EQ(report.total_dev_writes, events_of(device, "host_to_device"));
  EXPECT_EQ(report.total_dev_reads, events_of(device, "device_to_host"));
  EXPECT_EQ(report.total_kernel_execs, events_of(device, "kernel_exec"));
  EXPECT_EQ(report.command_timeouts, events_of(device, "timeout"));
  EXPECT_EQ(report.checksum_mismatches, events_of(device, "integrity"));
  EXPECT_EQ(report.command_retries,
            series("dfgen_vcl_command_retries_total", {{"device", device}}));
  EXPECT_EQ(report.injected_faults,
            series("dfgen_vcl_faults_injected_total", {{"device", device}}));
  EXPECT_GE(report.injected_faults, 1u);
  EXPECT_GE(report.device_losses, 1u);

  EXPECT_EQ(report.blocks, series("dfgen_dist_blocks_executed_total", {}));
  EXPECT_EQ(report.device_losses,
            series("dfgen_dist_device_losses_total", {}));
  EXPECT_EQ(report.degraded_blocks,
            series("dfgen_dist_degraded_blocks_total", {}));
}

TEST(ReportParity, ServiceSnapshotEqualsResolvedTickets) {
  obs::ScopedMetricsRegistry scoped;

  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 8, 8});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  vcl::Device device(vcl::xeon_x5660_scaled());

  service::ServiceOptions options;
  options.start_paused = true;  // queue the whole burst, then dispatch
  options.coalescing = true;
  options.max_queue_depth = 2;

  std::vector<service::Ticket> tickets;
  service::ServiceSnapshot snapshot;
  {
    service::EvalService svc({&device}, options);
    const auto make_request = [&](const std::string& session) {
      service::Request request;
      request.expression = expressions::kVelocityMagnitude;
      request.mesh = &mesh;
      request.fields = {{"u", field.u}, {"v", field.v}, {"w", field.w}};
      request.session = session;
      return request;
    };
    // Two key-equal requests coalesce into one evaluation; the third hits
    // the depth limit and is rejected at admission.
    tickets.push_back(svc.submit(make_request("tenant-a")));
    tickets.push_back(svc.submit(make_request("tenant-b")));
    tickets.push_back(svc.submit(make_request("tenant-c")));
    svc.resume();
    svc.drain();
    snapshot = svc.snapshot();
  }

  std::size_t completed = 0, rejected = 0, followers = 0, leaders = 0;
  for (const service::Ticket& ticket : tickets) {
    const service::ServiceReport& report = ticket.wait();
    switch (report.status) {
      case service::RequestStatus::completed:
        ++completed;
        if (report.coalesce_leader) {
          ++leaders;
        } else {
          ++followers;
        }
        break;
      case service::RequestStatus::rejected:
        ++rejected;
        break;
      default:
        break;
    }
  }
  ASSERT_EQ(completed, 2u);
  ASSERT_EQ(rejected, 1u);

  EXPECT_EQ(snapshot.submitted, tickets.size());
  EXPECT_EQ(snapshot.admitted, completed);
  EXPECT_EQ(snapshot.completed_requests, completed);
  EXPECT_EQ(snapshot.rejected_queue_full, rejected);
  EXPECT_EQ(snapshot.rejected_projection, 0u);
  EXPECT_EQ(snapshot.rejected_quota, 0u);
  EXPECT_EQ(snapshot.executed_evaluations, leaders);
  EXPECT_EQ(snapshot.coalesced_requests, followers);
  EXPECT_EQ(snapshot.failed_requests, 0u);
  EXPECT_EQ(snapshot.command_timeouts, 0u);
  EXPECT_EQ(snapshot.max_queue_depth_seen, 2u);
}

}  // namespace
