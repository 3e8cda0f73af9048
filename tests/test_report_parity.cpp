// Differential parity tests between the report structs and the metrics
// registry.
//
// The refactor made some reports *views over registry deltas* (Engine,
// EvalService) while others stayed log-derived (DistributedEngine). Each
// direction gets an honest differential here:
//
//   * Engine — the registry-backed report must equal the seed-era
//     recomputation from the engine's profiling log (event counts, the
//     "retry:" label scan, the injector's run_faults) on clean AND faulty
//     runs.
//   * DistributedEngine — the log-derived report must equal the registry's
//     thread-shard deltas over the same evaluation, including the
//     dist-layer counters (blocks, device losses, degraded blocks), on a
//     faulty run.
//   * EvalService — the registry-backed snapshot must equal what the
//     resolved tickets say happened.
#include <gtest/gtest.h>

#include <string>
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

/// Recomputes an EvaluationReport's device counters the way the seed code
/// did — straight from the profiling log and the injector.
struct SeedEraCounts {
  std::uint64_t dev_writes, dev_reads, kernel_execs, command_timeouts,
      checksum_mismatches, command_retries, injected_faults;

  static SeedEraCounts from(const vcl::ProfilingLog& log,
                            const vcl::Device& device) {
    SeedEraCounts counts{};
    counts.dev_writes = log.count(vcl::EventKind::host_to_device);
    counts.dev_reads = log.count(vcl::EventKind::device_to_host);
    counts.kernel_execs = log.count(vcl::EventKind::kernel_exec);
    counts.command_timeouts = log.count(vcl::EventKind::timeout);
    counts.checksum_mismatches = log.count(vcl::EventKind::integrity);
    for (const vcl::Event& event : log.events()) {
      if (event.kind == vcl::EventKind::fault &&
          event.label.rfind("retry:", 0) == 0) {
        ++counts.command_retries;
      }
    }
    counts.injected_faults = device.fault().run_faults();
    return counts;
  }
};

void expect_report_matches(const EvaluationReport& report,
                           const SeedEraCounts& want) {
  EXPECT_EQ(report.dev_writes, want.dev_writes);
  EXPECT_EQ(report.dev_reads, want.dev_reads);
  EXPECT_EQ(report.kernel_execs, want.kernel_execs);
  EXPECT_EQ(report.command_timeouts, want.command_timeouts);
  EXPECT_EQ(report.checksum_mismatches, want.checksum_mismatches);
  EXPECT_EQ(report.command_retries, want.command_retries);
  EXPECT_EQ(report.injected_faults, want.injected_faults);
}

TEST(ReportParity, EngineReportEqualsLogRecomputationOnCleanRuns) {
  Workload wl;
  for (const StrategyKind kind :
       {StrategyKind::roundtrip, StrategyKind::staged, StrategyKind::fusion,
        StrategyKind::streamed}) {
    vcl::Device device(vcl::xeon_x5660_scaled());
    EngineOptions options;
    options.strategy = kind;
    Engine engine(device, options);
    wl.bind(engine);
    const EvaluationReport report =
        engine.evaluate(expressions::kQCriterion);
    expect_report_matches(report, SeedEraCounts::from(engine.log(), device));
    EXPECT_GT(report.dev_writes, 0u);
    EXPECT_GT(report.kernel_execs, 0u);
  }
}

TEST(ReportParity, EngineReportEqualsLogRecomputationUnderFaults) {
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
  const SeedEraCounts want = SeedEraCounts::from(engine.log(), device);
  EXPECT_GE(want.command_retries, 1u);
  EXPECT_GE(want.injected_faults, 1u);
  expect_report_matches(report, want);
}

TEST(ReportParity, EngineResidentCountersEqualRegistryDeltas) {
  // The resident counters are registry-backed like the rest of the report:
  // their per-evaluation deltas must equal the device pool's cumulative
  // stats deltas sampled around the evaluate call.
  obs::ScopedMetricsRegistry scoped;
  Workload wl;
  vcl::Device device(vcl::xeon_x5660_scaled());
  EngineOptions options;
  options.resident_pool = true;
  Engine engine(device, options);
  wl.bind(engine);

  for (int run = 0; run < 3; ++run) {
    const vcl::ResidentPool::Stats before = device.resident().stats();
    const EvaluationReport report = engine.evaluate(expressions::kQCriterion);
    const vcl::ResidentPool::Stats after = device.resident().stats();
    EXPECT_EQ(report.resident_hits, after.hits - before.hits);
    EXPECT_EQ(report.resident_misses, after.misses - before.misses);
    EXPECT_EQ(report.resident_evictions, after.evictions - before.evictions);
    EXPECT_EQ(report.resident_invalidations,
              after.invalidations - before.invalidations);
    EXPECT_EQ(report.resident_upload_bytes_saved,
              after.upload_bytes_saved - before.upload_bytes_saved);
    if (run > 0) EXPECT_GT(report.resident_hits, 0u);
  }
}

TEST(ReportParity, DistributedReportEqualsRegistryDeltasUnderFaults) {
  // Fresh registry: the evaluation runs entirely on this thread, so the
  // registry's thread-shard sums over all devices must equal the report's
  // per-rank log scans exactly.
  obs::ScopedMetricsRegistry scoped;
  obs::MetricsRegistry& reg = scoped.registry();

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

  const auto events = [&](const char* kind) {
    return reg.thread_counter_sum("dfgen_vcl_events_total",
                                  {{"kind", kind}});
  };
  EXPECT_EQ(report.total_dev_writes, events("host_to_device"));
  EXPECT_EQ(report.total_dev_reads, events("device_to_host"));
  EXPECT_EQ(report.total_kernel_execs, events("kernel_exec"));
  EXPECT_EQ(report.command_timeouts, events("timeout"));
  EXPECT_EQ(report.checksum_mismatches, events("integrity"));
  EXPECT_EQ(report.command_retries,
            reg.thread_counter_sum("dfgen_vcl_command_retries_total"));
  EXPECT_EQ(report.injected_faults,
            reg.thread_counter_sum("dfgen_vcl_faults_injected_total"));
  EXPECT_GE(report.injected_faults, 1u);
  EXPECT_GE(report.device_losses, 1u);

  const auto dist_total = [&](const char* name, obs::Labels labels = {}) {
    return reg.counter_value(reg.counter(name, std::move(labels)));
  };
  EXPECT_EQ(report.blocks, dist_total("dfgen_dist_blocks_executed_total"));
  EXPECT_EQ(report.device_losses,
            dist_total("dfgen_dist_device_losses_total"));
  EXPECT_EQ(report.degraded_blocks,
            dist_total("dfgen_dist_degraded_blocks_total"));
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
