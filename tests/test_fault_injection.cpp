// Fault-injection tests: the deterministic failure matrix behind the
// degradation machinery. Every strategy is driven through each injected
// fault family — allocation failure, transient transfer fault, transient
// kernel fault, whole-device loss — and must react exactly as the
// FallbackPolicy prescribes: retry transients with bounded backoff, degrade
// one rung per unrecoverable failure, propagate device loss, and always
// produce a field bit-identical to a fault-free run. On the distributed
// engine a lost device is replaced and its block re-run; corruption or
// timeouts no rung can fix fail the evaluation with their typed error.
// Injected faults must be observable in the profiling log and the Chrome
// trace.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "distrib/decomposition.hpp"
#include "distrib/dist_engine.hpp"
#include "mesh/generators.hpp"
#include "runtime/fallback.hpp"
#include "runtime/reference.hpp"
#include "runtime/strategy.hpp"
#include "support/error.hpp"
#include "vcl/catalog.hpp"
#include "vcl/queue.hpp"
#include "vcl/trace.hpp"

namespace {

using namespace dfg;
using runtime::StrategyKind;

/// The rung one degradation step below `kind` (the next ladder entry).
StrategyKind next_rung(StrategyKind kind) {
  const std::size_t pos = runtime::ladder_position(kind);
  return runtime::kMemoryLadder[pos + 1];
}

std::size_t fault_events(const vcl::ProfilingLog& log) {
  return log.count(vcl::EventKind::fault);
}

/// One engine wired to the Q-criterion workload (gradients of all three
/// velocity components — every strategy, including streamed, can run it).
struct FaultFixture {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 8, 8});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  std::vector<float> reference = clean_reference();

  /// The fault-free field (all strategies are bit-identical, so one clean
  /// fusion run is the reference for every scenario).
  std::vector<float> clean_reference() {
    vcl::Device device(vcl::xeon_x5660_scaled());
    Engine engine(device, {StrategyKind::fusion, {}});
    bind(engine);
    return engine.evaluate(expressions::kQCriterion).values;
  }

  void bind(Engine& engine) {
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
  }

  Engine make(vcl::Device& device, StrategyKind kind, bool fallback_on) {
    EngineOptions options;
    options.strategy = kind;
    options.fallback.enabled = fallback_on;
    Engine engine(device, options);
    bind(engine);
    return engine;
  }
};

class FaultMatrixTest : public ::testing::TestWithParam<StrategyKind> {
 protected:
  FaultFixture fx;
};

TEST_P(FaultMatrixTest, AllocationFailureDegradesOneRung) {
  const StrategyKind requested = GetParam();
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.fail_alloc_index = 1;  // the requested rung's very first allocation
  device.fault().arm(plan);
  Engine engine = fx.make(device, requested, /*fallback_on=*/true);

  if (requested == StrategyKind::roundtrip) {
    // The last rung has nowhere to degrade to: the policy rethrows.
    EXPECT_THROW(engine.evaluate(expressions::kQCriterion),
                 DeviceOutOfMemory);
    return;
  }
  const EvaluationReport report = engine.evaluate(expressions::kQCriterion);
  EXPECT_EQ(report.strategy, runtime::strategy_name(next_rung(requested)));
  ASSERT_EQ(report.degradations.size(), 1u);
  EXPECT_EQ(report.degradations[0].from, runtime::strategy_name(requested));
  EXPECT_EQ(report.degradations[0].to,
            runtime::strategy_name(next_rung(requested)));
  EXPECT_EQ(report.injected_faults, 1u);
  EXPECT_EQ(report.command_retries, 0u);  // OOM is not retried
  EXPECT_EQ(report.values, fx.reference);
  EXPECT_GE(fault_events(engine.log()), 1u);
  EXPECT_EQ(device.memory().in_use(), 0u)
      << "the failed rung's device state must be released";
}

TEST_P(FaultMatrixTest, TransientTransferFaultIsRetriedInPlace) {
  const StrategyKind requested = GetParam();
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.fail_write_index = 1;  // first upload fails once, then recovers
  plan.transient_count = 1;
  device.fault().arm(plan);
  Engine engine = fx.make(device, requested, /*fallback_on=*/true);

  const EvaluationReport report = engine.evaluate(expressions::kQCriterion);
  // A single retry absorbs the fault: no degradation at all.
  EXPECT_EQ(report.strategy, runtime::strategy_name(requested));
  EXPECT_TRUE(report.degradations.empty());
  EXPECT_EQ(report.command_retries, 1u);
  EXPECT_EQ(report.injected_faults, 1u);
  EXPECT_EQ(report.values, fx.reference);
  // Both the injected fault and the retry are log events.
  EXPECT_EQ(fault_events(engine.log()), 2u);
}

TEST_P(FaultMatrixTest, TransientKernelFaultExhaustsRetriesThenDegrades) {
  const StrategyKind requested = GetParam();
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  // Three consecutive failures defeat the default three-attempt budget.
  plan.fail_kernel_index = 1;
  plan.transient_count = 3;
  device.fault().arm(plan);
  Engine engine = fx.make(device, requested, /*fallback_on=*/true);

  if (requested == StrategyKind::roundtrip) {
    EXPECT_THROW(engine.evaluate(expressions::kQCriterion), DeviceError);
    return;
  }
  const EvaluationReport report = engine.evaluate(expressions::kQCriterion);
  EXPECT_EQ(report.strategy, runtime::strategy_name(next_rung(requested)));
  ASSERT_EQ(report.degradations.size(), 1u);
  // Attempts 1 and 2 back off and retry; attempt 3 lets the error escape.
  EXPECT_EQ(report.command_retries, 2u);
  EXPECT_EQ(report.injected_faults, 3u);
  EXPECT_EQ(report.values, fx.reference);
}

TEST_P(FaultMatrixTest, DeviceLossIsFatalOnASingleDevice) {
  const StrategyKind requested = GetParam();
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.lose_device_after = 2;  // die once two commands have completed
  device.fault().arm(plan);
  Engine engine = fx.make(device, requested, /*fallback_on=*/true);

  // No rung can run on a lost device, so the fallback must not mask it.
  EXPECT_THROW(engine.evaluate(expressions::kQCriterion), DeviceLost);
  EXPECT_TRUE(device.fault().device_lost());
  // Loss is sticky: the next evaluation dies on its first command.
  EXPECT_THROW(engine.evaluate(expressions::kQCriterion), DeviceLost);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, FaultMatrixTest,
                         ::testing::Values(StrategyKind::roundtrip,
                                           StrategyKind::staged,
                                           StrategyKind::fusion,
                                           StrategyKind::streamed),
                         [](const auto& info) {
                           return std::string(
                               runtime::strategy_name(info.param));
                         });

TEST(FaultInjection, StrictModeAbortsExactlyLikeThePaper) {
  // With the policy disabled (the Engine default), an injected capacity
  // cliff reproduces the paper's aborted GPU cells: the evaluation throws.
  FaultFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.synthetic_capacity_bytes = 64;  // nothing fits
  device.fault().arm(plan);
  Engine engine = fx.make(device, StrategyKind::fusion, /*fallback_on=*/false);
  EXPECT_THROW(engine.evaluate(expressions::kQCriterion), DeviceOutOfMemory);
}

TEST(FaultInjection, RetryBackoffIsDeterministicPerSeed) {
  // Two identically-seeded runs charge identical simulated backoff; a
  // different seed jitters differently.
  const auto retry_backoff = [](std::uint32_t seed) {
    FaultFixture fx;
    vcl::Device device(vcl::xeon_x5660_scaled());
    vcl::FaultPlan plan;
    plan.seed = seed;
    plan.fail_write_index = 2;
    device.fault().arm(plan);
    Engine engine = fx.make(device, StrategyKind::fusion, true);
    engine.evaluate(expressions::kQCriterion);
    for (const vcl::Event& event : engine.log().events()) {
      if (event.kind == vcl::EventKind::fault &&
          event.label.rfind("retry:", 0) == 0) {
        return event.sim_seconds;
      }
    }
    return -1.0;
  };
  const double a = retry_backoff(7);
  EXPECT_GT(a, 0.0);
  EXPECT_EQ(a, retry_backoff(7));
  EXPECT_NE(a, retry_backoff(8));
}

TEST(FaultInjection, FaultsAppearInLogAndChromeTrace) {
  FaultFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.fail_write_index = 1;
  device.fault().arm(plan);
  Engine engine = fx.make(device, StrategyKind::fusion, true);
  engine.evaluate(expressions::kQCriterion);

  bool saw_injected = false, saw_retry = false;
  for (const vcl::Event& event : engine.log().events()) {
    if (event.kind != vcl::EventKind::fault) continue;
    if (event.label.rfind("fault:Dev-W:", 0) == 0) saw_injected = true;
    if (event.label.rfind("retry:Dev-W:", 0) == 0) saw_retry = true;
  }
  EXPECT_TRUE(saw_injected);
  EXPECT_TRUE(saw_retry);

  const std::string trace = vcl::to_chrome_trace(engine.log());
  EXPECT_NE(trace.find("faults"), std::string::npos);
  EXPECT_NE(trace.find("fault:Dev-W:"), std::string::npos);

  // A fault-free log keeps its trace free of the faults track.
  vcl::Device clean_device(vcl::xeon_x5660_scaled());
  Engine clean = fx.make(clean_device, StrategyKind::fusion, true);
  clean.evaluate(expressions::kQCriterion);
  EXPECT_EQ(vcl::to_chrome_trace(clean.log()).find("faults"),
            std::string::npos);
}

TEST(FaultInjection, DegradedRunStillMatchesReferenceInterpreter) {
  // A degraded field is bit-identical to the clean strategies, which in
  // turn match the hand-written reference kernel to rounding (it uses a
  // shorter float sequence — see test_reference): the same tolerance must
  // hold straight off a faulted run.
  FaultFixture fx;
  runtime::FieldBindings bindings;
  bindings.bind_mesh(fx.mesh);
  bindings.bind("u", fx.field.u);
  bindings.bind("v", fx.field.v);
  bindings.bind("w", fx.field.w);
  vcl::Device ref_device(vcl::xeon_x5660_scaled());
  vcl::ProfilingLog ref_log;
  const std::vector<float> ref =
      runtime::run_reference(runtime::reference_q_criterion(), bindings,
                             fx.mesh.cell_count(), ref_device, ref_log);

  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.fail_alloc_index = 1;
  device.fault().arm(plan);
  Engine engine = fx.make(device, StrategyKind::fusion, true);
  const EvaluationReport report = engine.evaluate(expressions::kQCriterion);
  ASSERT_FALSE(report.degradations.empty());
  float scale = 1.0f;
  for (const float q : ref) scale = std::max(scale, std::fabs(q));
  ASSERT_EQ(report.values.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(report.values[i], ref[i], 1e-5f * scale) << "cell " << i;
  }
}

TEST(FaultInjection, EmptyPlanInjectsNothing) {
  FaultFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  device.fault().arm(vcl::FaultPlan{});  // empty: arming is a no-op
  EXPECT_FALSE(device.fault().armed());
  Engine engine = fx.make(device, StrategyKind::fusion, true);
  const EvaluationReport report = engine.evaluate(expressions::kQCriterion);
  EXPECT_EQ(report.injected_faults, 0u);
  EXPECT_EQ(report.command_retries, 0u);
  EXPECT_TRUE(report.degradations.empty());
  EXPECT_EQ(report.values, fx.reference);
  EXPECT_EQ(fault_events(engine.log()), 0u);
}

// ----- The fault sink lives no longer than the log it points at -----

// An engine's log receives injected faults only while it evaluates. Once
// the engine is gone, a fault on its device must not reach the freed log
// (AddressSanitizer reports the heap-use-after-free otherwise).
TEST(FaultSink, DoesNotOutliveTheEngine) {
  FaultFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  auto engine = std::make_unique<Engine>(
      fx.make(device, StrategyKind::fusion, true));
  engine->evaluate(expressions::kQCriterion);
  engine.reset();

  vcl::FaultPlan plan;
  plan.fail_alloc_index = 1;
  device.fault().arm(plan);
  EXPECT_THROW(device.allocate(16), DeviceOutOfMemory);
}

// Sink scopes nest: after an evaluation, faults go back to the log of the
// queue that was attached before it, not to the engine's.
TEST(FaultSink, ReturnsToTheOuterLogAfterAnEvaluation) {
  FaultFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::ProfilingLog outer;
  vcl::CommandQueue queue(device, outer);
  Engine engine = fx.make(device, StrategyKind::fusion, true);
  engine.evaluate(expressions::kQCriterion);

  vcl::FaultPlan plan;
  plan.fail_alloc_index = 1;
  device.fault().arm(plan);
  EXPECT_THROW(device.allocate(16), DeviceOutOfMemory);
  EXPECT_EQ(fault_events(outer), 1u);
  EXPECT_EQ(fault_events(engine.log()), 0u);
}

// ----- Distributed engine: one block's failure must stay one block's -----

struct DistFaultFixture {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 8, 8});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);

  distrib::ClusterConfig config() {
    distrib::ClusterConfig cfg;
    cfg.nodes = 1;
    cfg.devices_per_node = 2;
    cfg.device_spec = vcl::xeon_x5660_scaled();
    return cfg;
  }

  distrib::DistributedReport run(const distrib::ClusterConfig& cfg) {
    distrib::DistributedEngine engine(
        mesh, distrib::GridDecomposition({8, 8, 8}, 2, 1, 1), cfg);
    engine.bind_global("u", field.u);
    engine.bind_global("v", field.v);
    engine.bind_global("w", field.w);
    return engine.evaluate(expressions::kQCriterion,
                           StrategyKind::fusion);
  }
};

TEST(DistFault, SingleBlockDegradesInsteadOfFailingTheRun) {
  DistFaultFixture fx;
  const distrib::DistributedReport baseline = fx.run(fx.config());

  distrib::ClusterConfig cfg = fx.config();
  cfg.fault_plan.fail_alloc_index = 1;  // rank 0's first allocation
  const distrib::DistributedReport report = fx.run(cfg);

  EXPECT_EQ(report.degraded_blocks, 1u);
  EXPECT_EQ(report.strategy_degradations, 1u);
  EXPECT_EQ(report.device_losses, 0u);
  EXPECT_GE(report.injected_faults, 1u);
  EXPECT_EQ(report.values, baseline.values)
      << "a degraded block must still compute the exact field";
}

TEST(DistFault, LostDeviceIsReplacedAndTheBlockReRun) {
  DistFaultFixture fx;
  const distrib::DistributedReport baseline = fx.run(fx.config());

  distrib::ClusterConfig cfg = fx.config();
  cfg.fault_plan.lose_device_after = 2;
  const distrib::DistributedReport report = fx.run(cfg);

  EXPECT_EQ(report.device_losses, 1u);
  EXPECT_EQ(report.values, baseline.values);
}

TEST(DistFault, StrictClusterPropagatesTheLoss) {
  DistFaultFixture fx;
  distrib::ClusterConfig cfg = fx.config();
  cfg.fallback.enabled = false;
  cfg.fault_plan.lose_device_after = 2;
  EXPECT_THROW(fx.run(cfg), DeviceLost);
}

TEST(DistFault, BitFlipIsDetectedAndNeverPropagates) {
  DistFaultFixture fx;
  const distrib::DistributedReport baseline = fx.run(fx.config());

  distrib::ClusterConfig cfg = fx.config();
  cfg.fault_plan.corrupt_write_index = 1;  // one upload corrupted once
  const distrib::DistributedReport report = fx.run(cfg);

  EXPECT_EQ(report.checksum_mismatches, 1u);
  EXPECT_EQ(report.values, baseline.values)
      << "a detected flip must be invisible in the assembled field";
}

TEST(DistFault, PersistentCorruptionFailsWithDataCorruption) {
  DistFaultFixture fx;
  distrib::ClusterConfig cfg = fx.config();
  cfg.fault_plan.corrupt_write_index = 1;
  cfg.fault_plan.corrupt_count = 1 << 20;  // every transfer, forever
  // The queue's retries fail and no rung fixes a corrupting device: the
  // typed error escapes instead of an assembled field.
  EXPECT_THROW(fx.run(cfg), DataCorruption);
}

TEST(DistFault, LadderWideTimeoutFailsWithDeviceTimeout) {
  DistFaultFixture fx;
  distrib::ClusterConfig cfg = fx.config();
  cfg.fault_plan.slow_command_index = 1;
  cfg.fault_plan.slowdown_factor = 50.0;  // far past the 8x deadline
  // Every rung on the slowed device times out; the last rung's
  // DeviceTimeout fails the evaluation.
  EXPECT_THROW(fx.run(cfg), DeviceTimeout);
}

}  // namespace
