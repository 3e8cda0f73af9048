// Tests for the memory planner: predictions must equal the tracker's
// measured high-water mark bit for bit, and the simulated-time estimate the
// executed simulated time, for every strategy and expression; strategy
// selection must pick the fastest strategy that fits.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "kernels/backend.hpp"
#include "mesh/generators.hpp"
#include "runtime/planner.hpp"
#include "support/error.hpp"
#include "vcl/catalog.hpp"

namespace {

using namespace dfg;
using runtime::StrategyKind;

struct PlannerFixture {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({10, 12, 14});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  vcl::DeviceSpec spec = vcl::xeon_x5660_scaled();

  runtime::FieldBindings bindings() const {
    runtime::FieldBindings b;
    b.bind_mesh(mesh);
    b.bind("u", field.u);
    b.bind("v", field.v);
    b.bind("w", field.w);
    return b;
  }

  EvaluationReport run(StrategyKind kind, const char* expression,
                       std::size_t chunk = 0) {
    vcl::Device device(spec);
    EngineOptions options;
    options.strategy = kind;
    options.streamed_chunk_cells = chunk;
    Engine engine(device, options);
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    EvaluationReport report = engine.evaluate(expression);
    efficiency = device.backend().compute_efficiency();
    return report;
  }

  /// Compute efficiency of the backend the last run() executed under.
  double efficiency = 0.0;

  std::size_t measured(StrategyKind kind, const char* expression,
                       std::size_t chunk = 0) {
    return run(kind, expression, chunk).memory_high_water_bytes;
  }

  std::size_t predicted(StrategyKind kind, const char* expression,
                        std::size_t chunk = 0) const {
    const dataflow::Network network(dataflow::build_network(expression));
    const auto b = bindings();
    return runtime::estimate_high_water(network, b, mesh.cell_count(), kind,
                                        chunk);
  }

  double predicted_sim_seconds(StrategyKind kind, const char* expression,
                               std::size_t chunk, double efficiency) const {
    const dataflow::Network network(dataflow::build_network(expression));
    const auto b = bindings();
    return runtime::estimate_sim_seconds(network, b, mesh.cell_count(), spec,
                                         kind, chunk, efficiency);
  }
};

struct PlannerCase {
  const char* label;
  const char* expression;
  StrategyKind kind;
  /// Streamed chunk in z-planes of the fixture grid; 0 for the whole-grid
  /// strategies. A streamed case needs an explicit chunk: with 0 the
  /// estimate prices one-plane chunks while the engine auto-sizes them.
  /// 32 bits, so the case stays 24 bytes and the test names gtest derives
  /// from its bytes keep their prefix.
  std::uint32_t chunk_planes = 0;
};

class PlannerExactness : public ::testing::TestWithParam<PlannerCase> {};

TEST_P(PlannerExactness, PredictionEqualsMeasurement) {
  PlannerFixture fx;
  const PlannerCase& tc = GetParam();
  const std::size_t chunk = tc.chunk_planes * std::size_t{10 * 12};
  const EvaluationReport report = fx.run(tc.kind, tc.expression, chunk);
  EXPECT_EQ(fx.predicted(tc.kind, tc.expression, chunk),
            report.memory_high_water_bytes)
      << tc.expression;
  EXPECT_NEAR(
      fx.predicted_sim_seconds(tc.kind, tc.expression, chunk, fx.efficiency),
      report.sim_seconds, 1e-12 + 1e-9 * report.sim_seconds)
      << tc.expression;
}

const PlannerCase kCases[] = {
    {"VelMag_roundtrip", expressions::kVelocityMagnitude,
     StrategyKind::roundtrip},
    {"VelMag_staged", expressions::kVelocityMagnitude, StrategyKind::staged},
    {"VelMag_fusion", expressions::kVelocityMagnitude, StrategyKind::fusion},
    {"VortMag_roundtrip", expressions::kVorticityMagnitude,
     StrategyKind::roundtrip},
    {"VortMag_staged", expressions::kVorticityMagnitude,
     StrategyKind::staged},
    {"VortMag_fusion", expressions::kVorticityMagnitude,
     StrategyKind::fusion},
    {"QCrit_roundtrip", expressions::kQCriterion, StrategyKind::roundtrip},
    {"QCrit_staged", expressions::kQCriterion, StrategyKind::staged},
    {"QCrit_fusion", expressions::kQCriterion, StrategyKind::fusion},
    {"Conditional_staged", "r = if (u > v) then (u*u) else (w)",
     StrategyKind::staged},
    {"Conditional_roundtrip", "r = if (u > v) then (u*u) else (w)",
     StrategyKind::roundtrip},
    {"Constants_staged", "r = 0.5 * u + 0.25", StrategyKind::staged},
    {"Constants_roundtrip", "r = 0.5 * u + 0.25", StrategyKind::roundtrip},
    {"QCrit_streamed_3planes", expressions::kQCriterion,
     StrategyKind::streamed, 3},
    {"QCrit_streamed_6planes", expressions::kQCriterion,
     StrategyKind::streamed, 6},
    {"Constants_streamed_3planes", "r = 0.5 * u + 0.25",
     StrategyKind::streamed, 3},
    // The partitioned pipeline (gradient of a computed value): fusion keeps
    // the materialised stage output on the device between its two kernels.
    {"Partitioned_fusion", expressions::kSpeedFrontStrength,
     StrategyKind::fusion},
    {"Partitioned_staged", expressions::kSpeedFrontStrength,
     StrategyKind::staged},
    {"Partitioned_roundtrip", expressions::kSpeedFrontStrength,
     StrategyKind::roundtrip},
};

INSTANTIATE_TEST_SUITE_P(AllStrategies, PlannerExactness,
                         ::testing::ValuesIn(kCases),
                         [](const auto& info) {
                           return std::string(info.param.label);
                         });

TEST(Planner, StreamedPredictionEqualsMeasurementPerChunk) {
  PlannerFixture fx;
  const std::size_t plane = 10 * 12;
  for (const std::size_t chunk : {3 * plane, 6 * plane, 14 * plane}) {
    EXPECT_EQ(
        fx.predicted(StrategyKind::streamed, expressions::kQCriterion, chunk),
        fx.measured(StrategyKind::streamed, expressions::kQCriterion, chunk))
        << "chunk " << chunk;
  }
}

TEST(Planner, StreamedFloorIsSmallestFootprint) {
  PlannerFixture fx;
  const std::size_t floor =
      fx.predicted(StrategyKind::streamed, expressions::kQCriterion, 0);
  EXPECT_LT(floor,
            fx.predicted(StrategyKind::fusion, expressions::kQCriterion));
  EXPECT_LT(floor,
            fx.predicted(StrategyKind::roundtrip, expressions::kQCriterion));
}

TEST(Planner, StreamedEstimatesThrowWhereStreamedCannotRun) {
  // Streamed has no partitioned pipeline: both estimators refuse a
  // gradient of a computed value, as the strategy itself does.
  PlannerFixture fx;
  const dataflow::Network network(
      dataflow::build_network(expressions::kSpeedFrontStrength));
  const auto bindings = fx.bindings();
  const std::size_t cells = fx.mesh.cell_count();
  EXPECT_THROW(runtime::estimate_high_water(network, bindings, cells,
                                            StrategyKind::streamed),
               KernelError);
  EXPECT_THROW(runtime::estimate_sim_seconds(network, bindings, cells,
                                             fx.spec, StrategyKind::streamed,
                                             0,
                                             kernels::kInterpretedEfficiency),
               KernelError);
}

TEST(Planner, SelectPrefersFusionWhenEverythingFits) {
  PlannerFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  const dataflow::Network network(
      dataflow::build_network(expressions::kQCriterion));
  const auto bindings = fx.bindings();
  EXPECT_EQ(runtime::select_strategy(network, bindings, fx.mesh.cell_count(),
                                     device),
            StrategyKind::fusion);
}

TEST(Planner, SelectFallsBackToStreamedUnderPressure) {
  PlannerFixture fx;
  const std::size_t cells = fx.mesh.cell_count();
  vcl::DeviceSpec spec = vcl::tesla_m2050_scaled();
  spec.global_mem_bytes = 4 * cells * sizeof(float);  // < fusion's 8 arrays
  vcl::Device device(spec);
  const dataflow::Network network(
      dataflow::build_network(expressions::kQCriterion));
  const auto bindings = fx.bindings();
  EXPECT_EQ(runtime::select_strategy(network, bindings, cells, device),
            StrategyKind::streamed);
}

TEST(Planner, SelectAccountsForMemoryAlreadyInUse) {
  PlannerFixture fx;
  const std::size_t cells = fx.mesh.cell_count();
  vcl::DeviceSpec spec = vcl::tesla_m2050_scaled();
  spec.global_mem_bytes = 10 * cells * sizeof(float);
  vcl::Device device(spec);
  const dataflow::Network network(
      dataflow::build_network(expressions::kQCriterion));
  const auto bindings = fx.bindings();
  EXPECT_EQ(runtime::select_strategy(network, bindings, cells, device),
            StrategyKind::fusion);
  // Another tenant occupies most of the device: fusion no longer fits the
  // *free* memory.
  vcl::Buffer resident = device.allocate(5 * cells);
  EXPECT_EQ(runtime::select_strategy(network, bindings, cells, device),
            StrategyKind::streamed);
}

TEST(Planner, SelectThrowsWhenNothingFits) {
  PlannerFixture fx;
  vcl::DeviceSpec spec = vcl::tesla_m2050_scaled();
  spec.global_mem_bytes = 1024;  // not even one plane
  vcl::Device device(spec);
  const dataflow::Network network(
      dataflow::build_network(expressions::kQCriterion));
  const auto bindings = fx.bindings();
  EXPECT_THROW(
      runtime::select_strategy(network, bindings, fx.mesh.cell_count(),
                               device),
      DeviceOutOfMemory);
}

TEST(Planner, SelectedStrategyActuallyExecutes) {
  // Property: whatever the planner picks must run without OOM on that
  // device, across a range of capacities.
  PlannerFixture fx;
  const std::size_t cells = fx.mesh.cell_count();
  const auto bindings = fx.bindings();
  const dataflow::Network network(
      dataflow::build_network(expressions::kQCriterion));
  for (const std::size_t arrays : {3u, 5u, 9u, 20u, 40u}) {
    vcl::DeviceSpec spec = vcl::tesla_m2050_scaled();
    spec.global_mem_bytes = arrays * cells * sizeof(float);
    vcl::Device device(spec);
    const StrategyKind kind =
        runtime::select_strategy(network, bindings, cells, device);
    vcl::ProfilingLog log;
    const auto strategy = runtime::make_strategy(kind);
    EXPECT_NO_THROW(strategy->execute(network, bindings, cells, device, log))
        << arrays << " arrays -> " << runtime::strategy_name(kind);
  }
}

}  // namespace
