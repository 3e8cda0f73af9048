// Integration tests for the execution strategies: cross-strategy result
// equivalence, failure behaviour under memory pressure, and the strategy
// trade-offs the paper's discussion section calls out.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "mesh/generators.hpp"
#include "runtime/planner.hpp"
#include "runtime/strategy.hpp"
#include "support/error.hpp"
#include "vcl/catalog.hpp"

namespace {

using namespace dfg;
using runtime::StrategyKind;

struct Fixture {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({6, 5, 7});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  vcl::Device device{vcl::xeon_x5660_scaled()};

  Engine make_engine(StrategyKind kind) {
    Engine engine(device, {kind, {}});
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    return engine;
  }
};

std::vector<float> evaluate(Fixture& fx, StrategyKind kind,
                            const char* expression) {
  Engine engine = fx.make_engine(kind);
  return engine.evaluate(expression).values;
}

class EquivalenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EquivalenceTest, AllStrategiesProduceTheSameField) {
  Fixture fx;
  const auto roundtrip = evaluate(fx, StrategyKind::roundtrip, GetParam());
  const auto staged = evaluate(fx, StrategyKind::staged, GetParam());
  const auto fusion = evaluate(fx, StrategyKind::fusion, GetParam());
  ASSERT_EQ(roundtrip.size(), staged.size());
  ASSERT_EQ(roundtrip.size(), fusion.size());
  for (std::size_t i = 0; i < roundtrip.size(); ++i) {
    // Identical primitive implementations => identical float results.
    ASSERT_EQ(roundtrip[i], staged[i]) << "cell " << i;
    ASSERT_EQ(roundtrip[i], fusion[i]) << "cell " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Expressions, EquivalenceTest,
    ::testing::Values(
        expressions::kVelocityMagnitude, expressions::kVorticityMagnitude,
        expressions::kQCriterion,
        "r = u + v * w - u / (v + 10.0)",
        "a = u - 0.25\nb = a * a\nr = sqrt(b + 1.0)",
        "r = min(u, max(v, w)) + abs(u)",
        "r = if (u > v) then (u) else (v)",
        "du = grad3d(u, dims, x, y, z)\nr = du[0] + du[1] + du[2]",
        "r = pow(abs(u) + 1.0, 2.0)",
        "r = -u * -v",
        "r = 3.0"));

TEST(Strategies, ConditionalSelectsPerElement) {
  Fixture fx;
  const auto result =
      evaluate(fx, StrategyKind::fusion, "r = if (u > 0.0) then (u) else (-u)");
  for (std::size_t i = 0; i < result.size(); ++i) {
    ASSERT_NEAR(result[i], std::fabs(fx.field.u[i]), 1e-6f);
  }
}

TEST(Strategies, UnboundFieldNamedInError) {
  Fixture fx;
  Engine engine = fx.make_engine(StrategyKind::staged);
  try {
    engine.evaluate("r = u + missing_field");
    FAIL() << "expected NetworkError";
  } catch (const NetworkError& err) {
    EXPECT_NE(std::string(err.what()).find("missing_field"),
              std::string::npos);
  }
}

TEST(Strategies, IdentityExpressionReturnsInput) {
  Fixture fx;
  for (const auto kind : {StrategyKind::roundtrip, StrategyKind::staged,
                          StrategyKind::fusion}) {
    const auto result = evaluate(fx, kind, "r = u + 0.0");
    for (std::size_t i = 0; i < result.size(); ++i) {
      ASSERT_EQ(result[i], fx.field.u[i]);
    }
  }
}

TEST(Strategies, ConstantExpressionFillsField) {
  Fixture fx;
  for (const auto kind : {StrategyKind::roundtrip, StrategyKind::staged,
                          StrategyKind::fusion}) {
    const auto result = evaluate(fx, kind, "r = 2.0 * 3.0");
    for (const float v : result) ASSERT_EQ(v, 6.0f);
  }
}

constexpr StrategyKind kAllStrategies[] = {
    StrategyKind::roundtrip, StrategyKind::staged, StrategyKind::fusion,
    StrategyKind::streamed};

// A bare field output bound shorter than the grid: every strategy refuses
// it with a typed error, before any device command, and releases every
// buffer (roundtrip once copied past the end of the binding; staged
// returned the binding padded with zeros).
TEST(Strategies, ShortBareFieldOutputThrowsOnEveryStrategy) {
  const mesh::RectilinearMesh mesh =
      mesh::RectilinearMesh::uniform({10, 12, 14});
  const std::vector<float> short_u(100, 1.5f);
  runtime::FieldBindings bindings;
  bindings.bind_mesh(mesh);
  bindings.bind("u", short_u);
  for (const char* expression : {"r = dims", "r = u"}) {
    const dataflow::Network network(dataflow::build_network(expression));
    for (const StrategyKind kind : kAllStrategies) {
      vcl::Device device(vcl::xeon_x5660_scaled());
      vcl::ProfilingLog log;
      EXPECT_THROW(runtime::make_strategy(kind)->execute(
                       network, bindings, mesh.cell_count(), device, log),
                   Error)
          << expression << " under " << runtime::strategy_name(kind);
      EXPECT_EQ(device.memory().in_use(), 0u) << expression;
      EXPECT_TRUE(log.events().empty())
          << expression << " under " << runtime::strategy_name(kind);
    }
  }
}

// An input field bound shorter than the grid is a caller's mistake: every
// strategy and the planner refuse it with a NetworkError naming the field,
// before any device command. It must never surface as the KernelError
// that the ladder, admission and select_strategy read as "this rung cannot
// run the network".
TEST(Strategies, ShortInputFieldThrowsBeforeAnyDeviceCommand) {
  const mesh::RectilinearMesh mesh =
      mesh::RectilinearMesh::uniform({10, 12, 14});
  const std::size_t cells = mesh.cell_count();
  const std::vector<float> full(cells, 0.5f);
  const std::vector<float> short_field(100, 1.5f);
  struct Case {
    const char* expression;
    const char* short_name;
  };
  for (const Case& c : {Case{"r = u + v", "v"}, Case{"r = u + v", "u"},
                        Case{"r = grad3d(u, dims, x, y, z)[0]", "u"}}) {
    runtime::FieldBindings bindings;
    bindings.bind_mesh(mesh);
    for (const char* name : {"u", "v"}) {
      bindings.bind(name, name == std::string(c.short_name)
                              ? std::span<const float>(short_field)
                              : std::span<const float>(full));
    }
    const dataflow::Network network(dataflow::build_network(c.expression));
    for (const StrategyKind kind : kAllStrategies) {
      SCOPED_TRACE(std::string(c.expression) + " with short " +
                   c.short_name + " under " + runtime::strategy_name(kind));
      vcl::Device device(vcl::xeon_x5660_scaled());
      vcl::ProfilingLog log;
      try {
        runtime::make_strategy(kind)->execute(network, bindings, cells,
                                              device, log);
        ADD_FAILURE() << "expected NetworkError";
      } catch (const NetworkError& err) {
        EXPECT_NE(std::string(err.what()).find("'" +
                                               std::string(c.short_name) +
                                               "'"),
                  std::string::npos)
            << err.what();
      }
      EXPECT_TRUE(log.events().empty());
      EXPECT_EQ(device.memory().in_use(), 0u);
      EXPECT_THROW(runtime::estimate_high_water(network, bindings, cells, kind),
                   NetworkError);
    }
  }
}

// A binding longer than the grid stays legal: the result is its prefix.
TEST(Strategies, LongBareFieldOutputIsTruncatedToTheGrid) {
  const std::size_t cells = 60;
  std::vector<float> long_u(cells + 7);
  for (std::size_t i = 0; i < long_u.size(); ++i) {
    long_u[i] = static_cast<float>(i);
  }
  runtime::FieldBindings bindings;
  bindings.bind("u", long_u);
  const dataflow::Network network(dataflow::build_network("r = u"));
  for (const StrategyKind kind : kAllStrategies) {
    vcl::Device device(vcl::xeon_x5660_scaled());
    vcl::ProfilingLog log;
    const std::vector<float> result = runtime::make_strategy(kind)->execute(
        network, bindings, cells, device, log);
    EXPECT_EQ(result, std::vector<float>(long_u.begin(),
                                         long_u.begin() + cells))
        << runtime::strategy_name(kind);
  }
}

// ----- Memory-pressure behaviour (the paper's §V-D discussion) -----

/// A device sized so that staged Q-criterion does not fit but roundtrip
/// does: roundtrip can use host memory for intermediates, which is exactly
/// the capability the paper keeps it around for.
TEST(Strategies, RoundtripSurvivesWhereStagedFailsOnSmallDevice) {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({16, 16, 16});
  const mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  const std::size_t cells = mesh.cell_count();

  vcl::DeviceSpec spec = vcl::tesla_m2050_scaled();
  // Roundtrip's Q-crit peak is the gradient kernel: the field, the three
  // problem-sized coordinate arrays, dims and the float4 output — just
  // over 8 problem arrays. Staged peaks far higher (~30 arrays). Pick 10
  // arrays of headroom.
  spec.global_mem_bytes = 10 * cells * sizeof(float);
  vcl::Device device(spec);

  Engine engine(device, {StrategyKind::staged, {}});
  engine.bind_mesh(mesh);
  engine.bind("u", field.u);
  engine.bind("v", field.v);
  engine.bind("w", field.w);
  EXPECT_THROW(engine.evaluate(expressions::kQCriterion),
               DeviceOutOfMemory);

  engine.set_strategy(StrategyKind::roundtrip);
  const auto report = engine.evaluate(expressions::kQCriterion);
  EXPECT_EQ(report.values.size(), cells);
}

TEST(Strategies, FusionFailsWhenInputsExceedDevice) {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({16, 16, 16});
  const mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  vcl::DeviceSpec spec = vcl::tesla_m2050_scaled();
  spec.global_mem_bytes = 3 * mesh.cell_count() * sizeof(float);
  vcl::Device device(spec);
  Engine engine(device, {StrategyKind::fusion, {}});
  engine.bind_mesh(mesh);
  engine.bind("u", field.u);
  engine.bind("v", field.v);
  engine.bind("w", field.w);
  // velocity magnitude needs 3 inputs + 1 output > 3 arrays of capacity.
  EXPECT_THROW(engine.evaluate(expressions::kVelocityMagnitude),
               DeviceOutOfMemory);
}

TEST(Strategies, FailedRunReleasesAllDeviceMemory) {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({16, 16, 16});
  const mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  vcl::DeviceSpec spec = vcl::tesla_m2050_scaled();
  spec.global_mem_bytes = 8 * mesh.cell_count() * sizeof(float);
  vcl::Device device(spec);
  Engine engine(device, {StrategyKind::staged, {}});
  engine.bind_mesh(mesh);
  engine.bind("u", field.u);
  engine.bind("v", field.v);
  engine.bind("w", field.w);
  EXPECT_THROW(engine.evaluate(expressions::kQCriterion), DeviceOutOfMemory);
  EXPECT_EQ(device.memory().in_use(), 0u)
      << "RAII buffers must unwind cleanly after OOM";
  // The device remains usable for a strategy that fits.
  engine.set_strategy(StrategyKind::fusion);
  EXPECT_EQ(engine.evaluate(expressions::kVelocityMagnitude).values.size(),
            mesh.cell_count());
}

// ----- Simulated runtime ordering (Figure 5's headline shape) -----

TEST(Strategies, SimulatedRuntimeOrderingFusionStagedRoundtrip) {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({24, 24, 24});
  const mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  vcl::Device device(vcl::tesla_m2050_scaled());
  Engine engine(device, {StrategyKind::roundtrip, {}});
  engine.bind_mesh(mesh);
  engine.bind("u", field.u);
  engine.bind("v", field.v);
  engine.bind("w", field.w);

  const double roundtrip =
      engine.evaluate(expressions::kQCriterion).sim_seconds;
  engine.set_strategy(StrategyKind::staged);
  const double staged = engine.evaluate(expressions::kQCriterion).sim_seconds;
  engine.set_strategy(StrategyKind::fusion);
  const double fusion = engine.evaluate(expressions::kQCriterion).sim_seconds;

  EXPECT_LT(fusion, staged);
  EXPECT_LT(staged, roundtrip);
}

TEST(Strategies, GpuFasterThanCpuWhenItFits) {
  // Needs an evaluation-scale grid: on tiny grids the GPU's per-transfer
  // latency dominates and the CPU wins, as on real hardware.
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({48, 48, 64});
  const mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  vcl::Device cpu(vcl::xeon_x5660_scaled());
  vcl::Device gpu(vcl::tesla_m2050_scaled());
  double times[2];
  vcl::Device* devices[2] = {&cpu, &gpu};
  for (int d = 0; d < 2; ++d) {
    Engine engine(*devices[d], {StrategyKind::fusion, {}});
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    times[d] = engine.evaluate(expressions::kQCriterion).sim_seconds;
  }
  EXPECT_LT(times[1], times[0]);
}

}  // namespace
