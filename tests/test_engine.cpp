// Tests for the host interface (dfg::Engine): reports, in-situ reuse across
// time steps, element-count inference and error behaviour.
#include <gtest/gtest.h>

#include <string>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "mesh/generators.hpp"
#include "support/error.hpp"
#include "vcl/catalog.hpp"

namespace {

using namespace dfg;
using runtime::StrategyKind;

struct EngineFixture {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({6, 6, 6});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  vcl::Device device{vcl::xeon_x5660_scaled()};

  Engine make(StrategyKind kind = StrategyKind::fusion) {
    Engine engine(device, {kind, {}});
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    return engine;
  }
};

TEST(Engine, ReportCarriesProfilingSnapshot) {
  EngineFixture fx;
  Engine engine = fx.make(StrategyKind::staged);
  const EvaluationReport report =
      engine.evaluate(expressions::kVelocityMagnitude);
  EXPECT_EQ(report.strategy, "staged");
  EXPECT_EQ(report.elements, fx.mesh.cell_count());
  EXPECT_EQ(report.dev_writes, 3u);
  EXPECT_EQ(report.dev_reads, 1u);
  EXPECT_EQ(report.kernel_execs, 6u);
  EXPECT_GT(report.sim_seconds, 0.0);
  EXPECT_GE(report.wall_seconds, 0.0);
  EXPECT_GT(report.memory_high_water_bytes, 0u);
}

TEST(Engine, ReportIsPerEvaluationNotCumulative) {
  EngineFixture fx;
  Engine engine = fx.make(StrategyKind::fusion);
  const auto first = engine.evaluate(expressions::kVelocityMagnitude);
  const auto second = engine.evaluate(expressions::kVelocityMagnitude);
  EXPECT_EQ(first.dev_writes, second.dev_writes);
  EXPECT_EQ(first.kernel_execs, second.kernel_execs);
  EXPECT_EQ(second.kernel_execs, 1u);
}

TEST(Engine, NetworkScriptDumpIsInspectable) {
  EngineFixture fx;
  Engine engine = fx.make();
  const auto report = engine.evaluate(expressions::kVelocityMagnitude);
  EXPECT_NE(report.network_script.find("add_field_source(\"u\")"),
            std::string::npos);
  EXPECT_NE(report.network_script.find("add_filter(\"sqrt\""),
            std::string::npos);
}

TEST(Engine, FusionReportsGeneratedKernelSource) {
  EngineFixture fx;
  Engine engine = fx.make(StrategyKind::fusion);
  const auto report = engine.evaluate(expressions::kVorticityMagnitude);
  EXPECT_NE(report.kernel_source.find("__kernel"), std::string::npos);
  EXPECT_NE(report.kernel_source.find("grad3d"), std::string::npos);
}

TEST(Engine, NonFusionStrategiesReportNoKernelSource) {
  EngineFixture fx;
  Engine engine = fx.make(StrategyKind::staged);
  const auto report = engine.evaluate(expressions::kVelocityMagnitude);
  EXPECT_TRUE(report.kernel_source.empty());
}

TEST(Engine, RebindingSimulatesTimeSteps) {
  // In-situ usage: the host rebinds per-time-step arrays and re-evaluates.
  EngineFixture fx;
  Engine engine = fx.make();
  const auto t0 = engine.evaluate(expressions::kVelocityMagnitude);

  const mesh::VectorField step2 = mesh::rayleigh_taylor_flow(fx.mesh, 99);
  engine.bind("u", step2.u);
  engine.bind("v", step2.v);
  engine.bind("w", step2.w);
  const auto t1 = engine.evaluate(expressions::kVelocityMagnitude);
  EXPECT_NE(t0.values, t1.values);
}

TEST(Engine, StrategySwitchMidSession) {
  EngineFixture fx;
  Engine engine = fx.make(StrategyKind::roundtrip);
  const auto a = engine.evaluate(expressions::kVelocityMagnitude);
  engine.set_strategy(StrategyKind::fusion);
  const auto b = engine.evaluate(expressions::kVelocityMagnitude);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(b.kernel_execs, 1u);
}

TEST(Engine, InfersElementsFromBoundFieldWithoutMesh) {
  vcl::Device device(vcl::xeon_x5660_scaled());
  Engine engine(device);
  const std::vector<float> u{1.0f, 2.0f, 3.0f, 4.0f};
  engine.bind("u", u);
  const auto report = engine.evaluate("r = u * u");
  ASSERT_EQ(report.values.size(), 4u);
  EXPECT_FLOAT_EQ(report.values[3], 16.0f);
}

TEST(Engine, PureConstantExpressionNeedsExplicitElements) {
  vcl::Device device(vcl::xeon_x5660_scaled());
  Engine engine(device);
  EXPECT_THROW(engine.evaluate("r = 1.0 + 2.0"), Error);
  const auto report = engine.evaluate("r = 1.0 + 2.0", 5);
  ASSERT_EQ(report.values.size(), 5u);
  EXPECT_FLOAT_EQ(report.values[4], 3.0f);
}

TEST(Engine, ZeroElementsRejected) {
  vcl::Device device(vcl::xeon_x5660_scaled());
  Engine engine(device);
  EXPECT_THROW(engine.evaluate("r = 1.0", 0), Error);
}

TEST(Engine, ParseErrorsPropagateWithPositions) {
  EngineFixture fx;
  Engine engine = fx.make();
  EXPECT_THROW(engine.evaluate("v_mag = sqrt(u*u +"), ParseError);
  // Too deep to build a network from without overflowing the stack.
  std::string sum = "q = u";
  for (int i = 1; i < 100000; ++i) sum += "+u";
  EXPECT_THROW(engine.evaluate(sum), ParseError);
}

TEST(Engine, OutputNameIsLastAssignment) {
  EngineFixture fx;
  Engine engine = fx.make();
  EXPECT_EQ(engine.evaluate("a = u\nb = a * a").output_name, "b");
}

TEST(Engine, IntroConditionalExpressionRuns) {
  // The paper's introduction example, end to end.
  EngineFixture fx;
  Engine engine = fx.make();
  engine.bind("b", fx.field.u);
  engine.bind("c", fx.field.v);
  const auto report = engine.evaluate(expressions::kIntroConditional);
  ASSERT_EQ(report.values.size(), fx.mesh.cell_count());
  EXPECT_EQ(report.output_name, "a");
}

TEST(Engine, SpecOptionsControlCse) {
  EngineFixture fx;
  EngineOptions options;
  options.strategy = StrategyKind::staged;
  options.spec_options.cse = false;
  Engine engine(fx.device, options);
  engine.bind_mesh(fx.mesh);
  engine.bind("u", fx.field.u);
  engine.bind("v", fx.field.v);
  engine.bind("w", fx.field.w);
  const auto no_cse = engine.evaluate(expressions::kQCriterion);

  Engine engine2 = fx.make(StrategyKind::staged);
  const auto with_cse = engine2.evaluate(expressions::kQCriterion);
  EXPECT_GT(no_cse.kernel_execs, with_cse.kernel_execs)
      << "CSE must reduce kernel dispatches";
  // Same numeric result either way.
  EXPECT_EQ(no_cse.values, with_cse.values);
}

}  // namespace
