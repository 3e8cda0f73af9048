// Tests for the extended math-primitive set (sin, cos, tan, exp, log, tanh,
// floor, ceil) across the whole stack: registry, VM, fusion codegen,
// source printing, and end-to-end strategy equivalence.
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "kernels/primitives.hpp"
#include "kernels/source_printer.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "kernels/generator.hpp"
#include "mesh/generators.hpp"
#include "vcl/catalog.hpp"

namespace {

using namespace dfg;

struct UnaryCase {
  const char* name;
  float (*reference)(float);
};

float ref_sin(float x) { return std::sin(x); }
float ref_cos(float x) { return std::cos(x); }
float ref_tan(float x) { return std::tan(x); }
float ref_exp(float x) { return std::exp(x); }
float ref_log(float x) { return std::log(x); }
float ref_tanh(float x) { return std::tanh(x); }
float ref_floor(float x) { return std::floor(x); }
float ref_ceil(float x) { return std::ceil(x); }

class MathPrimitiveTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(MathPrimitiveTest, RegisteredWithMetadataAndSource) {
  const kernels::PrimitiveInfo* info =
      kernels::find_primitive(GetParam().name);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->arity, 1);
  EXPECT_EQ(info->result_components, 1);
  EXPECT_FALSE(info->ocl_source.empty());
}

TEST_P(MathPrimitiveTest, AllStrategiesMatchStdReference) {
  const UnaryCase& tc = GetParam();
  std::vector<float> input;
  for (float x = 0.1f; x < 3.0f; x += 0.37f) input.push_back(x);

  vcl::Device device(vcl::xeon_x5660_scaled());
  const std::string expression = std::string("r = ") + tc.name + "(u)";
  for (const auto kind :
       {runtime::StrategyKind::roundtrip, runtime::StrategyKind::staged,
        runtime::StrategyKind::fusion, runtime::StrategyKind::streamed}) {
    Engine engine(device, {kind, {}});
    engine.bind("u", input);
    const auto report = engine.evaluate(expression);
    ASSERT_EQ(report.values.size(), input.size());
    for (std::size_t i = 0; i < input.size(); ++i) {
      ASSERT_FLOAT_EQ(report.values[i], tc.reference(input[i]))
          << tc.name << "(" << input[i] << ") under "
          << runtime::strategy_name(kind);
    }
  }
}

TEST_P(MathPrimitiveTest, FusedSourceRendersBuiltinCall) {
  const std::string expression = std::string("r = ") + GetParam().name + "(u)";
  const dataflow::Network network(dataflow::build_network(expression));
  // The text after __kernel: the assertion must hold in the kernel body.
  const std::string src =
      kernels::to_opencl_source(kernels::generate_fused(network));
  const std::size_t body = src.find("__kernel");
  ASSERT_NE(body, std::string::npos);
  EXPECT_NE(src.find(std::string(GetParam().name) + "(", body),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryBuiltins, MathPrimitiveTest,
    ::testing::Values(UnaryCase{"sin", ref_sin}, UnaryCase{"cos", ref_cos},
                      UnaryCase{"tan", ref_tan}, UnaryCase{"exp", ref_exp},
                      UnaryCase{"log", ref_log}, UnaryCase{"tanh", ref_tanh},
                      UnaryCase{"floor", ref_floor},
                      UnaryCase{"ceil", ref_ceil}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(MathPrimitives, ComposeInsideExpressions) {
  vcl::Device device(vcl::xeon_x5660_scaled());
  const std::vector<float> u{0.25f, 1.0f, 2.25f};
  Engine engine(device);
  engine.bind("u", u);
  // log(exp(x)) == x ; sin^2 + cos^2 == 1 ; pythagorean smoke test.
  const auto r1 = engine.evaluate("r = log(exp(u))");
  const auto r2 = engine.evaluate("r = sin(u)*sin(u) + cos(u)*cos(u)");
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(r1.values[i], u[i], 1e-5f);
    EXPECT_NEAR(r2.values[i], 1.0f, 1e-6f);
  }
}

TEST(MathPrimitives, TrigonometricIdentityOnAbcFlow) {
  // The ABC flow expressed through framework primitives instead of a
  // generator: u = sin(z) + cos(y) recomputed from coordinates must match
  // the bound field.
  const float two_pi = 6.2831853f;
  const mesh::RectilinearMesh mesh =
      mesh::RectilinearMesh::uniform({8, 8, 8}, two_pi, two_pi, two_pi);
  const mesh::VectorField field = mesh::abc_flow(mesh);
  vcl::Device device(vcl::xeon_x5660_scaled());
  Engine engine(device);
  engine.bind_mesh(mesh);
  engine.bind("u", field.u);
  const auto report = engine.evaluate("r = sin(z) + cos(y) - u");
  for (const float residual : report.values) {
    ASSERT_NEAR(residual, 0.0f, 1e-5f);
  }
}

TEST(MathPrimitives, FloorCeilIntegality) {
  vcl::Device device(vcl::xeon_x5660_scaled());
  const std::vector<float> u{-1.5f, -0.2f, 0.0f, 0.4f, 2.6f};
  Engine engine(device);
  engine.bind("u", u);
  const auto gap = engine.evaluate("r = ceil(u) - floor(u)");
  EXPECT_FLOAT_EQ(gap.values[2], 0.0f);  // integer input
  for (const std::size_t i : {0u, 1u, 3u, 4u}) {
    EXPECT_FLOAT_EQ(gap.values[i], 1.0f);
  }
}

}  // namespace
