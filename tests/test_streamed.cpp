// Tests for the streamed-fusion strategy — the paper's first future-work
// execution mode.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "kernels/generator.hpp"
#include "core/expressions.hpp"
#include "mesh/generators.hpp"
#include "runtime/slab.hpp"
#include "runtime/strategy.hpp"
#include "support/error.hpp"
#include "vcl/catalog.hpp"

namespace {

using namespace dfg;
using runtime::StrategyKind;

struct StreamFixture {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({12, 10, 24});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);

  Engine make(vcl::Device& device, StrategyKind kind,
              std::size_t chunk_cells = 0) {
    EngineOptions options;
    options.strategy = kind;
    options.streamed_chunk_cells = chunk_cells;
    Engine engine(device, options);
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    return engine;
  }
};

class StreamedEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(StreamedEquivalence, BitMatchesFusionAtSeveralChunkSizes) {
  StreamFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  const auto fusion =
      fx.make(device, StrategyKind::fusion).evaluate(GetParam()).values;
  const std::size_t plane = 12 * 10;
  for (const std::size_t chunk_cells :
       {plane, 3 * plane, 7 * plane, 24 * plane, std::size_t{0}}) {
    const auto streamed = fx.make(device, StrategyKind::streamed, chunk_cells)
                              .evaluate(GetParam())
                              .values;
    ASSERT_EQ(streamed.size(), fusion.size());
    for (std::size_t i = 0; i < fusion.size(); ++i) {
      ASSERT_EQ(streamed[i], fusion[i])
          << "cell " << i << " chunk " << chunk_cells;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Expressions, StreamedEquivalence,
    ::testing::Values(expressions::kVelocityMagnitude,
                      expressions::kVorticityMagnitude,
                      expressions::kQCriterion,
                      "r = if (u > 0.0) then (sqrt(abs(u))) else (-u)"));

TEST(Streamed, RunsWhereFusionCannotFit) {
  // The whole point of streaming: a device too small for fusion's full
  // working set still completes, with memory bounded by the chunk.
  StreamFixture fx;
  const std::size_t cells = fx.mesh.cell_count();
  vcl::DeviceSpec spec = vcl::tesla_m2050_scaled();
  spec.global_mem_bytes = 3 * cells * sizeof(float);  // < 8 arrays
  vcl::Device device(spec);

  Engine fusion_engine = fx.make(device, StrategyKind::fusion);
  EXPECT_THROW(fusion_engine.evaluate(expressions::kQCriterion),
               DeviceOutOfMemory);

  Engine streamed_engine = fx.make(device, StrategyKind::streamed);
  const auto report = streamed_engine.evaluate(expressions::kQCriterion);
  EXPECT_EQ(report.values.size(), cells);
  EXPECT_LE(report.memory_high_water_bytes, spec.global_mem_bytes);

  vcl::Device roomy(vcl::xeon_x5660_scaled());
  const auto fusion =
      fx.make(roomy, StrategyKind::fusion).evaluate(expressions::kQCriterion);
  EXPECT_EQ(report.values, fusion.values);
}

TEST(Streamed, EventCountsScaleWithChunks) {
  StreamFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  const std::size_t plane = 12 * 10;
  // 24 planes in chunks of 6 -> 4 chunks; Q-criterion has 7 slabbed params
  // plus the rewritten dims, one kernel and one read per chunk.
  Engine engine = fx.make(device, StrategyKind::streamed, 8 * plane);
  const auto report = engine.evaluate(expressions::kQCriterion);
  EXPECT_EQ(report.kernel_execs, 4u);
  EXPECT_EQ(report.dev_reads, 4u);
  EXPECT_EQ(report.dev_writes, 4u * 7u);
  EXPECT_EQ(report.strategy, "streamed");
  EXPECT_FALSE(report.kernel_source.empty());
}

TEST(Streamed, SingleChunkDegeneratesToFusionEvents) {
  StreamFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  Engine engine =
      fx.make(device, StrategyKind::streamed, fx.mesh.cell_count());
  const auto report = engine.evaluate(expressions::kVelocityMagnitude);
  EXPECT_EQ(report.kernel_execs, 1u);
  EXPECT_EQ(report.dev_reads, 1u);
  EXPECT_EQ(report.dev_writes, 3u);
}

TEST(Streamed, ElementwiseExpressionsChunkAtAnyGranularity) {
  // Without gradients there is no halo and no dims requirement: streaming
  // works on bare arrays of any length.
  vcl::Device device(vcl::xeon_x5660_scaled());
  std::vector<float> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(i) * 0.01f;
  }
  EngineOptions options;
  options.strategy = StrategyKind::streamed;
  options.streamed_chunk_cells = 37;  // deliberately unaligned
  Engine engine(device, options);
  engine.bind("u", data);
  const auto report = engine.evaluate("r = u * u + 1.0");
  ASSERT_EQ(report.values.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(report.values[i], data[i] * data[i] + 1.0f);
  }
  EXPECT_EQ(report.kernel_execs, (1000 + 36) / 37);
}

TEST(Streamed, MismatchedDimsRejected) {
  StreamFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  Engine engine = fx.make(device, StrategyKind::streamed);
  // Force elements inconsistent with nx*ny*nz.
  EXPECT_THROW(
      engine.evaluate(expressions::kVorticityMagnitude,
                      fx.mesh.cell_count() - 1),
      NetworkError);
}

// ----- Slab plan unit behaviour -----

TEST(SlabPlan, GradientProgramPlansByPlanesWithHalo) {
  StreamFixture fx;
  runtime::FieldBindings bindings;
  bindings.bind_mesh(fx.mesh);
  bindings.bind("u", fx.field.u);
  bindings.bind("v", fx.field.v);
  bindings.bind("w", fx.field.w);
  const dataflow::Network network(
      dataflow::build_network(expressions::kVorticityMagnitude));
  const auto program = kernels::generate_fused(network);
  const auto plan =
      runtime::make_slab_plan(program, bindings, fx.mesh.cell_count());
  EXPECT_EQ(plan.plane_cells, 12u * 10u);
  EXPECT_EQ(plan.total_planes, 24u);
  EXPECT_EQ(plan.halo, 1u);
  EXPECT_EQ(plan.slabbed_params, 6u);  // u, v, w, x, y, z (dims rewritten)
}

TEST(SlabPlan, ElementwiseProgramPlansByElements) {
  runtime::FieldBindings bindings;
  std::vector<float> data(100, 1.0f);
  bindings.bind("u", data);
  const dataflow::Network network(dataflow::build_network("r = u * 2.0"));
  const auto program = kernels::generate_fused(network);
  const auto plan = runtime::make_slab_plan(program, bindings, 100);
  EXPECT_EQ(plan.plane_cells, 1u);
  EXPECT_EQ(plan.total_planes, 100u);
  EXPECT_EQ(plan.halo, 0u);
}

}  // namespace
