// Time-series evaluation mode: Engine::evaluate_series over T timesteps
// with the resident pool on must re-upload exactly the fields the advance
// callback reports mutated, keep everything else device-resident, and
// produce bit-identical values to a cold engine that re-uploads the world
// every step. The counters in each per-step EvaluationReport are the
// observable: dev_writes, resident hits/misses and invalidations.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "bitwise.hpp"
#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "mesh/generators.hpp"
#include "mesh/mesh.hpp"
#include "vcl/catalog.hpp"

namespace {

using namespace dfg;

constexpr float kTwoPi = 6.28318530717958647692f;
constexpr const char* kExpr = "q = qcriterion(u, v, w, dims, x, y, z)";

struct SeriesFixture {
  SeriesFixture()
      : mesh(mesh::RectilinearMesh::uniform({12, 12, 12}, kTwoPi, kTwoPi,
                                            kTwoPi)),
        field(mesh::abc_flow(mesh)) {}

  /// Deterministic in-place "simulation step" for one component.
  static void step_array(std::vector<float>& a, std::size_t step) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] += 0.01f * static_cast<float>(step) +
              0.001f * static_cast<float>(i % 7);
    }
  }

  Engine make_engine(vcl::Device& device, bool pool) {
    EngineOptions options;
    options.resident_pool = pool;
    Engine engine(device, options);
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    return engine;
  }

  mesh::RectilinearMesh mesh;
  mesh::VectorField field;
};

TEST(TimeSeries, OnlyChangedFieldsReupload) {
  SeriesFixture fx;
  vcl::Device device(vcl::xeon_x5660());
  Engine engine = fx.make_engine(device, /*pool=*/true);

  const std::size_t kSteps = 4;
  SeriesReport series = engine.evaluate_series(
      kExpr, fx.mesh.cell_count(), kSteps, [&](std::size_t step) {
        SeriesFixture::step_array(fx.field.u, step);
        return std::vector<std::string>{"u"};
      });

  ASSERT_EQ(series.steps.size(), kSteps);
  ASSERT_EQ(series.fields_invalidated, kSteps - 1);

  // Step 0 is cold: all seven inputs (u, v, w + the four mesh arrays)
  // upload, none hit the pool.
  const EvaluationReport& cold = series.steps[0];
  EXPECT_EQ(cold.resident_hits, 0u);
  EXPECT_GE(cold.dev_writes, 7u);

  // Every later step re-uploads exactly the mutated field; the other six
  // inputs are pool hits and move zero bytes.
  for (std::size_t t = 1; t < kSteps; ++t) {
    const EvaluationReport& warm = series.steps[t];
    EXPECT_EQ(warm.dev_writes, 1u) << "step " << t;
    EXPECT_EQ(warm.resident_hits, 6u) << "step " << t;
    // Invalidation between steps only bumps u's generation tag; the step's
    // own acquire drops the stale copy.
    EXPECT_EQ(warm.resident_invalidations, 1u) << "step " << t;
    EXPECT_GT(warm.resident_upload_bytes_saved, 0u) << "step " << t;
  }
}

TEST(TimeSeries, StaticFieldsMakeWarmStepsUploadFree) {
  SeriesFixture fx;
  vcl::Device device(vcl::xeon_x5660());
  Engine engine = fx.make_engine(device, /*pool=*/true);

  // No advance callback: nothing mutates, so steps 1..T-1 upload nothing.
  SeriesReport series =
      engine.evaluate_series(kExpr, fx.mesh.cell_count(), 3);
  ASSERT_EQ(series.steps.size(), 3u);
  EXPECT_EQ(series.fields_invalidated, 0u);
  for (std::size_t t = 1; t < series.steps.size(); ++t) {
    EXPECT_EQ(series.steps[t].dev_writes, 0u) << "step " << t;
    EXPECT_EQ(series.steps[t].resident_hits, 7u) << "step " << t;
  }
  // Totals are the per-step sums.
  std::size_t writes = 0;
  double sim = 0.0;
  for (const EvaluationReport& step : series.steps) {
    writes += step.dev_writes;
    sim += step.sim_seconds;
  }
  EXPECT_EQ(series.total_dev_writes, writes);
  EXPECT_DOUBLE_EQ(series.total_sim_seconds, sim);
}

TEST(TimeSeries, BitExactVersusColdPerStepReference) {
  // The pooled series and a pool-off engine fed the identical mutation
  // schedule must agree bit-for-bit at every step: transfer elimination
  // may never change a value.
  SeriesFixture pooled_fx;
  SeriesFixture cold_fx;

  vcl::Device pooled_device(vcl::xeon_x5660());
  Engine pooled = pooled_fx.make_engine(pooled_device, /*pool=*/true);
  const std::size_t kSteps = 4;
  SeriesReport series = pooled.evaluate_series(
      kExpr, pooled_fx.mesh.cell_count(), kSteps, [&](std::size_t step) {
        SeriesFixture::step_array(pooled_fx.field.u, step);
        SeriesFixture::step_array(pooled_fx.field.w, step);
        return std::vector<std::string>{"u", "w"};
      });

  for (std::size_t t = 0; t < kSteps; ++t) {
    if (t > 0) {
      SeriesFixture::step_array(cold_fx.field.u, t);
      SeriesFixture::step_array(cold_fx.field.w, t);
    }
    vcl::Device cold_device(vcl::xeon_x5660());
    Engine cold = cold_fx.make_engine(cold_device, /*pool=*/false);
    const EvaluationReport reference =
        cold.evaluate(kExpr, cold_fx.mesh.cell_count());
    test::expect_bits_equal(series.steps[t].values, reference.values,
                            "step " + std::to_string(t));
  }
}

TEST(TimeSeries, SeriesSavesUploadsVersusColdLoop) {
  // The headline accounting the time-series bench gates on: with 1 of 3
  // velocity components changing per step, the pooled series moves far
  // fewer host-to-device bytes than a cold engine looping evaluate().
  SeriesFixture fx;
  const std::size_t kSteps = 5;

  vcl::Device pooled_device(vcl::xeon_x5660());
  Engine pooled = fx.make_engine(pooled_device, /*pool=*/true);
  SeriesReport series = pooled.evaluate_series(
      kExpr, fx.mesh.cell_count(), kSteps, [&](std::size_t step) {
        SeriesFixture::step_array(fx.field.v, step);
        return std::vector<std::string>{"v"};
      });

  // A cold loop repeats step 0's uploads every step.
  const std::size_t naive_writes = series.steps[0].dev_writes * kSteps;
  EXPECT_GE(naive_writes, 2 * series.total_dev_writes)
      << "expected >=2x fewer uploads than per-step re-upload";
  EXPECT_GT(series.total_upload_bytes_saved, 0u);
}

TEST(TimeSeries, ZeroTimestepsIsRejected) {
  SeriesFixture fx;
  vcl::Device device(vcl::xeon_x5660());
  Engine engine = fx.make_engine(device, /*pool=*/true);
  EXPECT_THROW(engine.evaluate_series(kExpr, fx.mesh.cell_count(), 0),
               Error);
}

}  // namespace
