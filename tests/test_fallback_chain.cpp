// Differential property tests for the fallback ladder: over seeded random
// expression scripts and shrinking synthetic device capacities, the engine
// must land on the cheapest (fastest) strategy whose planned high-water
// fits the capacity — and every rung it lands on must produce a field
// bit-identical to a fault-free roundtrip reference. The planner's
// estimates are bit-exact against measured high-water (test_planner), so
// the expected landing rung is computable in closed form: the first ladder
// entry whose estimate fits.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "mesh/generators.hpp"
#include "runtime/fallback.hpp"
#include "runtime/planner.hpp"
#include "runtime/strategy.hpp"
#include "support/error.hpp"
#include "vcl/catalog.hpp"

namespace {

using namespace dfg;
using runtime::StrategyKind;

/// Random expression scripts over u, v, w. Roughly every other script also
/// takes a gradient; some take gradients of *computed* values, which the
/// streamed rung cannot execute (it must be skipped, not crash the chain).
std::string random_script(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> coin(0, 1);
  std::ostringstream os;

  std::vector<std::string> scalars{"u", "v", "w"};
  if (coin(rng) == 1) {
    os << "g = grad3d(u, dims, x, y, z)\n";
    std::uniform_int_distribution<int> comp(0, 2);
    os << "gc = g[" << comp(rng) << "]\n";
    scalars.push_back("gc");
  }

  const auto pick = [&] {
    std::uniform_int_distribution<std::size_t> d(0, scalars.size() - 1);
    return scalars[d(rng)];
  };
  const char* ops[] = {" + ", " - ", " * "};
  std::uniform_int_distribution<int> op(0, 2);
  std::uniform_int_distribution<int> statements(1, 4);
  const int n_statements = statements(rng);
  for (int s = 0; s < n_statements; ++s) {
    const std::string name = "t" + std::to_string(s);
    os << name << " = " << pick() << ops[op(rng)] << pick() << "\n";
    scalars.push_back(name);
  }
  // Occasionally a gradient of a computed value: a partitioned pipeline
  // that fusion handles but streamed rejects with KernelError.
  if (coin(rng) == 1) {
    os << "h = grad3d(t0, dims, x, y, z)\n";
    os << "result = h[0] + t" << (n_statements - 1) << "\n";
  } else {
    os << "result = t" << (n_statements - 1) << " + 0.0\n";
  }
  return os.str();
}

void expect_bitwise_equal(const std::vector<float>& got,
                          const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool nan = std::isnan(want[i]);
    ASSERT_EQ(std::isnan(got[i]), nan) << "cell " << i;
    if (!nan) ASSERT_EQ(got[i], want[i]) << "cell " << i;
  }
}

class FallbackChainTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FallbackChainTest, LandsOnCheapestRungThatFitsAndMatchesReference) {
  const std::string script = random_script(GetParam());
  SCOPED_TRACE(script);

  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({6, 5, 4});
  const mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh, GetParam());
  const std::size_t cells = mesh.cell_count();

  const auto bind = [&](Engine& engine) {
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
  };

  // Reference: the last (always-feasible) rung on an unconstrained device.
  std::vector<float> reference;
  {
    vcl::Device device(vcl::xeon_x5660_scaled());
    Engine engine(device, {StrategyKind::roundtrip, {}});
    bind(engine);
    reference = engine.evaluate(script).values;
  }

  // Planned high-water per rung; streamed is absent where unsupported.
  dataflow::Network network(dataflow::build_network(script));
  runtime::FieldBindings bindings;
  bindings.bind_mesh(mesh);
  bindings.bind("u", field.u);
  bindings.bind("v", field.v);
  bindings.bind("w", field.w);
  std::map<StrategyKind, std::size_t> estimate;
  for (const StrategyKind kind : runtime::kMemoryLadder) {
    try {
      estimate[kind] =
          runtime::estimate_high_water(network, bindings, cells, kind);
    } catch (const KernelError&) {
      // Unsupported rung: the chain must skip it.
    }
  }
  ASSERT_TRUE(estimate.count(StrategyKind::roundtrip));

  const auto expected_landing =
      [&](std::size_t cap) -> std::optional<StrategyKind> {
    for (const StrategyKind kind : runtime::kMemoryLadder) {
      const auto it = estimate.find(kind);
      if (it != estimate.end() && it->second <= cap) return kind;
    }
    return std::nullopt;
  };

  // Shrink the capacity through every rung's exact high-water. Capacities
  // are tested at equality, so the planner's bit-exactness is load-bearing:
  // one byte less and the rung must fail over.
  for (const auto& [rung, cap] : estimate) {
    const std::optional<StrategyKind> want = expected_landing(cap);
    ASSERT_TRUE(want.has_value());
    SCOPED_TRACE("capacity = " + std::to_string(cap) + " (" +
                 runtime::strategy_name(rung) + " high-water)");

    vcl::Device device(vcl::xeon_x5660_scaled());
    vcl::FaultPlan plan;
    plan.synthetic_capacity_bytes = cap;
    device.fault().arm(plan);
    EngineOptions options;
    options.strategy = StrategyKind::fusion;
    options.fallback.enabled = true;
    Engine engine(device, options);
    bind(engine);

    const EvaluationReport report = engine.evaluate(script);
    EXPECT_EQ(report.strategy, runtime::strategy_name(*want));
    // One degradation record per rung tried and abandoned before landing.
    EXPECT_EQ(report.degradations.size(), runtime::ladder_position(*want));
    EXPECT_LE(report.memory_high_water_bytes, cap);
    expect_bitwise_equal(report.values, reference);
    EXPECT_EQ(device.memory().in_use(), 0u);
  }

  // Below every rung's need, the whole ladder fails over and the final
  // rung's DeviceOutOfMemory propagates.
  std::size_t min_est = SIZE_MAX;
  for (const auto& [kind, est] : estimate) min_est = std::min(min_est, est);
  if (min_est > 1) {
    vcl::Device device(vcl::xeon_x5660_scaled());
    vcl::FaultPlan plan;
    plan.synthetic_capacity_bytes = min_est - 1;
    device.fault().arm(plan);
    EngineOptions options;
    options.strategy = StrategyKind::fusion;
    options.fallback.enabled = true;
    Engine engine(device, options);
    bind(engine);
    EXPECT_THROW(engine.evaluate(script), DeviceOutOfMemory);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScripts, FallbackChainTest,
                         ::testing::Range(0u, 12u));

TEST(FallbackChain, QCriterionDegradesUnderTheAcceptanceCapacity) {
  // The issue's acceptance scenario: a synthetic capacity below the
  // Q-criterion fusion high-water forces a degraded — but successful and
  // bit-exact — evaluation, with the degradation listed in the report.
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 8, 8});
  const mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  const auto bind = [&](Engine& engine) {
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
  };

  std::vector<float> reference;
  std::size_t fusion_high_water = 0;
  {
    vcl::Device device(vcl::xeon_x5660_scaled());
    Engine engine(device, {StrategyKind::fusion, {}});
    bind(engine);
    const EvaluationReport clean = engine.evaluate(expressions::kQCriterion);
    reference = clean.values;
    fusion_high_water = clean.memory_high_water_bytes;
  }

  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.synthetic_capacity_bytes = fusion_high_water - 1;
  device.fault().arm(plan);
  EngineOptions options;
  options.strategy = StrategyKind::fusion;
  options.fallback.enabled = true;
  Engine engine(device, options);
  bind(engine);

  const EvaluationReport report = engine.evaluate(expressions::kQCriterion);
  EXPECT_NE(report.strategy, "fusion");
  ASSERT_FALSE(report.degradations.empty());
  EXPECT_EQ(report.degradations[0].from, "fusion");
  EXPECT_EQ(report.values, reference);
  EXPECT_LE(report.memory_high_water_bytes, fusion_high_water - 1);
}

// fallback.hpp's contract: with the policy disabled, execute_with_fallback
// equals make_strategy(requested, chunk)->execute(...) — the same events
// (kind, label, bytes, flops, simulated seconds) and the same result bits.
TEST(FallbackChain, DisabledPolicyRunsExactlyTheRequestedStrategy) {
  const mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({6, 5, 4});
  const mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  const std::size_t cells = mesh.cell_count();
  runtime::FieldBindings bindings;
  bindings.bind_mesh(mesh);
  bindings.bind("u", field.u);
  bindings.bind("v", field.v);
  bindings.bind("w", field.w);

  struct Run {
    std::vector<float> values;
    std::vector<vcl::Event> events;
  };
  const auto direct = [&](const dataflow::Network& network, StrategyKind kind,
                          std::size_t chunk) {
    vcl::Device device(vcl::xeon_x5660_scaled());
    vcl::ProfilingLog log;
    Run run;
    run.values = runtime::make_strategy(kind, chunk)->execute(
        network, bindings, cells, device, log);
    run.events = log.events();
    return run;
  };
  const auto laddered = [&](const dataflow::Network& network,
                            StrategyKind kind, std::size_t chunk) {
    vcl::Device device(vcl::xeon_x5660_scaled());
    vcl::ProfilingLog log;
    Run run;
    const runtime::FallbackOutcome outcome = runtime::execute_with_fallback(
        network, bindings, cells, device, log, kind, runtime::FallbackPolicy{},
        chunk);
    EXPECT_EQ(outcome.executed, kind);
    EXPECT_TRUE(outcome.degradations.empty());
    run.values = outcome.values;
    run.events = log.events();
    return run;
  };

  // A gradient of a computed value: fusion runs it as a partitioned
  // pipeline, streamed cannot run it at all.
  const std::string partitioned =
      "t = u * v\ng = grad3d(t, dims, x, y, z)\nr = g[0] + t";
  for (const StrategyKind kind : runtime::kMemoryLadder) {
    std::vector<std::string> scripts{
        expressions::kVelocityMagnitude, expressions::kVorticityMagnitude,
        expressions::kQCriterion, "r = 3.0"};
    if (kind == StrategyKind::fusion) scripts.push_back(partitioned);
    // Streamed also at an explicit chunk: 3 interior planes plus 2 halo.
    std::vector<std::size_t> chunks{0};
    if (kind == StrategyKind::streamed) chunks.push_back(5 * 6 * 5);
    for (const std::string& script : scripts) {
      const dataflow::Network network(dataflow::build_network(script));
      for (const std::size_t chunk : chunks) {
        SCOPED_TRACE(script + " under " + runtime::strategy_name(kind) +
                     ", chunk " + std::to_string(chunk));
        const Run want = direct(network, kind, chunk);
        const Run got = laddered(network, kind, chunk);
        ASSERT_EQ(got.events.size(), want.events.size());
        for (std::size_t i = 0; i < want.events.size(); ++i) {
          EXPECT_EQ(got.events[i].kind, want.events[i].kind) << "event " << i;
          EXPECT_EQ(got.events[i].label, want.events[i].label) << "event " << i;
          EXPECT_EQ(got.events[i].bytes, want.events[i].bytes) << "event " << i;
          EXPECT_EQ(got.events[i].flops, want.events[i].flops) << "event " << i;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.events[i].sim_seconds),
                    std::bit_cast<std::uint64_t>(want.events[i].sim_seconds))
              << "event " << i;
        }
        ASSERT_EQ(got.values.size(), want.values.size());
        for (std::size_t i = 0; i < want.values.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got.values[i]),
                    std::bit_cast<std::uint32_t>(want.values[i]))
              << "cell " << i;
        }
      }
    }
  }
}

}  // namespace
