// Future-work study (paper §VI): execution strategies in a streaming
// context. Three questions the paper poses, answered with the streamed
// fusion strategy:
//   1. What does streaming cost when the data fits anyway? (chunk-size
//      sweep vs single-kernel fusion)
//   2. Does streaming rescue the GPU test cases that fail on memory in the
//      Figure 5/6 sweep? (re-run of every failed case with streaming)
//   3. How does the chunk size trade device memory against transfers?
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "support/string_util.hpp"

namespace {

void print_chunk_sweep() {
  std::printf(
      "=== Streaming: chunk-size sweep, Q-criterion, mid-size grid ===\n");
  const auto catalog = dfg::mesh::subgrid_catalog(dfgbench::kAxisScale);
  const auto& info = catalog[5];
  const dfg::mesh::RectilinearMesh mesh =
      dfg::mesh::RectilinearMesh::uniform(info.dims);
  const dfg::mesh::VectorField field = dfg::mesh::rayleigh_taylor_flow(mesh);
  dfg::vcl::Device device(dfgbench::scaled_gpu());

  std::printf("grid %s (%zu cells) on %s\n",
              dfg::mesh::to_string(info.dims).c_str(), info.cells,
              device.spec().name.c_str());
  std::printf("%-22s %10s %8s %8s %16s\n", "configuration", "sim [s]",
              "K-Exe", "Dev-W", "mem high water");

  // Baseline: single-kernel fusion.
  {
    dfg::Engine engine(device, {dfg::runtime::StrategyKind::fusion, {}});
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    const auto report = engine.evaluate(dfg::expressions::kQCriterion);
    std::printf("%-22s %10.5f %8zu %8zu %16s\n", "fusion (baseline)",
                report.sim_seconds, report.kernel_execs, report.dev_writes,
                dfg::support::format_bytes(report.memory_high_water_bytes)
                    .c_str());
  }
  const std::size_t plane = info.dims.nx * info.dims.ny;
  for (const std::size_t planes_per_chunk : {256u, 64u, 16u, 4u, 1u}) {
    dfg::EngineOptions options;
    options.strategy = dfg::runtime::StrategyKind::streamed;
    options.streamed_chunk_cells = planes_per_chunk * plane;
    dfg::Engine engine(device, options);
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    const auto report = engine.evaluate(dfg::expressions::kQCriterion);
    char label[64];
    std::snprintf(label, sizeof(label), "streamed %4zu planes",
                  planes_per_chunk);
    std::printf("%-22s %10.5f %8zu %8zu %16s\n", label, report.sim_seconds,
                report.kernel_execs, report.dev_writes,
                dfg::support::format_bytes(report.memory_high_water_bytes)
                    .c_str());
  }
  std::printf("\n");
}

void print_gpu_rescue(int& missed) {
  std::printf(
      "=== Streaming: GPU cases that failed in the Figure 5/6 sweep ===\n");
  const auto catalog = dfg::mesh::subgrid_catalog(dfgbench::kAxisScale);
  dfg::vcl::Device gpu(dfgbench::scaled_gpu());
  std::size_t failed_without = 0;
  std::size_t rescued = 0;
  for (const auto& expr : dfgbench::paper_expressions()) {
    for (const auto& info : catalog) {
      const dfg::mesh::RectilinearMesh mesh =
          dfg::mesh::RectilinearMesh::uniform(info.dims);
      const dfg::mesh::VectorField field =
          dfg::mesh::rayleigh_taylor_flow(mesh);
      for (const auto execution :
           {dfgbench::Execution::roundtrip, dfgbench::Execution::staged,
            dfgbench::Execution::fusion}) {
        const auto base =
            dfgbench::run_case(mesh, field, expr, execution, gpu);
        if (!base.failed) continue;
        ++failed_without;
        // Retry the same case with auto-chunked streaming.
        dfg::EngineOptions options;
        options.strategy = dfg::runtime::StrategyKind::streamed;
        dfg::Engine engine(gpu, options);
        engine.bind_mesh(mesh);
        engine.bind("u", field.u);
        engine.bind("v", field.v);
        engine.bind("w", field.w);
        try {
          const auto report = engine.evaluate(expr.expression);
          ++rescued;
          std::printf("%-8s %12zu cells, %-10s failed -> streamed OK "
                      "(%zu chunks, sim %.5f s)\n",
                      expr.short_name, info.cells,
                      dfgbench::execution_name(execution),
                      report.kernel_execs, report.sim_seconds);
        } catch (const dfg::DeviceOutOfMemory&) {
          ++missed;
          std::printf("%-8s %12zu cells, %-10s failed -> streaming also "
                      "failed\n",
                      expr.short_name, info.cells,
                      dfgbench::execution_name(execution));
        }
      }
    }
  }
  std::printf("streaming rescued %zu of %zu failed GPU cases\n\n", rescued,
              failed_without);
}

void BM_StreamedQCrit(benchmark::State& state) {
  const auto catalog = dfg::mesh::subgrid_catalog(dfgbench::kAxisScale);
  const auto& info = catalog[2];
  const dfg::mesh::RectilinearMesh mesh =
      dfg::mesh::RectilinearMesh::uniform(info.dims);
  const dfg::mesh::VectorField field = dfg::mesh::rayleigh_taylor_flow(mesh);
  dfg::vcl::Device device(dfgbench::scaled_gpu());
  dfg::EngineOptions options;
  options.strategy = dfg::runtime::StrategyKind::streamed;
  options.streamed_chunk_cells =
      static_cast<std::size_t>(state.range(0)) * info.dims.nx * info.dims.ny;
  double sim = 0.0;
  for (auto _ : state) {
    dfg::Engine engine(device, options);
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    sim = engine.evaluate(dfg::expressions::kQCriterion).sim_seconds;
  }
  state.counters["sim_ms"] = sim * 1e3;
}
BENCHMARK(BM_StreamedQCrit)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  dfgbench::check_environment();
  int missed = 0;
  print_chunk_sweep();
  print_gpu_rescue(missed);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return missed == 0 ? 0 : 1;
}
