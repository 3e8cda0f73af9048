// Future-work study (paper §VI): "a comprehensive performance study of our
// framework in a distributed-memory parallel setting". A strong-scaling
// sweep over the Figure 7 workload: fixed 192^3 global grid, rank counts
// from 2 to 256 (two devices per node, as on Edge), critical-path
// simulated time and parallel efficiency per point.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "distrib/dist_engine.hpp"

namespace {

void print_strong_scaling() {
  std::printf("=== Strong scaling: Q-criterion, 192^3, fusion strategy ===\n");
  const dfg::mesh::RectilinearMesh mesh =
      dfg::mesh::RectilinearMesh::uniform({192, 192, 192});
  const dfg::mesh::VectorField field = dfg::mesh::rayleigh_taylor_flow(mesh);

  std::printf("%7s %7s %16s %16s %12s\n", "nodes", "ranks",
              "critical [s]", "aggregate [s]", "efficiency");
  double t1 = 0.0;
  for (const std::size_t nodes : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    dfg::distrib::ClusterConfig config;
    config.nodes = nodes;
    config.devices_per_node = 2;
    config.device_spec = dfg::vcl::tesla_m2050();
    config.device_spec.global_mem_bytes /= 4096;  // 1/16 per axis scale

    dfg::distrib::GridDecomposition decomposition(mesh.dims(), 16, 16, 12);
    dfg::distrib::DistributedEngine engine(mesh, decomposition, config);
    engine.bind_global("u", field.u);
    engine.bind_global("v", field.v);
    engine.bind_global("w", field.w);
    const auto report = engine.evaluate(dfg::expressions::kQCriterion,
                                        dfg::runtime::StrategyKind::fusion);
    if (nodes == 1) t1 = report.max_rank_sim_seconds;
    const double efficiency =
        t1 / (report.max_rank_sim_seconds *
              static_cast<double>(report.ranks) / 2.0);
    std::printf("%7zu %7zu %16.5f %16.5f %11.1f%%\n", nodes, report.ranks,
                report.max_rank_sim_seconds, report.total_sim_seconds,
                100.0 * efficiency);
  }
  std::printf("\n");
}

void BM_DistributedQCrit(benchmark::State& state) {
  const dfg::mesh::RectilinearMesh mesh =
      dfg::mesh::RectilinearMesh::uniform({96, 96, 96});
  const dfg::mesh::VectorField field = dfg::mesh::rayleigh_taylor_flow(mesh);
  dfg::distrib::ClusterConfig config;
  config.nodes = static_cast<std::size_t>(state.range(0));
  config.devices_per_node = 2;
  config.device_spec = dfgbench::scaled_gpu();
  double critical = 0.0;
  for (auto _ : state) {
    dfg::distrib::GridDecomposition decomposition(mesh.dims(), 4, 4, 4);
    dfg::distrib::DistributedEngine engine(mesh, decomposition, config);
    engine.bind_global("u", field.u);
    engine.bind_global("v", field.v);
    engine.bind_global("w", field.w);
    const auto report = engine.evaluate(dfg::expressions::kQCriterion,
                                        dfg::runtime::StrategyKind::fusion);
    critical = report.max_rank_sim_seconds;
  }
  state.counters["critical_ms"] = critical * 1e3;
}
BENCHMARK(BM_DistributedQCrit)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  dfgbench::check_environment();
  print_strong_scaling();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
