// Metrics overhead study: what the always-on observability layer costs.
//
// Section 1 times repeated Engine fusion evaluations of the Q-criterion in
// two arms, interleaved to cancel machine drift: metrics fully enabled
// (counters + gauges + histograms + spans) versus `set_enabled(false)`
// (counters only — the floor: counters cannot be turned off, since the
// service snapshot reads them; each evaluation publishes its dfgen_vcl_*
// counters once, from its profiling log). In a full (non-smoke) run the
// enabled arm must stay within 2% of the disabled arm's cells/sec.
//
// Section 2 re-runs the Table-II style workload under fresh registries at
// several worker-pool widths, twice each, and requires every JSON snapshot
// to be byte-identical: the exposition is deterministic across runs AND
// across `-j` parallelism because all values are integers summed from
// per-thread shards.
//
// Results land in BENCH_metrics.json; the run ends with the
// `dump_metrics()` summary table for the last enabled arm. DFGEN_SMOKE=1
// shrinks the grid and skips the overhead threshold (CI smoke run);
// determinism assertions always apply.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernels/program_cache.hpp"
#include "obs/metrics.hpp"
#include "support/parallel.hpp"

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed batch: `evals` fresh Engine evaluations under a private
/// registry with the gauge/histogram/span layer on or off. Returns wall
/// seconds for the batch (construction included in both arms equally).
double run_batch(bool metrics_on, std::size_t evals,
                 const dfg::mesh::RectilinearMesh& mesh,
                 const dfg::mesh::VectorField& field, bool dump_after) {
  dfg::obs::ScopedMetricsRegistry scoped;
  scoped.registry().set_enabled(metrics_on);
  const double t0 = now_seconds();
  for (std::size_t i = 0; i < evals; ++i) {
    dfg::vcl::Device device(dfgbench::scaled_cpu());
    dfg::EngineOptions options;
    options.strategy = dfg::runtime::StrategyKind::fusion;
    dfg::Engine engine(device, options);
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    engine.evaluate(dfg::expressions::kQCriterion);
  }
  const double elapsed = now_seconds() - t0;
  if (dump_after) {
    std::printf("\n=== dump_metrics() after the last enabled batch ===\n");
    dfg::obs::dump_metrics(stdout);  // the scoped registry is current here
  }
  return elapsed;
}

struct OverheadResult {
  std::size_t cells = 0;
  std::size_t evals = 0;
  int reps = 0;
  double enabled_cells_per_sec = 0.0;
  double disabled_cells_per_sec = 0.0;

  double overhead_pct() const {
    return 100.0 *
           (disabled_cells_per_sec - enabled_cells_per_sec) /
           disabled_cells_per_sec;
  }
};

OverheadResult run_overhead_study(const dfg::mesh::RectilinearMesh& mesh,
                                  const dfg::mesh::VectorField& field,
                                  std::size_t evals, int reps) {
  OverheadResult result;
  result.cells = mesh.cell_count();
  result.evals = evals;
  result.reps = reps;

  run_batch(true, evals, mesh, field, false);   // warmup both arms
  run_batch(false, evals, mesh, field, false);
  double best_on = 1e30, best_off = 1e30;
  for (int r = 0; r < reps; ++r) {
    best_on = std::min(best_on, run_batch(true, evals, mesh, field,
                                          r + 1 == reps));
    best_off = std::min(best_off, run_batch(false, evals, mesh, field, false));
  }
  const double work =
      static_cast<double>(mesh.cell_count()) * static_cast<double>(evals);
  result.enabled_cells_per_sec = work / best_on;
  result.disabled_cells_per_sec = work / best_off;
  return result;
}

/// The Table-II style workload under a fresh registry at a given worker
/// count; returns the deterministic JSON snapshot.
std::string snapshot_at(int workers, const dfg::mesh::RectilinearMesh& mesh,
                        const dfg::mesh::VectorField& field) {
  dfg::support::set_worker_count(static_cast<std::size_t>(workers));
  dfg::kernels::ProgramCache::instance().clear();
  dfg::obs::ScopedMetricsRegistry scoped;
  for (const dfgbench::ExpressionCase& expr : dfgbench::paper_expressions()) {
    dfg::vcl::Device device(dfgbench::scaled_cpu());
    dfg::EngineOptions options;
    options.strategy = dfg::runtime::StrategyKind::fusion;
    dfg::Engine engine(device, options);
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    engine.evaluate(expr.expression);
  }
  return scoped.registry().to_json();
}

bool run_determinism_study(const dfg::mesh::RectilinearMesh& mesh,
                           const dfg::mesh::VectorField& field) {
  const int worker_counts[] = {1, 3, 0};  // 0 = hardware default
  std::vector<std::string> snapshots;
  for (const int workers : worker_counts) {
    snapshots.push_back(snapshot_at(workers, mesh, field));
    snapshots.push_back(snapshot_at(workers, mesh, field));
  }
  dfg::support::set_worker_count(0);
  bool identical = true;
  for (const std::string& snapshot : snapshots) {
    identical = identical && snapshot == snapshots.front();
  }
  return identical;
}

void write_json(const OverheadResult& overhead, bool snapshots_identical,
                bool smoke) {
  std::FILE* f = std::fopen("BENCH_metrics.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_metrics.json for writing\n");
    std::exit(1);
  }
  std::fprintf(
      f,
      "{\n  \"smoke\": %s,\n"
      "  \"overhead\": {\n"
      "    \"cells\": %zu, \"evaluations\": %zu, \"reps\": %d,\n"
      "    \"enabled_cells_per_sec\": %.3e,\n"
      "    \"disabled_cells_per_sec\": %.3e,\n"
      "    \"overhead_pct\": %.2f\n  },\n"
      "  \"snapshots_byte_identical\": %s\n}\n",
      smoke ? "true" : "false", overhead.cells, overhead.evals, overhead.reps,
      overhead.enabled_cells_per_sec, overhead.disabled_cells_per_sec,
      overhead.overhead_pct(), snapshots_identical ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main() {
  const bool smoke = dfg::support::env::get_flag("DFGEN_SMOKE");
  dfgbench::check_environment();

  const dfg::mesh::RectilinearMesh mesh = dfg::mesh::RectilinearMesh::uniform(
      smoke ? dfg::mesh::Dims{16, 16, 16} : dfg::mesh::Dims{48, 48, 48});
  const dfg::mesh::VectorField field = dfg::mesh::rayleigh_taylor_flow(mesh);
  const std::size_t evals = smoke ? 3 : 10;
  const int reps = smoke ? 1 : 5;

  std::printf("=== Metrics overhead: %zu cells x %zu evals, %d reps ===\n",
              mesh.cell_count(), evals, reps);
  const OverheadResult overhead = run_overhead_study(mesh, field, evals, reps);
  std::printf(
      "enabled: %.3e cells/s, disabled: %.3e cells/s, overhead: %.2f%%\n",
      overhead.enabled_cells_per_sec, overhead.disabled_cells_per_sec,
      overhead.overhead_pct());

  const bool identical = run_determinism_study(mesh, field);
  std::printf("snapshot determinism (2 runs x 3 worker counts): %s\n",
              identical ? "byte-identical" : "DIVERGED");

  write_json(overhead, identical, smoke);
  std::printf("wrote BENCH_metrics.json\n");

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: JSON snapshots diverged across runs/worker counts\n");
    return 1;
  }
  if (!smoke && overhead.overhead_pct() >= 2.0) {
    std::fprintf(stderr,
                 "FAIL: metrics layer costs %.2f%% throughput (>= 2%%)\n",
                 overhead.overhead_pct());
    return 1;
  }
  std::printf("all overhead and determinism gates passed\n");
  return 0;
}
