// Metrics overhead study: what the always-on observability layer costs.
//
// Section 1 times repeated Engine fusion evaluations of the Q-criterion in
// two arms: metrics fully enabled (counters + gauges + histograms + spans)
// versus `set_enabled(false)` (counters only — the floor: counters cannot
// be turned off, since the service snapshot reads them; each evaluation
// publishes its dfgen_vcl_* counters once, from its profiling log). The
// arms run as kPairs back-to-back pairs of single evaluations, alternating
// which arm goes first, and the overhead is read from the median of the
// per-pair time ratios (dfgbench::time_pairs): drift hits both halves of a
// pair alike, and the median ignores the pairs a burst of load on a shared
// host distorted. In a full (non-smoke) run the median overhead must stay
// under 2%.
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

/// One timed evaluation: a fresh Engine evaluation under a private registry
/// with the gauge/histogram/span layer on or off. Returns wall seconds
/// (construction included in both arms equally).
double time_evaluation(bool metrics_on,
                       const dfg::mesh::RectilinearMesh& mesh,
                       const dfg::mesh::VectorField& field, bool dump_after) {
  dfg::obs::ScopedMetricsRegistry scoped;
  scoped.registry().set_enabled(metrics_on);
  const double t0 = now_seconds();
  dfg::vcl::Device device(dfgbench::scaled_cpu());
  dfg::EngineOptions options;
  options.strategy = dfg::runtime::StrategyKind::fusion;
  dfg::Engine engine(device, options);
  engine.bind_mesh(mesh);
  engine.bind("u", field.u);
  engine.bind("v", field.v);
  engine.bind("w", field.w);
  engine.evaluate(dfg::expressions::kQCriterion);
  const double elapsed = now_seconds() - t0;
  if (dump_after) {
    std::printf("\n=== dump_metrics() after the last enabled evaluation ===\n");
    dfg::obs::dump_metrics(stdout);  // the scoped registry is current here
  }
  return elapsed;
}

struct OverheadResult {
  std::size_t cells = 0;
  int pairs = 0;
  /// Median over the pairs of each arm's throughput, for reading.
  double enabled_cells_per_sec = 0.0;
  double disabled_cells_per_sec = 0.0;
  /// Median over the pairs of enabled / disabled seconds: the gate.
  double median_ratio = 1.0;

  double overhead_pct() const { return 100.0 * (1.0 - 1.0 / median_ratio); }
};

OverheadResult run_overhead_study(const dfg::mesh::RectilinearMesh& mesh,
                                  const dfg::mesh::VectorField& field,
                                  int pairs) {
  const dfgbench::PairedTiming timing = dfgbench::time_pairs(
      pairs, [&] { return time_evaluation(true, mesh, field, false); },
      [&] { return time_evaluation(false, mesh, field, false); });
  time_evaluation(true, mesh, field, /*dump_after=*/true);

  OverheadResult result;
  result.cells = mesh.cell_count();
  result.pairs = pairs;
  const double work = static_cast<double>(mesh.cell_count());
  result.enabled_cells_per_sec = work / timing.a_median_seconds;
  result.disabled_cells_per_sec = work / timing.b_median_seconds;
  result.median_ratio = timing.median_ratio;
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
      "    \"cells\": %zu, \"pairs\": %d,\n"
      "    \"enabled_cells_per_sec\": %.3e,\n"
      "    \"disabled_cells_per_sec\": %.3e,\n"
      "    \"overhead_pct\": %.2f\n  },\n"
      "  \"snapshots_byte_identical\": %s\n}\n",
      smoke ? "true" : "false", overhead.cells, overhead.pairs,
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
  const int pairs = smoke ? 3 : dfgbench::kGatePairs;

  std::printf("=== Metrics overhead: %zu cells, %d interleaved pairs ===\n",
              mesh.cell_count(), pairs);
  const OverheadResult overhead = run_overhead_study(mesh, field, pairs);
  std::printf(
      "enabled: %.3e cells/s, disabled: %.3e cells/s (medians), "
      "overhead: %.2f%% (median of %d pair ratios)\n",
      overhead.enabled_cells_per_sec, overhead.disabled_cells_per_sec,
      overhead.overhead_pct(), overhead.pairs);

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
