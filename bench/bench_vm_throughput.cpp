// VM throughput study: what the tiled interpreter and the bytecode
// optimizer buy over the seed element-at-a-time interpreter, and what the
// fused-program cache saves across repeated and distributed evaluations.
//
// Section 1 times the three paper expressions' fused kernels directly on
// host arrays (no virtual device in the loop): the element interpreter
// (run_scalar), the tiled interpreter (run) on the raw program, and the
// tiled interpreter on the optimized program. Outputs must be bit-identical
// across all three; in a full (non-smoke) run the optimized tiled
// interpreter must clear 5x the seed interpreter's cells/sec on the
// Q-criterion.
//
// Section 1 also runs the optimized program through the jit backend: the
// program is compiled to native code once (the cached path — compile time
// excluded, as in steady-state in-situ use), its output must stay
// bit-identical, and in a full run it must clear 3x the optimized tiled
// interpreter's cells/sec on the Q-criterion. If the toolchain is missing
// the jit column degrades to the VM (reported as "fallback": true) and the
// jit gate is skipped — fallback is never a failure.
//
// Section 2 counts fused-program cache traffic over repeated Engine
// evaluations and one distributed run: generator invocations (misses) must
// be at least 10x rarer than requests.
//
// Section 3 times transfer integrity and the worker team, each against a
// reference kept here and measured in this process, so the ratios hold on
// any host:
//   * support::checksum_floats (the block-parallel, 8-lane FNV-1a) against
//     a serial one-lane FNV-1a, both over the same 16 MB, best of 7; in a
//     full run the library checksum must be at least 2.5x faster;
//   * support::parallel_for over four empty tiles against a
//     spawn-per-call parallel_for (one thread per chunk, started and
//     joined on every call, the same partition); in a full run the worker
//     team must be at least 3x faster;
//   * a 16 MB CommandQueue write + read round trip against the same round
//     trip as hash, serial std::copy, hash per direction; in a full run
//     the queue's one-pass, team-parallel transfers (copy, then a bitwise
//     compare per block) must be at least 1.4x faster. Each pair also
//     times a control, the same round trip as a team memcpy with no
//     check, and prints its bandwidth next to the ratio: a host whose
//     memory bandwidth is squeezed by other tenants shows a low control,
//     a regression in the queue does not.
// The last two gates read the median of dfgbench::kGatePairs interleaved
// per-pair ratios (dfgbench::time_pairs).
//
// Results land in BENCH_vm.json in the working directory. DFGEN_SMOKE=1
// shrinks the grid, runs 3 pairs instead of kGatePairs and skips the
// throughput, checksum, team and transfer thresholds (CI smoke run);
// correctness assertions always apply.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "distrib/decomposition.hpp"
#include "distrib/dist_engine.hpp"
#include "kernels/backend.hpp"
#include "kernels/generator.hpp"
#include "kernels/optimizer.hpp"
#include "kernels/program_cache.hpp"
#include "kernels/vm.hpp"
#include "runtime/bindings.hpp"
#include "support/checksum.hpp"
#include "support/parallel.hpp"
#include "vcl/queue.hpp"

namespace {

using dfg::kernels::BufferBinding;
using dfg::kernels::Program;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ExprResult {
  std::string name;
  std::size_t cells = 0;
  double scalar_cells_per_sec = 0.0;
  double tiled_cells_per_sec = 0.0;
  double optimized_cells_per_sec = 0.0;
  double jit_cells_per_sec = 0.0;
  bool jit_fallback = false;  ///< toolchain missing: jit column is the VM
  std::size_t instructions_raw = 0;
  std::size_t instructions_optimized = 0;
  int registers_raw = 0;
  int registers_optimized = 0;

  double tiled_speedup() const {
    return tiled_cells_per_sec / scalar_cells_per_sec;
  }
  double optimized_speedup() const {
    return optimized_cells_per_sec / scalar_cells_per_sec;
  }
  /// The issue's gate: compiled code vs. the optimized tiled interpreter.
  double jit_speedup_vs_tiled() const {
    return jit_cells_per_sec / optimized_cells_per_sec;
  }
};

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// Times `fn` (which fills its output buffer) and returns the best seconds
/// over `reps` runs after one warmup.
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  fn();  // warmup
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

ExprResult run_expression(const dfgbench::ExpressionCase& expr,
                          const dfg::mesh::RectilinearMesh& mesh,
                          const dfg::mesh::VectorField& field, int reps) {
  const dfg::dataflow::Network network(
      dfg::dataflow::build_network(expr.expression));
  const Program raw = dfg::kernels::generate_fused(network);
  const Program optimized = dfg::kernels::optimize_program(raw);

  dfg::runtime::FieldBindings bindings;
  bindings.bind_mesh(mesh);
  bindings.bind("u", field.u);
  bindings.bind("v", field.v);
  bindings.bind("w", field.w);
  std::vector<BufferBinding> inputs;
  for (const dfg::kernels::BufferParam& param : raw.params()) {
    const auto view = bindings.get(param.name);
    inputs.push_back({view.data(), view.size()});
  }

  const std::size_t n = mesh.cell_count();
  std::vector<float> out_scalar(n * raw.out_stride());
  std::vector<float> out_tiled(n * raw.out_stride());
  std::vector<float> out_opt(n * raw.out_stride());
  std::vector<float> out_jit(n * raw.out_stride());

  ExprResult result;
  result.name = expr.short_name;
  result.cells = n;
  result.instructions_raw = raw.code().size();
  result.instructions_optimized = optimized.code().size();
  result.registers_raw = raw.register_count();
  result.registers_optimized = optimized.register_count();

  const double scalar_s = best_seconds(reps, [&] {
    dfg::kernels::run_scalar(raw, inputs, out_scalar.data(),
                             out_scalar.size(), 0, n);
  });
  const double tiled_s = best_seconds(reps, [&] {
    dfg::kernels::run(raw, inputs, out_tiled.data(), out_tiled.size(), 0, n);
  });
  const double opt_s = best_seconds(reps, [&] {
    dfg::kernels::run(optimized, inputs, out_opt.data(), out_opt.size(), 0,
                      n);
  });

  // Jit column: compile once through the backend (the cached, steady-state
  // path), then time only the launches. A missing toolchain degrades this
  // to the VM kernel — recorded, not failed.
  const std::shared_ptr<const dfg::kernels::CompiledKernel> jit_kernel =
      dfg::kernels::backend_for(dfg::kernels::BackendKind::jit)
          ->prepare(optimized);
  result.jit_fallback =
      jit_kernel->kind() != dfg::kernels::BackendKind::jit;
  const double jit_s = best_seconds(reps, [&] {
    jit_kernel->run(optimized, inputs, out_jit.data(), out_jit.size(), 0, n);
  });

  if (!bits_equal(out_tiled, out_scalar) || !bits_equal(out_opt, out_scalar) ||
      !bits_equal(out_jit, out_scalar)) {
    std::fprintf(stderr,
                 "FAIL: %s tiled/optimized/jit output not bit-identical to "
                 "the element interpreter\n",
                 expr.short_name);
    std::exit(1);
  }

  result.scalar_cells_per_sec = static_cast<double>(n) / scalar_s;
  result.tiled_cells_per_sec = static_cast<double>(n) / tiled_s;
  result.optimized_cells_per_sec = static_cast<double>(n) / opt_s;
  result.jit_cells_per_sec = static_cast<double>(n) / jit_s;
  return result;
}

struct CacheResult {
  std::size_t engine_evaluations = 0;
  std::size_t engine_hits = 0;
  std::size_t engine_misses = 0;
  std::size_t distributed_hits = 0;
  std::size_t distributed_misses = 0;

  double invocation_reduction() const {
    const std::size_t requests = engine_hits + engine_misses +
                                 distributed_hits + distributed_misses;
    const std::size_t misses = engine_misses + distributed_misses;
    return misses == 0 ? static_cast<double>(requests)
                       : static_cast<double>(requests) /
                             static_cast<double>(misses);
  }
};

CacheResult run_cache_study(bool smoke) {
  dfg::kernels::ProgramCache::instance().clear();
  CacheResult result;

  // Repeated single-node evaluations of the same expression: the paper's
  // in-situ loop, one evaluation per time step.
  const dfg::mesh::RectilinearMesh mesh = dfg::mesh::RectilinearMesh::uniform(
      smoke ? dfg::mesh::Dims{8, 8, 8} : dfg::mesh::Dims{16, 16, 16});
  const dfg::mesh::VectorField field = dfg::mesh::rayleigh_taylor_flow(mesh);
  result.engine_evaluations = 20;
  for (std::size_t step = 0; step < result.engine_evaluations; ++step) {
    dfg::vcl::Device device(dfgbench::scaled_cpu());
    dfg::Engine engine(device, {dfg::runtime::StrategyKind::fusion, {}});
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    const dfg::EvaluationReport report =
        engine.evaluate(dfg::expressions::kQCriterion);
    result.engine_hits += report.pipeline_cache_hits;
    result.engine_misses += report.pipeline_cache_misses;
  }

  // One distributed run: every block shares the cached pipeline.
  const dfg::mesh::RectilinearMesh global =
      dfg::mesh::RectilinearMesh::uniform({16, 16, 16});
  const dfg::mesh::VectorField gfield = dfg::mesh::rayleigh_taylor_flow(global);
  dfg::distrib::ClusterConfig config;
  config.nodes = 2;
  config.devices_per_node = 2;
  config.device_spec = dfgbench::scaled_cpu();
  dfg::distrib::DistributedEngine dist(
      global, dfg::distrib::GridDecomposition(global.dims(), 2, 2, 2),
      config);
  dist.bind_global("u", gfield.u);
  dist.bind_global("v", gfield.v);
  dist.bind_global("w", gfield.w);
  const dfg::distrib::DistributedReport dreport = dist.evaluate(
      dfg::expressions::kVorticityMagnitude,
      dfg::runtime::StrategyKind::fusion);
  result.distributed_hits = dreport.pipeline_cache_hits;
  result.distributed_misses = dreport.pipeline_cache_misses;
  return result;
}

/// Serial FNV-1a over the word count and then every word: one dependency
/// chain through the multiply, the checksum's layout before it was split
/// into blocks and lanes.
std::uint64_t reference_checksum(std::span<const float> values,
                                 std::uint64_t seed) {
  const std::uint64_t count = values.size();
  std::uint64_t hash = dfg::support::fnv1a(&count, sizeof(count), seed);
  for (const float value : values) {
    std::uint32_t word;
    std::memcpy(&word, &value, sizeof(word));
    hash = (hash ^ word) * dfg::support::kFnvPrime;
  }
  return hash;
}

struct ChecksumResult {
  double megabytes = 0.0;
  double library_ms_per_mb = 0.0;
  double reference_ms_per_mb = 0.0;

  double speedup() const { return reference_ms_per_mb / library_ms_per_mb; }
};

ChecksumResult run_checksum_study() {
  constexpr std::size_t kWords = (std::size_t{16} << 20) / sizeof(float);
  std::vector<float> data(kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    data[i] = static_cast<float>(i % 4099) * 0.125f;
  }
  volatile std::uint64_t sink = 0;
  ChecksumResult result;
  result.megabytes = static_cast<double>(kWords * sizeof(float)) / 1.0e6;
  // Alternate the two so a burst of host contention hits both, and keep
  // each one's best.
  double library_s = 1e30;
  double reference_s = 1e30;
  for (int rep = 0; rep < 7; ++rep) {
    double t0 = now_seconds();
    sink = sink + dfg::support::checksum_floats(data);
    library_s = std::min(library_s, now_seconds() - t0);
    t0 = now_seconds();
    sink = sink + reference_checksum(data, dfg::support::kFnvOffsetBasis);
    reference_s = std::min(reference_s, now_seconds() - t0);
  }
  result.library_ms_per_mb = library_s * 1.0e3 / result.megabytes;
  result.reference_ms_per_mb = reference_s * 1.0e3 / result.megabytes;
  return result;
}

/// parallel_for without a worker team: the same partition, one thread
/// started and joined per chunk on every call.
template <typename Body>
void spawn_per_call_parallel_for(std::size_t n, const Body& body,
                                 std::size_t grain) {
  const std::size_t tiles = (n + grain - 1) / grain;
  const std::size_t workers = std::min(dfg::support::worker_count(), tiles);
  if (workers <= 1) {
    body(std::size_t{0}, n);
    return;
  }
  const std::size_t chunk = ((tiles + workers - 1) / workers) * grain;
  std::vector<std::thread> threads;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    threads.emplace_back(body, begin, std::min(n, begin + chunk));
  }
  for (std::thread& thread : threads) thread.join();
}

template <typename Fn>
double seconds_of(Fn&& fn) {
  const double t0 = now_seconds();
  fn();
  return now_seconds() - t0;
}

/// Arm a is the spawn-per-call reference, arm b the worker team, so the
/// median ratio is the team's speedup.
dfgbench::PairedTiming run_team_study(int pairs) {
  const std::size_t n = 4 * dfg::support::kDefaultGrain;  // four tiles
  const auto empty = [](std::size_t, std::size_t) {};
  return dfgbench::time_pairs(
      pairs,
      [&] {
        return seconds_of([&] {
          spawn_per_call_parallel_for(n, empty, dfg::support::kDefaultGrain);
        });
      },
      [&] {
        return seconds_of([&] { dfg::support::parallel_for(n, empty); });
      });
}

/// A transfer as hash source, serial std::copy, hash destination.
void reference_transfer(std::span<const float> from, std::span<float> to) {
  const std::uint64_t expected = dfg::support::checksum_floats(from);
  std::copy(from.begin(), from.end(), to.begin());
  if (dfg::support::checksum_floats(to) != expected) {
    std::fprintf(stderr, "FAIL: reference transfer digest mismatch\n");
    std::exit(1);
  }
}

/// Copies `from` into `to` block by block on the worker team, unchecked.
void team_copy(std::span<const float> from, std::span<float> to) {
  constexpr std::size_t kBlock = dfg::vcl::kTransferBlockWords;
  dfg::support::parallel_for(
      (from.size() + kBlock - 1) / kBlock,
      [&](std::size_t begin, std::size_t end) {
        const std::size_t first = begin * kBlock;
        std::memcpy(to.data() + first, from.data() + first,
                    (std::min(end * kBlock, from.size()) - first) *
                        sizeof(float));
      },
      /*grain=*/1);
}

struct RoundTripResult {
  double megabytes = 0.0;
  /// Arm a is the reference round trip, arm b the queue's.
  dfgbench::PairedTiming timing;
  /// Median seconds of the team memcpy control, timed after arm b in
  /// every pair.
  double memcpy_median_seconds = 0.0;
  /// Bytes the control moves (both directions) per second, in GB/s.
  double memcpy_gbps() const {
    return 2.0 * megabytes * 1.0e-3 / memcpy_median_seconds;
  }
};

RoundTripResult run_round_trip_study(int pairs) {
  constexpr std::size_t kWords = (std::size_t{16} << 20) / sizeof(float);
  std::vector<float> host(kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    host[i] = static_cast<float>(i % 4099) * 0.125f;
  }
  std::vector<float> back(kWords), reference_device(kWords),
      reference_back(kWords);
  dfg::vcl::Device device(dfgbench::scaled_cpu());
  dfg::vcl::ProfilingLog log;
  dfg::vcl::CommandQueue queue(device, log);
  dfg::vcl::Buffer buffer = device.allocate(kWords);

  RoundTripResult result;
  result.megabytes = static_cast<double>(kWords * sizeof(float)) / 1.0e6;
  std::vector<double> control_seconds;
  result.timing = dfgbench::time_pairs(
      pairs,
      [&] {
        return seconds_of([&] {
          reference_transfer(host, reference_device);
          reference_transfer(reference_device, reference_back);
        });
      },
      [&] {
        const double queue_seconds = seconds_of([&] {
          queue.write(buffer, host, "in");
          queue.read(buffer, back, "out");
        });
        control_seconds.push_back(seconds_of([&] {
          team_copy(host, reference_device);
          team_copy(reference_device, reference_back);
        }));
        return queue_seconds;
      });
  result.memcpy_median_seconds = dfgbench::median(control_seconds);
  if (back != host || reference_back != host) {
    std::fprintf(stderr, "FAIL: 16 MB round trip is not bit-exact\n");
    std::exit(1);
  }
  return result;
}

void write_json(const std::vector<ExprResult>& exprs, const CacheResult& cache,
                const ChecksumResult& checksum,
                const dfgbench::PairedTiming& team,
                const RoundTripResult& round_trip, bool smoke) {
  std::FILE* f = std::fopen("BENCH_vm.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_vm.json for writing\n");
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"smoke\": %s,\n  \"expressions\": [\n",
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < exprs.size(); ++i) {
    const ExprResult& e = exprs[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"cells\": %zu,\n"
        "     \"scalar_cells_per_sec\": %.3e, \"tiled_cells_per_sec\": "
        "%.3e,\n"
        "     \"optimized_cells_per_sec\": %.3e,\n"
        "     \"jit_cells_per_sec\": %.3e, \"jit_fallback\": %s,\n"
        "     \"tiled_speedup\": %.2f, \"optimized_speedup\": %.2f,\n"
        "     \"jit_speedup_vs_tiled\": %.2f,\n"
        "     \"instructions\": {\"raw\": %zu, \"optimized\": %zu},\n"
        "     \"registers\": {\"raw\": %d, \"optimized\": %d}}%s\n",
        e.name.c_str(), e.cells, e.scalar_cells_per_sec,
        e.tiled_cells_per_sec, e.optimized_cells_per_sec,
        e.jit_cells_per_sec, e.jit_fallback ? "true" : "false",
        e.tiled_speedup(), e.optimized_speedup(), e.jit_speedup_vs_tiled(),
        e.instructions_raw, e.instructions_optimized,
        e.registers_raw, e.registers_optimized,
        i + 1 < exprs.size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n  \"cache\": {\n"
      "    \"engine_evaluations\": %zu,\n"
      "    \"engine_hits\": %zu, \"engine_misses\": %zu,\n"
      "    \"distributed_hits\": %zu, \"distributed_misses\": %zu,\n"
      "    \"invocation_reduction\": %.1f\n  },\n"
      "  \"checksum\": {\"megabytes\": %.2f, \"checksum_ms_per_mb\": %.4f,\n"
      "    \"reference_ms_per_mb\": %.4f, \"speedup\": %.2f},\n"
      "  \"parallel_for\": {\"pairs\": %d, \"team_us\": %.2f,\n"
      "    \"spawn_per_call_us\": %.2f, \"speedup\": %.2f},\n"
      "  \"round_trip\": {\"megabytes\": %.2f, \"pairs\": %d,\n"
      "    \"queue_ms\": %.3f, \"reference_ms\": %.3f, \"speedup\": %.2f,\n"
      "    \"memcpy_ms\": %.3f, \"memcpy_gbps\": %.2f}\n"
      "}\n",
      cache.engine_evaluations, cache.engine_hits, cache.engine_misses,
      cache.distributed_hits, cache.distributed_misses,
      cache.invocation_reduction(), checksum.megabytes,
      checksum.library_ms_per_mb, checksum.reference_ms_per_mb,
      checksum.speedup(), team.pairs, team.b_median_seconds * 1.0e6,
      team.a_median_seconds * 1.0e6, team.median_ratio, round_trip.megabytes,
      round_trip.timing.pairs, round_trip.timing.b_median_seconds * 1.0e3,
      round_trip.timing.a_median_seconds * 1.0e3,
      round_trip.timing.median_ratio,
      round_trip.memcpy_median_seconds * 1.0e3, round_trip.memcpy_gbps());
  std::fclose(f);
}

}  // namespace

int main() {
  const bool smoke = dfg::support::env::get_flag("DFGEN_SMOKE");
  dfgbench::check_environment();

  const dfg::mesh::RectilinearMesh mesh = dfg::mesh::RectilinearMesh::uniform(
      smoke ? dfg::mesh::Dims{16, 16, 16} : dfg::mesh::Dims{64, 64, 64});
  const dfg::mesh::VectorField field = dfg::mesh::rayleigh_taylor_flow(mesh);
  const int reps = smoke ? 1 : 3;

  std::printf("=== VM throughput: %zu cells, %d timed reps ===\n",
              mesh.cell_count(), reps);
  std::printf("%-10s %14s %14s %14s %14s %8s %8s %8s\n", "expr",
              "scalar[c/s]", "tiled[c/s]", "optimized[c/s]", "jit[c/s]",
              "tile-x", "opt-x", "jit-x");
  std::vector<ExprResult> results;
  for (const dfgbench::ExpressionCase& expr : dfgbench::paper_expressions()) {
    const ExprResult r = run_expression(expr, mesh, field, reps);
    std::printf("%-10s %14.3e %14.3e %14.3e %14.3e %7.2fx %7.2fx %7.2fx%s\n",
                r.name.c_str(), r.scalar_cells_per_sec, r.tiled_cells_per_sec,
                r.optimized_cells_per_sec, r.jit_cells_per_sec,
                r.tiled_speedup(), r.optimized_speedup(),
                r.jit_speedup_vs_tiled(),
                r.jit_fallback ? "  (vm fallback)" : "");
    results.push_back(r);
  }

  const CacheResult cache = run_cache_study(smoke);
  std::printf(
      "\n=== Program cache: %zu engine evals + 1 distributed run ===\n",
      cache.engine_evaluations);
  std::printf("engine hits/misses: %zu/%zu, distributed: %zu/%zu, "
              "invocation reduction: %.1fx\n",
              cache.engine_hits, cache.engine_misses, cache.distributed_hits,
              cache.distributed_misses, cache.invocation_reduction());

  const ChecksumResult checksum = run_checksum_study();
  std::printf("\n=== Transfer checksum: %.1f MB ===\n", checksum.megabytes);
  std::printf("checksum_ms_per_mb: %.4f (serial reference %.4f), %.2fx\n",
              checksum.library_ms_per_mb, checksum.reference_ms_per_mb,
              checksum.speedup());

  const int pairs = smoke ? 3 : dfgbench::kGatePairs;
  const dfgbench::PairedTiming team = run_team_study(pairs);
  std::printf("\n=== Worker team: parallel_for over 4 empty tiles, %d pairs "
              "===\n",
              pairs);
  std::printf("parallel_for_us: %.2f (spawn per call %.2f), %.2fx "
              "(median pair ratio)\n",
              team.b_median_seconds * 1.0e6, team.a_median_seconds * 1.0e6,
              team.median_ratio);

  const RoundTripResult round_trip = run_round_trip_study(pairs);
  std::printf("\n=== Transfer round trip: %.1f MB write + read, %d pairs ===\n",
              round_trip.megabytes, pairs);
  std::printf("queue: %.3f ms (hash, serial copy, hash: %.3f ms), %.2fx "
              "(median pair ratio); team memcpy control %.3f ms, %.1f GB/s\n",
              round_trip.timing.b_median_seconds * 1.0e3,
              round_trip.timing.a_median_seconds * 1.0e3,
              round_trip.timing.median_ratio,
              round_trip.memcpy_median_seconds * 1.0e3,
              round_trip.memcpy_gbps());

  write_json(results, cache, checksum, team, round_trip, smoke);
  std::printf("\nwrote BENCH_vm.json\n");

  // Correctness gates (bit-exactness already enforced per expression).
  if (cache.engine_misses + cache.distributed_misses == 0) {
    std::fprintf(stderr, "FAIL: expected at least one generator invocation\n");
    return 1;
  }
  if (cache.invocation_reduction() < 10.0) {
    std::fprintf(stderr,
                 "FAIL: cache cut generator invocations only %.1fx (< 10x)\n",
                 cache.invocation_reduction());
    return 1;
  }
  if (!smoke) {
    if (checksum.speedup() < 2.5) {
      std::fprintf(stderr,
                   "FAIL: checksum_floats only %.2fx faster than the serial "
                   "FNV-1a reference (< 2.5x)\n",
                   checksum.speedup());
      return 1;
    }
    if (team.median_ratio < 3.0) {
      std::fprintf(stderr,
                   "FAIL: parallel_for only %.2fx faster than spawning a "
                   "thread per chunk (< 3x)\n",
                   team.median_ratio);
      return 1;
    }
    if (round_trip.timing.median_ratio < 1.4) {
      std::fprintf(stderr,
                   "FAIL: 16 MB queue round trip only %.2fx faster than hash, "
                   "serial copy, hash (< 1.4x)\n",
                   round_trip.timing.median_ratio);
      return 1;
    }
    const ExprResult& qcrit = results.back();  // Q-Crit is the last case
    if (qcrit.optimized_speedup() < 5.0) {
      std::fprintf(stderr,
                   "FAIL: optimized tiled Q-criterion only %.2fx over the "
                   "element interpreter (< 5x)\n",
                   qcrit.optimized_speedup());
      return 1;
    }
    if (qcrit.jit_fallback) {
      std::printf("jit toolchain unavailable: 3x gate skipped "
                  "(fallback to the VM is by design)\n");
    } else if (qcrit.jit_speedup_vs_tiled() < 3.0) {
      std::fprintf(stderr,
                   "FAIL: jit Q-criterion only %.2fx over the optimized "
                   "tiled interpreter (< 3x)\n",
                   qcrit.jit_speedup_vs_tiled());
      return 1;
    }
  }
  std::printf("all throughput, checksum, team, transfer and cache gates "
              "passed\n");
  return 0;
}
