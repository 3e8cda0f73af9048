// Cross-request subgraph memoization study: what sharing materialized
// intermediates across *different* networks buys for overlapping traffic.
//
// The workload is a catalog of vorticity-derived fields that all hang off
// one heavy enstrophy subtree (three grad3d stencils plus the curl
// arithmetic) but diverge at the final consumer — the dashboard pattern
// where every panel renders a different view of the same expensive
// intermediate. A seeded Zipf trace (generate_trace below) replays the
// catalog through two EvalServices on identical GPU-class devices: one
// with memoization enabled, one with it off. The memoizing service should
// materialize the enstrophy subtree once, then serve every later request
// from the device cache and only pay for the cheap per-panel tail.
//
// Gates: the trace generator replays bit-identically from its seed, every
// request completes, every result is bit-identical to a single-Engine
// reference for its expression, the memoizing run records nonzero cache
// hits and bytes saved, the memo-off run records zero hits but still
// counts near-miss candidates, and total simulated device time improves
// by at least 1.5x end to end. Host wall seconds of each replay (submit
// through drain) are printed next to the simulated ones but not gated.
//
// Results land in BENCH_memo.json in the working directory. DFGEN_SMOKE=1
// shrinks the grid and the trace; every gate still applies (the simulated
// clock is deterministic, so the speedup threshold is scale-free).
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "service/service.hpp"

namespace {

using dfg::service::EvalService;
using dfg::service::Request;
using dfg::service::RequestStatus;
using dfg::service::ServiceOptions;
using dfg::service::Ticket;

// --- Seeded heavy-tailed traffic ------------------------------------------
//
// Derived-field traffic is not uniform: a handful of expressions dominate,
// and arrivals come in bursts (a timestep lands and every dashboard
// refreshes). The generator models both — Zipf expression popularity and
// a two-state bursty arrival process — as a pure function of its seed, so
// a trace replays bit-for-bit.

struct TrafficOptions {
  std::uint64_t seed = 1;
  std::size_t requests = 1000;
  std::size_t sessions = 16;
  /// Zipf exponent over the expression catalog (rank r drawn with weight
  /// 1/r^s): larger = more skew toward the most popular expression.
  double zipf_exponent = 1.1;
  /// Mean inter-arrival gap outside bursts (exponential).
  double mean_interarrival_seconds = 0.0005;
  /// Arrival-rate multiplier while inside a burst.
  double burst_factor = 8.0;
  /// Mean dwell time of the burst / quiet states.
  double mean_burst_seconds = 0.02;
  double mean_quiet_seconds = 0.05;
};

struct TrafficEvent {
  double at_seconds = 0.0;
  /// Index into the caller's expression catalog (Zipf rank order: 0 is
  /// the most popular).
  std::size_t expression = 0;
  std::size_t session = 0;

  bool operator==(const TrafficEvent&) const = default;
};

/// Deterministic trace of `options.requests` events sorted by arrival
/// time. `catalog_size` bounds the expression index (must be >= 1).
std::vector<TrafficEvent> generate_trace(const TrafficOptions& options,
                                         std::size_t catalog_size) {
  if (catalog_size == 0) catalog_size = 1;
  std::mt19937_64 rng(options.seed);

  // Zipf CDF over the catalog.
  std::vector<double> cdf(catalog_size);
  double total = 0.0;
  for (std::size_t r = 0; r < catalog_size; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1),
                            options.zipf_exponent);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;

  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  auto exponential = [&](double mean) {
    // Inverse-CDF sampling; clamp the uniform away from 0 so log() is
    // finite. Mean 0 degenerates to simultaneous arrivals.
    if (mean <= 0.0) return 0.0;
    return -mean * std::log(std::max(uniform(rng), 1e-12));
  };

  std::vector<TrafficEvent> trace;
  trace.reserve(options.requests);
  double now = 0.0;
  bool bursting = false;
  double state_ends = exponential(options.mean_quiet_seconds);
  const double burst_rate_scale =
      options.burst_factor > 0.0 ? 1.0 / options.burst_factor : 1.0;
  for (std::size_t i = 0; i < options.requests; ++i) {
    const double gap = exponential(options.mean_interarrival_seconds) *
                       (bursting ? burst_rate_scale : 1.0);
    now += gap;
    while (now >= state_ends) {
      bursting = !bursting;
      state_ends += exponential(bursting ? options.mean_burst_seconds
                                         : options.mean_quiet_seconds);
    }

    TrafficEvent event;
    event.at_seconds = now;
    const double zipf_draw = uniform(rng);
    event.expression = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), zipf_draw) - cdf.begin());
    if (event.expression >= catalog_size) event.expression = catalog_size - 1;
    event.session = static_cast<std::size_t>(
        uniform(rng) * static_cast<double>(std::max<std::size_t>(
                           options.sessions, 1)));
    if (event.session >= options.sessions && options.sessions > 0) {
      event.session = options.sessions - 1;
    }
    uniform(rng);  // was the priority draw; kept so the trace is unchanged
    trace.push_back(event);
  }
  return trace;
}

// --- Workload ---------------------------------------------------------------

// Every catalog entry shares this enstrophy prelude; only the final
// consumer statement differs, so cross-request memoization can serve the
// `ens` subtree from cache while the coalescer (which matches whole
// networks) cannot.
const char* kEnstrophyPrelude =
    "wx = grad3d(w, dims, x, y, z)[1] - grad3d(v, dims, x, y, z)[2]\n"
    "wy = grad3d(u, dims, x, y, z)[2] - grad3d(w, dims, x, y, z)[0]\n"
    "wz = grad3d(v, dims, x, y, z)[0] - grad3d(u, dims, x, y, z)[1]\n"
    "ens = wx*wx + wy*wy + wz*wz\n";

std::vector<std::string> catalog() {
  const std::string prelude = kEnstrophyPrelude;
  return {
      prelude + "r = sqrt(ens)",            // vorticity magnitude
      prelude + "r = ens * 0.5",            // enstrophy density
      prelude + "r = sqrt(ens) + u",        // magnitude over advection
      prelude + "r = ens * 0.5 - w",        // density against updraft
      prelude + "r = sqrt(ens + 1.0)",      // regularized magnitude
      prelude + "r = ens * ens * 0.25",     // palinstrophy proxy
  };
}

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

struct TraceResult {
  std::size_t requests = 0;
  std::size_t leaders = 0;
  double sim_seconds = 0.0;
  /// Host wall-clock time from the first submit to the final drain.
  double wall_seconds = 0.0;
  bool bit_exact = true;
  bool all_completed = true;
  dfg::service::ServiceSnapshot snapshot;
};

/// Replays `trace` through one service in waves (a wave models one
/// timestep's dashboard refresh: submit the burst, drain, next step).
TraceResult run_trace(const std::vector<TrafficEvent>& trace,
                      const std::vector<std::string>& exprs,
                      const dfg::mesh::RectilinearMesh& mesh,
                      const dfg::mesh::VectorField& field,
                      const std::vector<std::vector<float>>& references,
                      bool memo, std::size_t wave) {
  dfg::vcl::Device device(dfgbench::scaled_gpu());
  ServiceOptions options;
  options.memo = memo;
  options.start_paused = true;
  EvalService service({&device}, options);

  TraceResult result;
  result.requests = trace.size();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::pair<Ticket, std::size_t>> tickets;
  tickets.reserve(trace.size());
  bool resumed = false;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& event = trace[i];
    Request request;
    request.expression = exprs[event.expression];
    request.mesh = &mesh;
    request.fields = {{"u", field.u}, {"v", field.v}, {"w", field.w}};
    std::string session = "s";
    session += std::to_string(event.session);
    request.session = std::move(session);
    tickets.emplace_back(service.submit(std::move(request)),
                         event.expression);
    if ((i + 1) % wave == 0 || i + 1 == trace.size()) {
      if (!resumed) {
        service.resume();
        resumed = true;
      }
      service.drain();
    }
  }
  service.drain();
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

  for (const auto& [ticket, expr_index] : tickets) {
    const auto& report = ticket.wait();
    if (report.status != RequestStatus::completed) {
      result.all_completed = false;
      continue;
    }
    if (report.coalesce_leader) {
      ++result.leaders;
      result.sim_seconds += report.evaluation->sim_seconds;
    }
    if (!bits_equal(report.evaluation->values, references[expr_index])) {
      result.bit_exact = false;
    }
  }
  result.snapshot = service.snapshot();
  return result;
}

void write_json(const TraceResult& on, const TraceResult& off, bool smoke,
                std::size_t elements) {
  std::FILE* out = std::fopen("BENCH_memo.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_memo.json for writing\n");
    return;
  }
  const auto section = [&](const char* name, const TraceResult& r) {
    std::fprintf(
        out,
        "  \"%s\": {\n"
        "    \"requests\": %zu,\n"
        "    \"leaders\": %zu,\n"
        "    \"sim_seconds\": %.9f,\n"
        "    \"wall_seconds\": %.6f,\n"
        "    \"bit_exact\": %s,\n"
        "    \"memo_hits\": %zu,\n"
        "    \"memo_misses\": %zu,\n"
        "    \"memo_admits\": %zu,\n"
        "    \"memo_bytes_saved\": %zu,\n"
        "    \"memo_recompute_saved_nanos\": %zu,\n"
        "    \"memo_candidate_requests\": %zu,\n"
        "    \"coalesced_requests\": %zu\n"
        "  }",
        name, r.requests, r.leaders, r.sim_seconds, r.wall_seconds,
        r.bit_exact ? "true" : "false", r.snapshot.memo_hits,
        r.snapshot.memo_misses, r.snapshot.memo_admits,
        r.snapshot.memo_bytes_saved, r.snapshot.memo_recompute_saved_nanos,
        r.snapshot.memo_candidate_requests, r.snapshot.coalesced_requests);
  };
  std::fprintf(out, "{\n  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"elements\": %zu,\n", elements);
  section("memo", on);
  std::fprintf(out, ",\n");
  section("no_memo", off);
  std::fprintf(out, ",\n  \"speedup\": %.3f\n}\n",
               off.sim_seconds / on.sim_seconds);
  std::fclose(out);
}

}  // namespace

int main() {
  const bool smoke = dfg::support::env::get_flag("DFGEN_SMOKE");
  dfgbench::check_environment();

  const dfg::mesh::Dims dims =
      smoke ? dfg::mesh::Dims{16, 16, 16} : dfg::mesh::Dims{32, 32, 32};
  const auto mesh = dfg::mesh::RectilinearMesh::uniform(dims);
  const auto field = dfg::mesh::rayleigh_taylor_flow(mesh, 11);
  const auto exprs = catalog();

  // Bit-exactness oracle: one plain Engine per expression, no service, no
  // memoization, same device class.
  std::vector<std::vector<float>> references;
  references.reserve(exprs.size());
  {
    dfg::vcl::Device device(dfgbench::scaled_gpu());
    dfg::Engine engine(device);
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    for (const auto& expr : exprs) {
      references.push_back(engine.evaluate(expr).values);
    }
  }

  TrafficOptions traffic;
  traffic.seed = 42;
  traffic.requests = smoke ? 36 : 240;
  traffic.sessions = 8;
  const auto trace = generate_trace(traffic, exprs.size());
  // Both services must replay the same trace: generation is a pure
  // function of the seed.
  const bool trace_replays = generate_trace(traffic, exprs.size()) == trace;
  const std::size_t wave = 12;

  const TraceResult off =
      run_trace(trace, exprs, mesh, field, references, false, wave);
  const TraceResult on =
      run_trace(trace, exprs, mesh, field, references, true, wave);
  const double speedup = off.sim_seconds / on.sim_seconds;

  std::printf("subgraph memoization: %zu requests over %zu expressions "
              "(%zux%zux%zu grid)\n",
              trace.size(), exprs.size(), dims.nx, dims.ny, dims.nz);
  std::printf("  memo off: %zu leader evaluations, %.6f sim s, %.3f wall s\n",
              off.leaders, off.sim_seconds, off.wall_seconds);
  std::printf("  memo on:  %zu leader evaluations, %.6f sim s, %.3f wall s "
              "(hits %zu, admits %zu, bytes saved %zu)\n",
              on.leaders, on.sim_seconds, on.wall_seconds,
              on.snapshot.memo_hits, on.snapshot.memo_admits,
              on.snapshot.memo_bytes_saved);
  std::printf("  end-to-end speedup: %.2fx (wall %.2fx, not gated)\n",
              speedup, off.wall_seconds / on.wall_seconds);

  write_json(on, off, smoke, mesh.cell_count());

  bool ok = true;
  if (!trace_replays) {
    std::fprintf(stderr,
                 "FAIL: two traces generated from seed %llu differ\n",
                 static_cast<unsigned long long>(traffic.seed));
    ok = false;
  }
  if (!on.all_completed || !off.all_completed) {
    std::fprintf(stderr, "FAIL: a request was rejected or failed\n");
    ok = false;
  }
  if (!off.bit_exact) {
    std::fprintf(stderr,
                 "FAIL: memo-off run diverged from engine references\n");
    ok = false;
  }
  if (!on.bit_exact) {
    std::fprintf(stderr,
                 "FAIL: memoized run diverged from engine references\n");
    ok = false;
  }
  if (on.snapshot.memo_hits == 0 || on.snapshot.memo_admits == 0) {
    std::fprintf(stderr,
                 "FAIL: memoized run never hit the intermediate cache "
                 "(hits %zu, admits %zu)\n",
                 on.snapshot.memo_hits, on.snapshot.memo_admits);
    ok = false;
  }
  if (on.snapshot.memo_bytes_saved == 0) {
    std::fprintf(stderr, "FAIL: memoized run saved zero bytes\n");
    ok = false;
  }
  if (off.snapshot.memo_hits != 0) {
    std::fprintf(stderr, "FAIL: memo-off run recorded cache hits\n");
    ok = false;
  }
  if (off.snapshot.memo_candidate_requests == 0) {
    std::fprintf(stderr,
                 "FAIL: near-miss candidate counter stayed zero with "
                 "memoization off\n");
    ok = false;
  }
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: end-to-end speedup %.2fx below the 1.5x gate\n",
                 speedup);
    ok = false;
  }
  if (!ok) return 1;
  std::printf("all subgraph-memoization gates passed\n");
  return 0;
}
