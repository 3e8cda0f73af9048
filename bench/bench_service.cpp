// Evaluation-service study: what request coalescing buys when many callers
// want the same derived field from the same simulation state at once.
//
// Coalescing throughput: 8 concurrent sessions each submit the same
// Q-criterion request (same mesh, same bound arrays). The coalescer must
// execute exactly ONE evaluation per burst and fan the result out; the
// gates require the results bit-identical to back-to-back serialized
// Engine::evaluate calls and, in a full run, service throughput at least
// 3x the serialized baseline.
//
// Results land in BENCH_service.json in the working directory.
// DFGEN_SMOKE=1 shrinks the grid and skips the throughput threshold;
// correctness gates (coalescing count, fan-out, bit-exactness) always
// apply.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "service/service.hpp"

namespace {

using dfg::service::EvalService;
using dfg::service::Request;
using dfg::service::RequestStatus;
using dfg::service::ServiceOptions;
using dfg::service::ServiceReport;
using dfg::service::ServiceSnapshot;
using dfg::service::Ticket;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
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

Request make_request(const dfg::mesh::RectilinearMesh& mesh,
                     const dfg::mesh::VectorField& field,
                     const char* expression, std::string session) {
  Request request;
  request.expression = expression;
  request.mesh = &mesh;
  request.fields = {{"u", field.u}, {"v", field.v}, {"w", field.w}};
  request.session = std::move(session);
  return request;
}

struct CoalesceResult {
  std::size_t sessions = 0;
  std::size_t rounds = 0;
  double serialized_seconds = 0.0;
  double service_seconds = 0.0;
  std::size_t evaluations_per_round = 0;
  std::size_t coalesced_fanout = 0;
  bool bit_exact = false;

  double speedup() const { return serialized_seconds / service_seconds; }
};

CoalesceResult run_coalescing_study(const dfg::mesh::RectilinearMesh& mesh,
                                    const dfg::mesh::VectorField& field,
                                    std::size_t rounds) {
  CoalesceResult result;
  result.sessions = 8;
  result.rounds = rounds;

  // Serialized baseline: one engine, 8 back-to-back evaluations — what 8
  // tenants cost without the service. Best-of-rounds wall time.
  std::vector<float> reference;
  double serialized_best = 1e30;
  for (std::size_t round = 0; round < rounds; ++round) {
    dfg::vcl::Device device(dfgbench::scaled_cpu());
    dfg::Engine engine(device, {});
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < result.sessions; ++i) {
      dfg::EvaluationReport report =
          engine.evaluate(dfg::expressions::kQCriterion);
      if (round == 0 && i == 0) reference = std::move(report.values);
    }
    serialized_best = std::min(serialized_best, now_seconds() - t0);
  }
  result.serialized_seconds = serialized_best;

  // Service path: the same 8 requests submitted as a paused burst so the
  // coalescer sees all of them, then timed from dispatch to drain.
  double service_best = 1e30;
  for (std::size_t round = 0; round < rounds; ++round) {
    dfg::vcl::Device device(dfgbench::scaled_cpu());
    ServiceOptions options;
    options.start_paused = true;
    EvalService service({&device}, options);
    std::vector<Ticket> tickets;
    for (std::size_t s = 0; s < result.sessions; ++s) {
      tickets.push_back(
          service.submit(make_request(mesh, field, dfg::expressions::kQCriterion,
                                      "tenant-" + std::to_string(s))));
    }
    const double t0 = now_seconds();
    service.resume();
    service.drain();
    service_best = std::min(service_best, now_seconds() - t0);

    const ServiceSnapshot snap = service.snapshot();
    result.evaluations_per_round = snap.executed_evaluations;
    result.bit_exact = true;
    for (const Ticket& ticket : tickets) {
      const ServiceReport& report = ticket.wait();
      if (report.status != RequestStatus::completed) {
        std::fprintf(stderr, "FAIL: request did not complete: %s\n",
                     report.error.c_str());
        std::exit(1);
      }
      result.coalesced_fanout = report.coalesced_fanout;
      result.bit_exact =
          result.bit_exact && bits_equal(report.evaluation->values, reference);
    }
  }
  result.service_seconds = service_best;
  return result;
}

void write_json(const CoalesceResult& c, bool smoke) {
  std::FILE* out = std::fopen("BENCH_service.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_service.json for writing\n");
    std::exit(1);
  }
  std::fprintf(
      out,
      "{\n  \"smoke\": %s,\n"
      "  \"coalescing\": {\n"
      "    \"sessions\": %zu, \"rounds\": %zu,\n"
      "    \"serialized_seconds\": %.6f, \"service_seconds\": %.6f,\n"
      "    \"speedup\": %.2f,\n"
      "    \"evaluations_per_round\": %zu, \"coalesced_fanout\": %zu,\n"
      "    \"bit_exact\": %s\n  }\n}\n",
      smoke ? "true" : "false", c.sessions, c.rounds, c.serialized_seconds,
      c.service_seconds, c.speedup(), c.evaluations_per_round,
      c.coalesced_fanout, c.bit_exact ? "true" : "false");
  std::fclose(out);
}

}  // namespace

int main() {
  const bool smoke = dfg::support::env::get_flag("DFGEN_SMOKE");
  dfgbench::check_environment();

  const dfg::mesh::RectilinearMesh mesh = dfg::mesh::RectilinearMesh::uniform(
      smoke ? dfg::mesh::Dims{16, 16, 16} : dfg::mesh::Dims{48, 48, 48});
  const dfg::mesh::VectorField field = dfg::mesh::rayleigh_taylor_flow(mesh);
  const std::size_t rounds = smoke ? 1 : 3;

  std::printf("=== Evaluation service: %zu cells ===\n", mesh.cell_count());
  const CoalesceResult coalesce = run_coalescing_study(mesh, field, rounds);
  std::printf(
      "coalescing: %zu sessions, serialized %.4fs vs service %.4fs "
      "(%.2fx), %zu evaluation(s), fan-out %zu, bit-exact %s\n",
      coalesce.sessions, coalesce.serialized_seconds,
      coalesce.service_seconds, coalesce.speedup(),
      coalesce.evaluations_per_round, coalesce.coalesced_fanout,
      coalesce.bit_exact ? "yes" : "NO");

  write_json(coalesce, smoke);
  std::printf("\nwrote BENCH_service.json\n");

  // Gates. Correctness always; the throughput threshold only in full runs.
  if (coalesce.evaluations_per_round != 1) {
    std::fprintf(stderr,
                 "FAIL: coalescer executed %zu evaluations for one "
                 "duplicate burst (want 1)\n",
                 coalesce.evaluations_per_round);
    return 1;
  }
  if (coalesce.coalesced_fanout != coalesce.sessions) {
    std::fprintf(stderr, "FAIL: fan-out %zu != %zu sessions\n",
                 coalesce.coalesced_fanout, coalesce.sessions);
    return 1;
  }
  if (!coalesce.bit_exact) {
    std::fprintf(stderr,
                 "FAIL: service results not bit-identical to the serialized "
                 "reference\n");
    return 1;
  }
  if (!smoke && coalesce.speedup() < 3.0) {
    std::fprintf(stderr,
                 "FAIL: coalesced service throughput only %.2fx the "
                 "serialized baseline (< 3x)\n",
                 coalesce.speedup());
    return 1;
  }
  std::printf("all service gates passed\n");
  return 0;
}
