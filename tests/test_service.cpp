// The concurrent evaluation service: admission control rejects with a
// reason, the coalescer executes one evaluation per distinct key, one FIFO
// queue dispatches requests in arrival order whatever their session, a
// request that does not fit the device degrades down the fallback ladder,
// and — the load-bearing property — N concurrent sessions produce results
// bit-identical to N serialized Engine::evaluate calls, across strategies,
// with a seeded FaultPlan armed.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "expr/parser.hpp"
#include "mesh/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runtime/fallback.hpp"
#include "runtime/planner.hpp"
#include "service/service.hpp"
#include "support/error.hpp"
#include "vcl/catalog.hpp"

namespace {

using namespace dfg;
using runtime::StrategyKind;
using service::EvalService;
using service::Request;
using service::RequestStatus;
using service::ServiceOptions;
using service::ServiceReport;
using service::ServiceSnapshot;
using service::Ticket;

struct Fixture {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({6, 5, 4});
  mesh::VectorField field;

  Fixture() : field(mesh::rayleigh_taylor_flow(mesh, 7)) {}

  Request request(const std::string& expression,
                  const std::string& session = "default") const {
    Request r;
    r.expression = expression;
    r.mesh = &mesh;
    r.fields = {{"u", field.u}, {"v", field.v}, {"w", field.w}};
    r.session = session;
    return r;
  }

  std::vector<float> reference(const std::string& expression,
                               StrategyKind kind = StrategyKind::fusion,
                               const vcl::FaultPlan* plan = nullptr) const {
    vcl::Device device(vcl::xeon_x5660_scaled());
    if (plan != nullptr) device.fault().arm(*plan);
    EngineOptions options;
    options.strategy = kind;
    options.fallback = runtime::FallbackPolicy::resilient();
    Engine engine(device, options);
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    return engine.evaluate(expression).values;
  }
};

void expect_bitwise_equal(const std::vector<float>& got,
                          const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool nan = std::isnan(want[i]);
    ASSERT_EQ(std::isnan(got[i]), nan) << "cell " << i;
    if (!nan) ASSERT_EQ(got[i], want[i]) << "cell " << i;
  }
}

TEST(Service, CoalescesDuplicateBurstIntoOneEvaluation) {
  Fixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  ServiceOptions options;
  options.start_paused = true;
  EvalService svc({&device}, options);

  std::vector<Ticket> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(
        svc.submit(fx.request(expressions::kQCriterion,
                              "tenant-" + std::to_string(i))));
  }
  svc.resume();
  svc.drain();

  const std::vector<float> want = fx.reference(expressions::kQCriterion);
  std::size_t leaders = 0;
  for (const Ticket& ticket : tickets) {
    const ServiceReport& report = ticket.wait();
    ASSERT_EQ(report.status, RequestStatus::completed) << report.error;
    EXPECT_EQ(report.coalesced_fanout, 8u);
    leaders += report.coalesce_leader ? 1 : 0;
    expect_bitwise_equal(report.evaluation->values, want);
  }
  EXPECT_EQ(leaders, 1u);

  const ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.submitted, 8u);
  EXPECT_EQ(snap.executed_evaluations, 1u);
  EXPECT_EQ(snap.coalesced_requests, 7u);
  EXPECT_EQ(snap.completed_requests, 8u);
}

TEST(Service, CoalesceKeyRespectsBoundArrayIdentity) {
  Fixture fx;
  // Same content, different storage: must NOT coalesce (pointer identity is
  // the data-equality proxy under the in-situ no-copy contract).
  const std::vector<float> u_copy = fx.field.u;
  vcl::Device device(vcl::xeon_x5660_scaled());
  ServiceOptions options;
  options.start_paused = true;
  EvalService svc({&device}, options);

  Request a = fx.request(expressions::kVelocityMagnitude, "a");
  Request b = fx.request(expressions::kVelocityMagnitude, "b");
  b.fields[0] = {"u", u_copy};
  Ticket ta = svc.submit(std::move(a));
  Ticket tb = svc.submit(std::move(b));
  svc.resume();
  svc.drain();

  ASSERT_EQ(ta.wait().status, RequestStatus::completed);
  ASSERT_EQ(tb.wait().status, RequestStatus::completed);
  EXPECT_EQ(svc.snapshot().executed_evaluations, 2u);

  // And different strategies must not coalesce either.
  Request c = fx.request(expressions::kVelocityMagnitude, "a");
  Request d = fx.request(expressions::kVelocityMagnitude, "b");
  d.strategy = StrategyKind::staged;
  Ticket tc = svc.submit(std::move(c));
  Ticket td = svc.submit(std::move(d));
  svc.drain();
  EXPECT_EQ(svc.snapshot().executed_evaluations, 4u);
}

TEST(Service, CoalescingOffExecutesEveryRequest) {
  Fixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  ServiceOptions options;
  options.start_paused = true;
  options.coalescing = false;
  EvalService svc({&device}, options);

  std::vector<Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(svc.submit(fx.request(expressions::kVelocityMagnitude)));
  }
  svc.resume();
  svc.drain();
  for (const Ticket& t : tickets) {
    ASSERT_EQ(t.wait().status, RequestStatus::completed);
    EXPECT_EQ(t.wait().coalesced_fanout, 1u);
  }
  EXPECT_EQ(svc.snapshot().executed_evaluations, 4u);
}

TEST(Service, QueueFullRejectsWithReason) {
  Fixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  ServiceOptions options;
  options.start_paused = true;
  options.max_queue_depth = 2;
  EvalService svc({&device}, options);

  Ticket t1 = svc.submit(fx.request(expressions::kVelocityMagnitude));
  Ticket t2 = svc.submit(fx.request(expressions::kDivergence));
  Ticket t3 = svc.submit(fx.request(expressions::kHelicity));
  EXPECT_TRUE(t3.ready()) << "rejection resolves the ticket immediately";
  const ServiceReport& rejected = t3.wait();
  EXPECT_EQ(rejected.status, RequestStatus::rejected);
  EXPECT_NE(rejected.reject_reason.find("queue full"), std::string::npos);

  svc.resume();
  svc.drain();
  EXPECT_EQ(t1.wait().status, RequestStatus::completed);
  EXPECT_EQ(t2.wait().status, RequestStatus::completed);
  const ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.rejected_queue_full, 1u);
  EXPECT_EQ(snap.admitted, 2u);
}

// A gradient of a *computed* value: the streamed rung (whose memory floor
// is tiny) cannot execute it, so the projected floor is problem-sized.
constexpr const char* kUnstreamable =
    "s = u * v\n"
    "g = grad3d(s, dims, x, y, z)\n"
    "result = g[0]\n";

TEST(Service, ProjectionRejectsRequestNoDeviceCanEverFit) {
  Fixture fx;
  vcl::DeviceSpec spec = vcl::xeon_x5660_scaled();
  spec.global_mem_bytes = 64;  // smaller than any viable rung's working set
  vcl::Device device(spec);
  EvalService svc({&device}, ServiceOptions{});

  Ticket ticket = svc.submit(fx.request(kUnstreamable));
  const ServiceReport& report = ticket.wait();
  EXPECT_EQ(report.status, RequestStatus::rejected);
  EXPECT_NE(report.reject_reason.find("exceeds every device"),
            std::string::npos)
      << report.reject_reason;
  EXPECT_EQ(svc.snapshot().rejected_projection, 1u);
}

TEST(Service, ReservedFieldNamesFailAtSubmit) {
  Fixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  EvalService svc({&device}, ServiceOptions{});
  for (const char* script :
       {"r = __m3 + u",
        "vm = sqrt(u*u + __m5*__m5)\n"
        "g = grad3d(vm, dims, x, y, z)\n"
        "r = g[0] + __m5\n"}) {
    Request request = fx.request(script);
    request.fields.push_back({"__m3", fx.field.v});
    request.fields.push_back({"__m5", fx.field.v});
    Ticket ticket = svc.submit(std::move(request));
    const ServiceReport& report = ticket.wait();
    EXPECT_EQ(report.status, RequestStatus::failed) << script;
    EXPECT_NE(report.error.find("reserved"), std::string::npos)
        << report.error;
    EXPECT_EQ(report.evaluation, nullptr);
    EXPECT_EQ(report.dispatch_index, 0u);
  }
  EXPECT_EQ(svc.snapshot().admitted, 0u);
}

TEST(Service, BackToBackSessionsOnOneDeviceGetTheirOwnResults) {
  // The second session's buffers reuse the first session's released
  // device storage; each result must still match its own reference.
  Fixture fx;
  const mesh::VectorField other = mesh::rayleigh_taylor_flow(fx.mesh, 11);
  vcl::Device device(vcl::xeon_x5660_scaled());
  EvalService svc({&device}, ServiceOptions{});
  const std::string first = "r = sqrt(u*u + v*v) - w";
  const std::string second = "r = a * b - 3.0";
  const Ticket ta = svc.submit(fx.request(first, "alice"));
  svc.drain();
  EXPECT_GT(device.spares().size(), 0u);
  Request request;
  request.expression = second;
  request.mesh = &fx.mesh;
  request.fields = {{"a", other.u}, {"b", other.w}};
  request.session = "bob";
  const Ticket tb = svc.submit(request);
  svc.drain();
  const ServiceReport& ra = ta.wait();
  const ServiceReport& rb = tb.wait();
  ASSERT_EQ(ra.status, RequestStatus::completed) << ra.error;
  ASSERT_EQ(rb.status, RequestStatus::completed) << rb.error;
  expect_bitwise_equal(ra.evaluation->values, fx.reference(first));

  vcl::Device reference_device(vcl::xeon_x5660_scaled());
  Engine engine(reference_device);
  engine.bind_mesh(fx.mesh);
  engine.bind("a", other.u);
  engine.bind("b", other.w);
  expect_bitwise_equal(rb.evaluation->values, engine.evaluate(second).values);
}

TEST(Service, OversizedScriptFailsAtSubmitWithinFiftyMilliseconds) {
  Fixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  EvalService svc({&device}, ServiceOptions{});
  std::string script = "q = u\n";
  for (int i = 1; i < 100000; ++i) script += "q = q + u\n";
  const auto start = std::chrono::steady_clock::now();
  Ticket ticket = svc.submit(fx.request(script));
  const ServiceReport& report = ticket.wait();
  const std::chrono::duration<double, std::milli> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_EQ(report.status, RequestStatus::failed);
  EXPECT_NE(report.error.find("more than " +
                              std::to_string(expr::kMaxScriptStatements) +
                              " statements"),
            std::string::npos)
      << report.error;
  EXPECT_LE(took.count(), 50.0);
  EXPECT_EQ(svc.snapshot().admitted, 0u);
}

TEST(Service, QuotaDegradesOverQuotaTenantDownTheLadder) {
  Fixture fx;
  const std::string script = expressions::kQCriterion;
  const std::size_t cells = fx.mesh.cell_count();

  dataflow::Network network(dataflow::build_network(script));
  runtime::FieldBindings bindings;
  bindings.bind_mesh(fx.mesh);
  bindings.bind("u", fx.field.u);
  bindings.bind("v", fx.field.v);
  bindings.bind("w", fx.field.w);
  std::map<StrategyKind, std::size_t> estimate;
  for (const StrategyKind kind : runtime::kMemoryLadder) {
    try {
      estimate[kind] =
          runtime::estimate_high_water(network, bindings, cells, kind);
    } catch (const KernelError&) {
    }
  }
  ASSERT_TRUE(estimate.count(StrategyKind::fusion));
  ASSERT_TRUE(estimate.count(StrategyKind::streamed));
  // A device one float short of fusion's working set: the request cannot
  // run the requested rung, but the streamed rung — whose chunks size
  // themselves to the device's free memory — fits, so it must degrade.
  vcl::DeviceSpec spec = vcl::xeon_x5660_scaled();
  spec.global_mem_bytes = estimate[StrategyKind::fusion] - sizeof(float);
  ASSERT_LE(estimate[StrategyKind::streamed], spec.global_mem_bytes)
      << "premise: the streamed memory floor fits the device";

  vcl::Device device(spec);
  EvalService svc({&device}, ServiceOptions{});

  Ticket ticket = svc.submit(fx.request(script));
  const ServiceReport& report = ticket.wait();
  ASSERT_EQ(report.status, RequestStatus::completed) << report.error;
  EXPECT_EQ(report.evaluation->strategy,
            runtime::strategy_name(StrategyKind::streamed));
  EXPECT_GE(report.evaluation->degradations.size(), 1u)
      << "a request too large for the device must degrade, not fail";
  expect_bitwise_equal(report.evaluation->values, fx.reference(script));
  EXPECT_GE(svc.snapshot().degradations, 1u);
}

TEST(Service, DispatchIsFifoAcrossSessions) {
  Fixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  ServiceOptions options;
  options.start_paused = true;
  options.coalescing = false;
  EvalService svc({&device}, options);

  std::vector<Ticket> tickets;
  for (const char* session : {"a", "a", "b", "b"}) {
    tickets.push_back(
        svc.submit(fx.request(expressions::kDivergence, session)));
  }
  svc.resume();
  svc.drain();

  // One device, one queue: dispatch follows submission order, not a
  // rotation over sessions.
  std::vector<std::size_t> order;
  for (const Ticket& t : tickets) order.push_back(t.wait().dispatch_index);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 3, 4}));
}

TEST(Service, PerRequestDeadlineArmsTheWatchdog) {
  Fixture fx;
  vcl::FaultPlan plan;
  plan.seed = 11;
  plan.slow_command_index = 1;  // every command crawls, 4x its estimate
  plan.slowdown_factor = 4.0;
  vcl::Device patient_device(vcl::xeon_x5660_scaled());
  vcl::Device tight_device(vcl::xeon_x5660_scaled());
  patient_device.fault().arm(plan);
  tight_device.fault().arm(plan);

  // Under the service default deadline (8x) the 4x slowdown is tolerated.
  EvalService patient({&patient_device}, ServiceOptions{});
  const ServiceReport ok =
      patient.submit(fx.request(expressions::kVelocityMagnitude)).wait();
  ASSERT_EQ(ok.status, RequestStatus::completed) << ok.error;
  EXPECT_EQ(ok.evaluation->command_timeouts, 0u);
  expect_bitwise_equal(ok.evaluation->values,
                       fx.reference(expressions::kVelocityMagnitude));

  // A service with a tight deadline trips the watchdog instead: the 4x
  // slowdown now exceeds its 1.5x budget on every rung.
  ServiceOptions options;
  options.fallback.deadline_factor = 1.5;
  EvalService tight({&tight_device}, options);
  const ServiceReport report =
      tight.submit(fx.request(expressions::kVelocityMagnitude)).wait();
  EXPECT_EQ(report.status, RequestStatus::failed);
  EXPECT_FALSE(report.error.empty());
  EXPECT_GE(tight.snapshot().command_timeouts, 1u)
      << "the tight deadline must abandon the slowed commands";
}

// A batch that fails still counts every device incident it caused: here a
// read is retried twice after transient faults, then the third fault
// escapes the strict (no-fallback) ladder and fails the request.
TEST(Service, FailedBatchCountsItsRetriesAndFaults) {
  Fixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.fail_read_index = 1;
  plan.transient_count = 3;  // the whole retry budget of the first read
  device.fault().arm(plan);
  ServiceOptions options;
  options.fallback = runtime::FallbackPolicy{};
  EvalService svc({&device}, options);

  const ServiceReport report =
      svc.submit(fx.request(expressions::kVelocityMagnitude)).wait();
  ASSERT_EQ(report.status, RequestStatus::failed);
  const ServiceSnapshot snapshot = svc.snapshot();
  EXPECT_EQ(snapshot.failed_requests, 1u);
  EXPECT_EQ(snapshot.command_retries, 2u);
  EXPECT_EQ(snapshot.injected_faults, 3u);
  EXPECT_EQ(snapshot.command_timeouts, 0u);
}

// Every batch runs under the service's fallback policy: turning that
// policy's watchdog off lets crawling commands finish (the service
// analogue of Watchdog.DisabledWatchdogLetsSlowCommandsFinish).
TEST(Service, FallbackDeadlineFactorAppliesWhenTheRequestSetsNone) {
  Fixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.slow_command_index = 1;
  plan.slowdown_factor = 50.0;
  device.fault().arm(plan);
  ServiceOptions options;
  options.fallback.deadline_factor = 0.0;  // watchdog off
  EvalService svc({&device}, options);

  Ticket ticket = svc.submit(fx.request(expressions::kQCriterion));
  const ServiceReport& report = ticket.wait();
  ASSERT_EQ(report.status, RequestStatus::completed) << report.error;
  EXPECT_EQ(report.evaluation->command_timeouts, 0u);
  expect_bitwise_equal(report.evaluation->values,
                       fx.reference(expressions::kQCriterion));
}

// The acceptance property: N concurrent sessions submitting the paper's
// expressions produce results bit-identical to N serialized
// Engine::evaluate calls, across strategies, with a seeded FaultPlan armed.
TEST(Service, ConcurrentSessionsMatchSerializedEnginesBitExactly) {
  Fixture fx;
  vcl::FaultPlan plan;
  plan.seed = 42;
  plan.fail_write_index = 2;  // transient: retried, then recovers
  plan.transient_count = 1;

  const std::vector<std::string> scripts = {expressions::kVelocityMagnitude,
                                            expressions::kVorticityMagnitude,
                                            expressions::kQCriterion};
  const std::vector<StrategyKind> strategies = {
      StrategyKind::fusion, StrategyKind::staged, StrategyKind::roundtrip};

  // Serialized reference: one engine, one device, back to back.
  std::vector<std::vector<float>> want;
  for (const std::string& script : scripts) {
    for (const StrategyKind kind : strategies) {
      want.push_back(fx.reference(script, kind, &plan));
    }
  }

  vcl::Device dev_a(vcl::xeon_x5660_scaled());
  vcl::Device dev_b(vcl::xeon_x5660_scaled());
  dev_a.fault().arm(plan);
  dev_b.fault().arm(plan);
  EvalService svc({&dev_a, &dev_b}, ServiceOptions{});

  constexpr int kSessions = 4;
  std::vector<std::vector<Ticket>> tickets(kSessions);
  {
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSessions; ++s) {
      submitters.emplace_back([&, s] {
        for (const std::string& script : scripts) {
          for (const StrategyKind kind : strategies) {
            Request request =
                fx.request(script, "session-" + std::to_string(s));
            request.strategy = kind;
            tickets[s].push_back(svc.submit(std::move(request)));
          }
        }
      });
    }
    for (std::thread& thread : submitters) thread.join();
  }
  svc.drain();

  for (int s = 0; s < kSessions; ++s) {
    std::size_t i = 0;
    for (const Ticket& ticket : tickets[s]) {
      const ServiceReport& report = ticket.wait();
      ASSERT_EQ(report.status, RequestStatus::completed) << report.error;
      expect_bitwise_equal(report.evaluation->values, want[i]);
      ++i;
    }
  }

  const ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.completed_requests,
            static_cast<std::size_t>(kSessions) * scripts.size() *
                strategies.size());
  EXPECT_EQ(snap.failed_requests, 0u);
}

// Satellite 1: per-report program-cache attribution stays correct when
// engines evaluate concurrently on distinct threads.
TEST(Service, ThreadLocalCacheStatsAttributePerEvaluation) {
  Fixture fx;
  constexpr int kThreads = 4;
  std::vector<std::size_t> second_run_misses(kThreads, 999);
  std::vector<std::size_t> second_run_hits(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        vcl::Device device(vcl::xeon_x5660_scaled());
        Engine engine(device, {});
        engine.bind_mesh(fx.mesh);
        engine.bind("u", fx.field.u);
        engine.bind("v", fx.field.v);
        engine.bind("w", fx.field.w);
        engine.evaluate(expressions::kQCriterion);  // warm (or find) cache
        const EvaluationReport report =
            engine.evaluate(expressions::kQCriterion);
        second_run_misses[t] = report.pipeline_cache_misses;
        second_run_hits[t] = report.pipeline_cache_hits;
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(second_run_misses[t], 0u)
        << "thread " << t << ": a repeat evaluation must be all hits — "
        << "cross-thread traffic leaked into this report";
    EXPECT_GE(second_run_hits[t], 1u) << "thread " << t;
  }
}

TEST(Service, ChromeTraceMergesAllDeviceTimelines) {
  Fixture fx;
  obs::ScopedMetricsRegistry scoped;  // fresh, enabled: tracing is live
  obs::SpanTracer::instance().clear();
  vcl::Device dev_a(vcl::xeon_x5660_scaled());
  vcl::Device dev_b(vcl::xeon_x5660_scaled());
  ServiceOptions options;
  options.coalescing = false;  // one batch, hence one span, per request
  {
    EvalService svc({&dev_a, &dev_b}, options);
    std::vector<Ticket> tickets;
    for (int i = 0; i < 4; ++i) {
      Request request = fx.request(expressions::kVelocityMagnitude);
      request.session = "s" + std::to_string(i % 2);
      tickets.push_back(svc.submit(std::move(request)));
    }
    svc.drain();
    for (const Ticket& t : tickets) {
      ASSERT_EQ(t.wait().status, RequestStatus::completed);
    }
  }
  // Both sessions' batches appear in the process span trace, whichever
  // device ran them.
  const std::string trace = obs::SpanTracer::instance().to_chrome_trace();
  obs::SpanTracer::instance().clear();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"dispatch:s0\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"dispatch:s1\""), std::string::npos);
  // Well-formed: as many opening as closing braces.
  EXPECT_EQ(std::count(trace.begin(), trace.end(), '{'),
            std::count(trace.begin(), trace.end(), '}'));
}

TEST(Service, MalformedExpressionFailsTheTicketWithoutDispatch) {
  Fixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  EvalService svc({&device}, ServiceOptions{});
  // submit() parses on the caller's thread: input nested too deep for the
  // parser must fail the ticket, not overflow this thread's stack.
  const std::string too_deep =
      "q = " + std::string(30000, '(') + "u" + std::string(30000, ')');
  for (const std::string& script : {std::string("result = ((("), too_deep}) {
    Ticket ticket = svc.submit(fx.request(script));
    const ServiceReport& report = ticket.wait();
    EXPECT_EQ(report.status, RequestStatus::failed);
    EXPECT_FALSE(report.error.empty());
  }
  EXPECT_EQ(svc.snapshot().executed_evaluations, 0u);
}

TEST(Service, UnboundFieldFailsTheTicketAtSubmit) {
  Fixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  EvalService svc({&device}, ServiceOptions{});
  Ticket ticket;
  ASSERT_NO_THROW(ticket = svc.submit(fx.request("r = foo * 2.0")));
  const ServiceReport& report = ticket.wait();
  EXPECT_EQ(report.status, RequestStatus::failed);
  EXPECT_NE(report.error.find("'foo'"), std::string::npos) << report.error;
  EXPECT_EQ(svc.snapshot().admitted, 0u);
}

// An input field bound shorter than the grid fails the ticket at submit
// under every requested strategy, naming the field, and nothing is
// admitted.
TEST(Service, ShortInputFieldFailsTheTicketAtSubmit) {
  Fixture fx;
  const std::vector<float> short_v(100, 1.5f);
  for (const StrategyKind kind : runtime::kMemoryLadder) {
    vcl::Device device(vcl::xeon_x5660_scaled());
    EvalService svc({&device}, ServiceOptions{});
    Request request = fx.request("r = u + v");
    request.fields = {{"u", fx.field.u}, {"v", short_v}};
    request.strategy = kind;
    Ticket ticket;
    ASSERT_NO_THROW(ticket = svc.submit(std::move(request)));
    const ServiceReport& report = ticket.wait();
    EXPECT_EQ(report.status, RequestStatus::failed)
        << runtime::strategy_name(kind);
    EXPECT_NE(report.error.find("'v'"), std::string::npos) << report.error;
    EXPECT_EQ(svc.snapshot().admitted, 0u) << runtime::strategy_name(kind);
  }
}

// A bare field output bound shorter than the grid fails the ticket under
// every requested strategy, and no device memory stays in use.
TEST(Service, ShortBareFieldOutputFailsTheTicket) {
  const mesh::RectilinearMesh mesh =
      mesh::RectilinearMesh::uniform({10, 12, 14});
  const std::vector<float> short_u(100, 1.5f);
  for (const char* expression : {"r = dims", "r = u"}) {
    for (const StrategyKind kind : runtime::kMemoryLadder) {
      vcl::Device device(vcl::xeon_x5660_scaled());
      EvalService svc({&device}, ServiceOptions{});
      Request request;
      request.expression = expression;
      request.mesh = &mesh;
      if (expression == std::string("r = u")) {
        request.fields = {{"u", short_u}};
      }
      request.strategy = kind;
      Ticket ticket = svc.submit(std::move(request));
      const ServiceReport& report = ticket.wait();
      EXPECT_EQ(report.status, RequestStatus::failed)
          << expression << " under " << runtime::strategy_name(kind);
      EXPECT_FALSE(report.error.empty());
      svc.drain();
      EXPECT_EQ(device.memory().in_use(), 0u) << expression;
    }
  }
}

TEST(Service, WaitOnATemporaryTicketReturnsAnOwnedReport) {
  static_assert(std::is_same_v<decltype(std::declval<Ticket>().wait()),
                               ServiceReport>);
  static_assert(std::is_same_v<decltype(std::declval<const Ticket&>().wait()),
                               const ServiceReport&>);
  Fixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  EvalService svc({&device}, ServiceOptions{});
  // The temporary ticket is the last owner of its shared state once the
  // service resolves it; the bound report must outlive it.
  const auto& done =
      svc.submit(fx.request(expressions::kVelocityMagnitude)).wait();
  ASSERT_EQ(done.status, RequestStatus::completed) << done.error;
  expect_bitwise_equal(done.evaluation->values,
                       fx.reference(expressions::kVelocityMagnitude));
  const auto& failed = svc.submit(fx.request("result = (((")).wait();
  EXPECT_EQ(failed.status, RequestStatus::failed);
  EXPECT_NE(failed.error.find("expected"), std::string::npos)
      << failed.error;
}

// Device loss: a worker whose device throws DeviceLost retires it and
// hands its batch back; the surviving devices finish every request.
vcl::FaultPlan loses_device_after(std::size_t commands) {
  vcl::FaultPlan plan;
  plan.seed = 2026;
  plan.lose_device_after = commands;
  return plan;
}

/// Runs `scenario` against a fresh service on {doomed, healthy} until the
/// doomed device has been lost. Which worker wakes first is up to the OS,
/// so a run can end before the doomed worker takes a batch; every run must
/// still complete every request. Returns the snapshot of the last run.
template <class Scenario>
ServiceSnapshot run_until_device_lost(const vcl::FaultPlan& plan,
                                      const ServiceOptions& options,
                                      Scenario scenario) {
  ServiceSnapshot snap;
  for (int attempt = 0; attempt < 20 && snap.devices_lost == 0; ++attempt) {
    vcl::Device doomed(vcl::xeon_x5660_scaled());
    vcl::Device healthy(vcl::xeon_x5660_scaled());
    doomed.fault().arm(plan);
    EvalService svc({&doomed, &healthy}, options);
    scenario(svc);
    snap = svc.snapshot();
  }
  return snap;
}

TEST(Service, LostDeviceMidTraceFailsNoRequest) {
  Fixture fx;
  std::vector<std::string> scripts;
  std::vector<std::vector<float>> want;
  for (int i = 0; i < 60; ++i) {
    const std::string k = std::to_string(i) + ".0";
    scripts.push_back(i % 3 == 2 ? "e = u*v + w*" + k : "e = u*v + " + k);
    want.push_back(fx.reference(scripts.back()));
  }
  ServiceOptions options;
  options.coalescing = false;
  options.start_paused = true;
  // Two-input requests run four commands (two writes, kernel, read) and
  // survive; the first three-input one the doomed device picks up dies
  // after its fourth command.
  const ServiceSnapshot snap = run_until_device_lost(
      loses_device_after(4), options, [&](EvalService& svc) {
        std::vector<Ticket> tickets;
        for (std::size_t i = 0; i < scripts.size(); ++i) {
          tickets.push_back(svc.submit(
              fx.request(scripts[i], "s" + std::to_string(i % 4))));
        }
        svc.resume();
        svc.drain();
        for (std::size_t i = 0; i < tickets.size(); ++i) {
          const ServiceReport& report = tickets[i].wait();
          ASSERT_EQ(report.status, RequestStatus::completed)
              << "request " << i << ": " << report.error;
          expect_bitwise_equal(report.evaluation->values, want[i]);
        }
      });
  EXPECT_EQ(snap.devices_lost, 1u);
  EXPECT_EQ(snap.redispatched_batches, 1u);
  EXPECT_EQ(snap.completed_requests, 60u);
  EXPECT_EQ(snap.failed_requests, 0u);
  EXPECT_EQ(snap.executed_evaluations, 60u)
      << "the lost attempt is not an evaluation";
}

TEST(Service, LossInsideACoalescedBatchCompletesEveryFanOutTicket) {
  Fixture fx;
  const std::vector<std::string> scripts = {expressions::kQCriterion,
                                            expressions::kVorticityMagnitude,
                                            expressions::kHelicity};
  std::vector<std::vector<float>> want;
  for (const std::string& script : scripts) {
    want.push_back(fx.reference(script));
  }
  constexpr std::size_t kFanout = 4;
  ServiceOptions options;
  options.start_paused = true;
  // Every evaluation runs more than two commands: whichever batch the
  // doomed device takes first, the loss lands inside it.
  const ServiceSnapshot snap = run_until_device_lost(
      loses_device_after(2), options, [&](EvalService& svc) {
        std::vector<std::pair<Ticket, std::size_t>> tickets;
        for (std::size_t s = 0; s < scripts.size(); ++s) {
          for (std::size_t t = 0; t < kFanout; ++t) {
            tickets.emplace_back(
                svc.submit(
                    fx.request(scripts[s], "tenant-" + std::to_string(t))),
                s);
          }
        }
        svc.resume();
        svc.drain();
        std::vector<std::size_t> leaders(scripts.size(), 0);
        for (const auto& [ticket, s] : tickets) {
          const ServiceReport& report = ticket.wait();
          ASSERT_EQ(report.status, RequestStatus::completed) << report.error;
          EXPECT_EQ(report.coalesced_fanout, kFanout);
          EXPECT_EQ(report.device_index, 1)
              << "only the survivor completes work";
          leaders[s] += report.coalesce_leader ? 1 : 0;
          expect_bitwise_equal(report.evaluation->values, want[s]);
        }
        EXPECT_EQ(leaders, std::vector<std::size_t>(scripts.size(), 1));
      });
  EXPECT_EQ(snap.devices_lost, 1u);
  EXPECT_EQ(snap.redispatched_batches, 1u);
  EXPECT_EQ(snap.executed_evaluations, scripts.size());
  EXPECT_EQ(snap.coalesced_requests, scripts.size() * (kFanout - 1));
  EXPECT_EQ(snap.completed_requests, scripts.size() * kFanout);
  EXPECT_EQ(snap.failed_requests, 0u);
}

TEST(Service, LosingEveryDeviceFailsQueuedTicketsAndRejectsNewWork) {
  Fixture fx;
  vcl::Device dev_a(vcl::xeon_x5660_scaled());
  vcl::Device dev_b(vcl::xeon_x5660_scaled());
  dev_a.fault().arm(loses_device_after(1));
  dev_b.fault().arm(loses_device_after(1));
  ServiceOptions options;
  options.coalescing = false;
  options.start_paused = true;
  EvalService svc({&dev_a, &dev_b}, options);

  std::vector<Ticket> tickets;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(svc.submit(
        fx.request("e = u*v + " + std::to_string(i) + ".0")));
  }
  svc.drain();  // must return: no ticket may hang

  for (const Ticket& ticket : tickets) {
    ASSERT_TRUE(ticket.ready());
    const ServiceReport& report = ticket.wait();
    EXPECT_EQ(report.status, RequestStatus::failed);
    EXPECT_NE(report.error.find("lost"), std::string::npos) << report.error;
  }
  const ServiceReport late =
      svc.submit(fx.request(expressions::kVelocityMagnitude)).wait();
  EXPECT_EQ(late.status, RequestStatus::rejected);
  EXPECT_NE(late.reject_reason.find("no device"), std::string::npos)
      << late.reject_reason;

  const ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.devices_lost, 2u);
  EXPECT_EQ(snap.failed_requests, tickets.size());
  EXPECT_EQ(snap.completed_requests, 0u);
  EXPECT_EQ(snap.rejected_no_device, 1u);
  EXPECT_EQ(snap.executed_evaluations, 0u);
}

}  // namespace
