// Tests for the trace export and the network-script round trip.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "dataflow/script_io.hpp"
#include "mesh/generators.hpp"
#include "support/error.hpp"
#include "vcl/catalog.hpp"
#include "vcl/trace.hpp"

namespace {

using namespace dfg;

// ----- Script round trip -----

TEST(ScriptIo, RoundTripPreservesStructure) {
  const dataflow::NetworkSpec original =
      dataflow::build_network(expressions::kQCriterion);
  const dataflow::NetworkSpec reparsed =
      dataflow::parse_script(original.to_script());
  ASSERT_EQ(reparsed.nodes().size(), original.nodes().size());
  EXPECT_EQ(reparsed.to_script(), original.to_script());
}

TEST(ScriptIo, RoundTripPreservesLabelsAndOutput) {
  const dataflow::NetworkSpec original =
      dataflow::build_network("speed = sqrt(u*u)\nresult = speed + 1.0");
  const dataflow::NetworkSpec reparsed =
      dataflow::parse_script(original.to_script());
  EXPECT_EQ(reparsed.node(reparsed.output_id()).label, "result");
}

TEST(ScriptIo, ReloadedNetworkEvaluatesIdentically) {
  const mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({6, 6, 6});
  const mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  vcl::Device device(vcl::xeon_x5660_scaled());

  runtime::FieldBindings bindings;
  bindings.bind_mesh(mesh);
  bindings.bind("u", field.u);
  bindings.bind("v", field.v);
  bindings.bind("w", field.w);

  const dataflow::NetworkSpec original =
      dataflow::build_network(expressions::kVorticityMagnitude);
  const std::string script = original.to_script();

  dataflow::Network net_a(dataflow::build_network(
      expressions::kVorticityMagnitude));
  dataflow::Network net_b{dataflow::parse_script(script)};
  vcl::ProfilingLog log;
  const auto strategy = runtime::make_strategy(runtime::StrategyKind::fusion);
  const auto a = strategy->execute(net_a, bindings, mesh.cell_count(),
                                   device, log);
  const auto b = strategy->execute(net_b, bindings, mesh.cell_count(),
                                   device, log);
  EXPECT_EQ(a, b);
}

TEST(ScriptIo, HandWrittenScriptWithDecompose) {
  const char* script = R"(
net = NetworkSpec()
n0 = net.add_field_source("u")
n1 = net.add_field_source("dims")
n2 = net.add_field_source("x")
n3 = net.add_field_source("y")
n4 = net.add_field_source("z")
n5 = net.add_filter("grad3d", [n0, n1, n2, n3, n4])  # du
n6 = net.add_filter("decompose", [n5], component=2)  # dudz
net.set_output(n6)
)";
  const dataflow::NetworkSpec spec = dataflow::parse_script(script);
  EXPECT_EQ(spec.node(spec.output_id()).kind, "decompose");
  EXPECT_EQ(spec.node(spec.output_id()).component, 2);
  EXPECT_EQ(spec.node(spec.output_id()).label, "dudz");
}

TEST(ScriptIo, MalformedScriptsNameTheLine) {
  const auto expect_error = [](const char* script, const char* fragment) {
    try {
      dataflow::parse_script(script);
      FAIL() << "expected NetworkError for: " << script;
    } catch (const NetworkError& err) {
      EXPECT_NE(std::string(err.what()).find(fragment), std::string::npos)
          << err.what();
    }
  };
  expect_error("n0 = net.add_field_source(u)", "quoted");
  expect_error("n0 = net.frobnicate()", "unrecognised");
  expect_error("n0 = net.add_filter(\"add\", [n5, n6])", "unknown node");
  expect_error("bogus line without equals", "assignment");
  expect_error("net.set_output(n9)", "unknown node");
}

// ----- Chrome trace export -----

TEST(Trace, ContainsAllEventsOnTwoTracks) {
  const mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({6, 6, 6});
  const mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  vcl::Device device(vcl::xeon_x5660_scaled());
  Engine engine(device, {runtime::StrategyKind::staged, {}});
  engine.bind_mesh(mesh);
  engine.bind("u", field.u);
  engine.bind("v", field.v);
  engine.bind("w", field.w);
  engine.evaluate(expressions::kVelocityMagnitude);

  const std::string trace = vcl::to_chrome_trace(engine.log());
  // 3 writes + 6 kernels + 1 read = 10 duration events.
  std::size_t events = 0;
  for (std::size_t p = trace.find("\"ph\":\"X\""); p != std::string::npos;
       p = trace.find("\"ph\":\"X\"", p + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 10u);
  EXPECT_NE(trace.find("\"name\":\"virtual device\""), std::string::npos);
  EXPECT_NE(trace.find("\"compute\""), std::string::npos);
  EXPECT_NE(trace.find("\"copy\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"K-Exe\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"Dev-W\""), std::string::npos);
  // Valid JSON shape: balanced braces/brackets at the top level.
  EXPECT_EQ(trace.front(), '{');
  EXPECT_EQ(trace[trace.size() - 2], '}');
}

TEST(Trace, TimelineIsMonotonic) {
  vcl::ProfilingLog log;
  log.record({vcl::EventKind::host_to_device, "a", 100, 0, 0.25, 0.0});
  log.record({vcl::EventKind::kernel_exec, "k", 100, 10, 0.5, 0.0});
  log.record({vcl::EventKind::device_to_host, "b", 100, 0, 0.25, 0.0});
  log.record({vcl::EventKind::kernel_exec, "late", 100, 10, 0.234375, 0.0});
  log.record({vcl::EventKind::kernel_exec, "later", 100, 10, 0.5, 0.0});
  const std::string trace = vcl::to_chrome_trace(log);
  // Timestamps in microseconds: 0, 250000, 750000.
  EXPECT_NE(trace.find("\"ts\":0,"), std::string::npos);
  EXPECT_NE(trace.find("\"ts\":250000,"), std::string::npos);
  EXPECT_NE(trace.find("\"ts\":750000,"), std::string::npos);
  // Past one second every microsecond still shows: no rounding to six
  // significant digits.
  EXPECT_NE(trace.find("\"ts\":1000000,\"dur\":234375,"), std::string::npos);
  EXPECT_NE(trace.find("\"ts\":1234375,"), std::string::npos);
}

TEST(Trace, LabelsEscaped) {
  vcl::ProfilingLog log;
  log.record({vcl::EventKind::kernel_exec, "weird \"label\"\nline", 0, 0,
              0.1, 0.0});
  const std::string trace = vcl::to_chrome_trace(log);
  EXPECT_NE(trace.find("weird \\\"label\\\"\\nline"), std::string::npos);
}

TEST(Trace, EmptyLogStillValid) {
  vcl::ProfilingLog log;
  const std::string trace = vcl::to_chrome_trace(log);
  EXPECT_NE(trace.find("traceEvents"), std::string::npos);
}

}  // namespace
