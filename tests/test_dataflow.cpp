// Unit tests for the dataflow layer: spec construction, deduplication/CSE,
// AST translation, topological initialization and reference counting.
#include <gtest/gtest.h>

#include <string>

#include "core/expressions.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "dataflow/script_io.hpp"
#include "dataflow/spec.hpp"
#include "support/error.hpp"

namespace {

using namespace dfg::dataflow;
using dfg::NetworkError;

TEST(Spec, FieldSourcesDeduplicateByName) {
  NetworkSpec spec;
  const int a = spec.add_field_source("u");
  const int b = spec.add_field_source("u");
  const int c = spec.add_field_source("v");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(spec.source_count(), 2u);
}

TEST(Spec, EmptyFieldNameRejected) {
  NetworkSpec spec;
  EXPECT_THROW(spec.add_field_source(""), NetworkError);
}

TEST(Spec, ReservedMaterializedPrefixRejected) {
  NetworkSpec spec;
  EXPECT_THROW(spec.add_field_source("__m3"), NetworkError);
  EXPECT_THROW(spec.add_field_source("__mass"), NetworkError);
  // The memo layer's spliced sources and names merely containing "__m"
  // stay legal.
  EXPECT_NO_THROW(spec.add_field_source("_memo_00000000000000ff"));
  EXPECT_NO_THROW(spec.add_field_source("u__m3"));
}

TEST(Spec, ConstantsDeduplicateWhenEnabled) {
  NetworkSpec spec;
  EXPECT_EQ(spec.add_constant(0.5), spec.add_constant(0.5));
  EXPECT_NE(spec.add_constant(0.5), spec.add_constant(2.0));
}

TEST(Spec, ConstantDedupCanBeDisabled) {
  SpecOptions options;
  options.dedup_constants = false;
  NetworkSpec spec(options);
  EXPECT_NE(spec.add_constant(0.5), spec.add_constant(0.5));
}

TEST(Spec, CseFoldsIdenticalInvocations) {
  NetworkSpec spec;
  const int u = spec.add_field_source("u");
  const int v = spec.add_field_source("v");
  EXPECT_EQ(spec.add_filter("add", {u, v}), spec.add_filter("add", {u, v}));
  EXPECT_EQ(spec.filter_count(), 1u);
}

TEST(Spec, LimitedCseKeepsSwappedCommutativeOperands) {
  // The paper's CSE is "limited": add(u, v) and add(v, u) stay distinct
  // (this is what keeps the Q-criterion's s_1 and s_3 as separate filters).
  NetworkSpec spec;
  const int u = spec.add_field_source("u");
  const int v = spec.add_field_source("v");
  EXPECT_NE(spec.add_filter("add", {u, v}), spec.add_filter("add", {v, u}));
}

TEST(Spec, CommutativeCanonicalizationFoldsSwappedOperands) {
  SpecOptions options;
  options.canonicalize_commutative = true;
  NetworkSpec spec(options);
  const int u = spec.add_field_source("u");
  const int v = spec.add_field_source("v");
  EXPECT_EQ(spec.add_filter("add", {u, v}), spec.add_filter("add", {v, u}));
  // Non-commutative filters never fold across operand order.
  EXPECT_NE(spec.add_filter("sub", {u, v}), spec.add_filter("sub", {v, u}));
}

TEST(Spec, CseCanBeDisabled) {
  SpecOptions options;
  options.cse = false;
  NetworkSpec spec(options);
  const int u = spec.add_field_source("u");
  EXPECT_NE(spec.add_filter("sqrt", {u}), spec.add_filter("sqrt", {u}));
}

TEST(Spec, DecomposeDistinguishedByComponent) {
  NetworkSpec spec;
  const int u = spec.add_field_source("u");
  const int x = spec.add_field_source("x");
  const int y = spec.add_field_source("y");
  const int z = spec.add_field_source("z");
  const int dims = spec.add_field_source("dims");
  const int grad = spec.add_filter("grad3d", {u, dims, x, y, z});
  const int c0 = spec.add_filter("decompose", {grad}, 0);
  const int c1 = spec.add_filter("decompose", {grad}, 1);
  EXPECT_NE(c0, c1);
  EXPECT_EQ(c0, spec.add_filter("decompose", {grad}, 0));
}

TEST(Spec, UnknownFilterRejected) {
  NetworkSpec spec;
  EXPECT_THROW(spec.add_filter("frobnicate", {}), NetworkError);
}

TEST(Spec, ArityMismatchRejected) {
  NetworkSpec spec;
  const int u = spec.add_field_source("u");
  EXPECT_THROW(spec.add_filter("add", {u}), NetworkError);
  EXPECT_THROW(spec.add_filter("sqrt", {u, u}), NetworkError);
}

TEST(Spec, ComponentShapeValidated) {
  NetworkSpec spec;
  const int u = spec.add_field_source("u");
  const int x = spec.add_field_source("x");
  const int y = spec.add_field_source("y");
  const int z = spec.add_field_source("z");
  const int dims = spec.add_field_source("dims");
  const int grad = spec.add_filter("grad3d", {u, dims, x, y, z});
  // Arithmetic on a vector value without decompose is a shape error.
  EXPECT_THROW(spec.add_filter("add", {grad, u}), NetworkError);
  // Decompose of a scalar is equally invalid.
  EXPECT_THROW(spec.add_filter("decompose", {u}, 0), NetworkError);
}

TEST(Spec, DecomposeComponentRangeChecked) {
  NetworkSpec spec;
  const int u = spec.add_field_source("u");
  const int x = spec.add_field_source("x");
  const int y = spec.add_field_source("y");
  const int z = spec.add_field_source("z");
  const int dims = spec.add_field_source("dims");
  const int grad = spec.add_filter("grad3d", {u, dims, x, y, z});
  EXPECT_THROW(spec.add_filter("decompose", {grad}, 3), NetworkError);
  EXPECT_THROW(spec.add_filter("decompose", {grad}, -1), NetworkError);
}

TEST(Spec, Grad3dMeshOperandsMustBeFieldSources) {
  NetworkSpec spec;
  const int u = spec.add_field_source("u");
  const int x = spec.add_field_source("x");
  const int y = spec.add_field_source("y");
  const int z = spec.add_field_source("z");
  const int dims = spec.add_field_source("dims");
  const int uu = spec.add_filter("mult", {u, u});
  // The *field* operand may be a computed value (handled by staged,
  // roundtrip and the partitioned fusion pipeline)...
  EXPECT_NO_THROW(spec.add_filter("grad3d", {uu, dims, x, y, z}));
  // ...but the mesh operands must be host-bound arrays,
  EXPECT_THROW(spec.add_filter("grad3d", {u, uu, x, y, z}), NetworkError);
  EXPECT_THROW(spec.add_filter("grad3d", {u, dims, uu, y, z}), NetworkError);
  // and the gradient of a constant is rejected as degenerate.
  const int c = spec.add_constant(2.0);
  EXPECT_THROW(spec.add_filter("grad3d", {c, dims, x, y, z}), NetworkError);
}

TEST(Spec, ConstFillNotAddableAsNetworkFilter) {
  NetworkSpec spec;
  EXPECT_THROW(spec.add_filter("const_fill", {}), NetworkError);
}

TEST(Spec, InvalidInputIdRejected) {
  NetworkSpec spec;
  const int u = spec.add_field_source("u");
  EXPECT_THROW(spec.add_filter("add", {u, 99}), NetworkError);
  EXPECT_THROW(spec.add_filter("add", {u, -1}), NetworkError);
}

TEST(Spec, OutputMustBeScalar) {
  NetworkSpec spec;
  const int u = spec.add_field_source("u");
  const int x = spec.add_field_source("x");
  const int y = spec.add_field_source("y");
  const int z = spec.add_field_source("z");
  const int dims = spec.add_field_source("dims");
  const int grad = spec.add_filter("grad3d", {u, dims, x, y, z});
  EXPECT_THROW(spec.set_output(grad), NetworkError);
  spec.set_output(spec.add_filter("decompose", {grad}, 0));
}

TEST(Spec, ScriptDumpListsAllApiCalls) {
  NetworkSpec spec;
  const int u = spec.add_field_source("u");
  const int half = spec.add_constant(0.5);
  const int scaled = spec.add_filter("mult", {u, half});
  spec.set_label(scaled, "scaled");
  spec.set_output(scaled);
  const std::string script = spec.to_script();
  EXPECT_NE(script.find("add_field_source(\"u\")"), std::string::npos);
  EXPECT_NE(script.find("add_constant(0.5)"), std::string::npos);
  EXPECT_NE(script.find("add_filter(\"mult\", [n0, n1])"), std::string::npos);
  EXPECT_NE(script.find("set_output(n2)"), std::string::npos);
  EXPECT_NE(script.find("# scaled"), std::string::npos);
}

TEST(Spec, NodeCapIsExact) {
  NetworkSpec spec;
  for (std::size_t i = 0; i < kMaxNetworkNodes; ++i) {
    spec.add_constant(static_cast<double>(i));
  }
  EXPECT_EQ(spec.nodes().size(), kMaxNetworkNodes);
  EXPECT_THROW(spec.add_constant(-1.0), NetworkError);
}

// ----- AST translation -----

TEST(Builder, TranslatesArithmeticToFilters) {
  const NetworkSpec spec = build_network("r = (u + v) * w");
  EXPECT_EQ(spec.filter_count(), 2u);
  EXPECT_EQ(spec.source_count(), 3u);
  EXPECT_EQ(spec.node(spec.output_id()).kind, "mult");
  EXPECT_EQ(spec.node(spec.output_id()).label, "r");
}

TEST(Builder, NodeCapRefusesRunawayNetworks) {
  // Each statement sums 201 distinct constants: 401 nodes, so 41
  // statements, well within the statement cap, cross the node cap.
  std::string script;
  int next = 0;
  for (int s = 0; s < 41; ++s) {
    script += "t" + std::to_string(s) + " = " + std::to_string(next++);
    for (int k = 0; k < 200; ++k) script += " + " + std::to_string(next++);
    script += "\n";
  }
  try {
    build_network(script);
    FAIL() << "expected NetworkError";
  } catch (const NetworkError& err) {
    EXPECT_NE(std::string(err.what()).find(
                  "more than " + std::to_string(kMaxNetworkNodes) + " nodes"),
              std::string::npos)
        << err.what();
  }
}

TEST(Builder, AssignedNamesResolveBeforeFieldFallback) {
  const NetworkSpec spec = build_network("u = a + b\nr = u * u");
  // "u" names the add result, so no field source "u" exists.
  for (const SpecNode& node : spec.nodes()) {
    if (node.type == NodeType::field_source) {
      EXPECT_NE(node.field_name, "u");
    }
  }
}

TEST(Builder, BracketsBecomeDecomposeFilters) {
  const NetworkSpec spec =
      build_network("du = grad3d(u, dims, x, y, z)\nr = du[1] + du[2]");
  std::size_t decomposes = 0;
  for (const SpecNode& node : spec.nodes()) {
    if (node.kind == "decompose") ++decomposes;
  }
  EXPECT_EQ(decomposes, 2u);
}

TEST(Builder, ConditionalBecomesSelectWithComparison) {
  const NetworkSpec spec =
      build_network("r = if (u > 10.0) then (v) else (w)");
  bool has_select = false;
  bool has_cmp = false;
  for (const SpecNode& node : spec.nodes()) {
    if (node.kind == "select") has_select = true;
    if (node.kind == "cmp_gt") has_cmp = true;
  }
  EXPECT_TRUE(has_select);
  EXPECT_TRUE(has_cmp);
}

TEST(Builder, UnaryMinusBecomesNegFilter) {
  const NetworkSpec spec = build_network("r = -u");
  EXPECT_EQ(spec.node(spec.output_id()).kind, "neg");
}

TEST(Builder, UnknownFunctionNamed) {
  try {
    build_network("r = curl(u)");
    FAIL() << "expected NetworkError";
  } catch (const NetworkError& err) {
    EXPECT_NE(std::string(err.what()).find("curl"), std::string::npos);
  }
}

TEST(Builder, MemoPrefixIsReservedForSplicedInputs) {
  // The memo layer binds "_memo_<key>" for each cached subtree it splices
  // in; a caller field of that name would alias the cached value.
  try {
    build_network("r = _memo_00000000deadbeef * 2.0");
    FAIL() << "expected NetworkError";
  } catch (const NetworkError& err) {
    EXPECT_NE(std::string(err.what()).find("'_memo_'"), std::string::npos)
        << err.what();
  }
  // Names merely containing the prefix stay legal, and a network-definition
  // script still builds such sources, as the memo layer's splice does.
  EXPECT_NO_THROW(build_network("r = u_memo_x * 2.0"));
  const NetworkSpec spec = parse_script(
      "n0 = net.add_field_source(\"_memo_00000000deadbeef\")\n");
  EXPECT_EQ(spec.source_count(), 1u);
}

TEST(Builder, LastStatementIsOutput) {
  const NetworkSpec spec = build_network("a = u + v\nb = a * a\nc = b - u");
  EXPECT_EQ(spec.node(spec.output_id()).label, "c");
}

TEST(Builder, RepeatedSubexpressionsShareNodes) {
  const NetworkSpec spec = build_network("r = (u * v) + (u * v)");
  EXPECT_EQ(spec.filter_count(), 2u);  // one mult + one add
}

// ----- Network initialization -----

TEST(Network, TopoOrderRespectsDependencies) {
  NetworkSpec spec = build_network("r = sqrt(u * u + v * v)");
  const Network network{std::move(spec)};
  std::vector<int> position(network.spec().nodes().size());
  for (std::size_t i = 0; i < network.topo_order().size(); ++i) {
    position[network.topo_order()[i]] = static_cast<int>(i);
  }
  for (const SpecNode& node : network.spec().nodes()) {
    for (const int in : node.inputs) {
      EXPECT_LT(position[in], position[node.id]);
    }
  }
}

TEST(Network, UseCountsCountDuplicateUses) {
  NetworkSpec spec;
  const int u = spec.add_field_source("u");
  const int sq = spec.add_filter("mult", {u, u});
  spec.set_output(sq);
  const Network network{std::move(spec)};
  EXPECT_EQ(network.use_count(u), 2);
  EXPECT_EQ(network.use_count(sq), 1);  // the output reference
}

TEST(Network, OutputUnsetThrows) {
  NetworkSpec spec;
  spec.add_field_source("u");
  EXPECT_THROW(Network{std::move(spec)}, NetworkError);
}

TEST(Network, QCriterionNetworkHasPaperFilterCount) {
  // 57 executable filters + 9 decompose = 66, plus 7 field sources and one
  // constant: the counts behind the paper's Table II Q-Crit rows.
  const NetworkSpec spec = build_network(dfg::expressions::kQCriterion);
  std::size_t decomposes = 0;
  for (const SpecNode& node : spec.nodes()) {
    if (node.kind == "decompose") ++decomposes;
  }
  EXPECT_EQ(decomposes, 9u);
  EXPECT_EQ(spec.filter_count(), 66u);
  EXPECT_EQ(spec.source_count(), 8u);  // u,v,w,x,y,z,dims + 0.5
}

}  // namespace
