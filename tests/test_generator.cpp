// Unit tests for the fusion kernel generator and the OpenCL source printer.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/expressions.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "kernels/generator.hpp"
#include "kernels/optimizer.hpp"
#include "kernels/source_printer.hpp"
#include "kernels/vm.hpp"
#include "support/error.hpp"

namespace {

using namespace dfg::kernels;
using dfg::dataflow::Network;
using dfg::dataflow::build_network;

Program fuse(const char* expression) {
  return generate_fused(Network(build_network(expression)));
}

std::vector<std::string> param_names(const Program& prog) {
  std::vector<std::string> names;
  for (const BufferParam& p : prog.params()) names.push_back(p.name);
  return names;
}

std::size_t count_ops(const Program& prog, Op op) {
  std::size_t n = 0;
  for (const Instr& in : prog.code()) {
    if (in.op == op) ++n;
  }
  return n;
}

TEST(Generator, VelocityMagnitudeSignature) {
  const Program prog = fuse(dfg::expressions::kVelocityMagnitude);
  EXPECT_EQ(param_names(prog), (std::vector<std::string>{"u", "v", "w"}));
  EXPECT_EQ(prog.out_components(), 1);
  // 3 loads, 3 muls, 2 adds, 1 sqrt, 1 store.
  EXPECT_EQ(prog.code().size(), 10u);
}

TEST(Generator, EachExternalInputLoadedOnce) {
  const Program prog = fuse("r = u*u + u*u + u");
  EXPECT_EQ(count_ops(prog, Op::load_global), 1u);
}

TEST(Generator, ConstantsInlinedNotBuffered) {
  const Program prog = fuse("r = 0.5 * u + 0.5 * v");
  // Constant dedup at the network level plus source-level insertion: one
  // load_const, no extra buffer parameters.
  EXPECT_EQ(count_ops(prog, Op::load_const), 1u);
  EXPECT_EQ(prog.params().size(), 2u);
  bool found = false;
  for (const Instr& in : prog.code()) {
    if (in.op == Op::load_const) {
      EXPECT_FLOAT_EQ(in.imm, 0.5f);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Generator, DecomposeLowersToComponentSelect) {
  const Program prog =
      fuse("du = grad3d(u, dims, x, y, z)\nr = du[2] - du[0]");
  EXPECT_EQ(count_ops(prog, Op::grad3d), 1u);
  EXPECT_EQ(count_ops(prog, Op::component), 2u);
  EXPECT_EQ(count_ops(prog, Op::load_global_vec), 0u)
      << "fused kernels never materialise the vector intermediate";
}

TEST(Generator, GradFieldsAreNotLoadedAsScalars) {
  // u feeds only grad3d: it must appear as a parameter (direct global
  // access) but never as a load_global.
  const Program prog =
      fuse("du = grad3d(u, dims, x, y, z)\nr = du[0] * du[0]");
  EXPECT_EQ(count_ops(prog, Op::load_global), 0u);
  EXPECT_EQ(param_names(prog),
            (std::vector<std::string>{"u", "dims", "x", "y", "z"}));
}

TEST(Generator, FieldUsedBothWaysLoadsOnceAndPassesBuffer) {
  const Program prog = fuse("du = grad3d(u, dims, x, y, z)\nr = du[0] + u");
  EXPECT_EQ(count_ops(prog, Op::load_global), 1u);
  EXPECT_EQ(count_ops(prog, Op::grad3d), 1u);
  EXPECT_EQ(prog.params().size(), 5u);
}

TEST(Generator, SingleStoreAtEnd) {
  const Program prog = fuse(dfg::expressions::kQCriterion);
  EXPECT_EQ(count_ops(prog, Op::store), 1u);
  EXPECT_EQ(prog.code().back().op, Op::store);
}

TEST(Generator, QCriterionParamsMatchTable2FusionWrites) {
  // 7 unique inputs -> the 7 Dev-W of Table II's fusion rows.
  const Program prog = fuse(dfg::expressions::kQCriterion);
  EXPECT_EQ(prog.params().size(), 7u);
  EXPECT_EQ(count_ops(prog, Op::grad3d), 3u);
  EXPECT_EQ(count_ops(prog, Op::component), 9u);
}

TEST(Generator, SelectAndComparisonsFuse) {
  const Program prog = fuse("r = if (u > 0.0) then (v) else (-v)");
  EXPECT_EQ(count_ops(prog, Op::select), 1u);
  EXPECT_EQ(count_ops(prog, Op::cmp_gt), 1u);
  EXPECT_EQ(count_ops(prog, Op::neg), 1u);
}

TEST(Generator, FusedProgramComputesSameAsInstructions) {
  // Fused "r = sqrt(u*u + v*v)" over concrete data.
  const Program prog = fuse("r = sqrt(u*u + v*v)");
  const std::vector<float> u{3.0f, 5.0f};
  const std::vector<float> v{4.0f, 12.0f};
  std::vector<BufferBinding> inputs{{u.data(), u.size()},
                                    {v.data(), v.size()}};
  std::vector<float> out(2);
  run_all(prog, inputs, out, 2);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[1], 13.0f);
}

TEST(Generator, RegisterPressureGrowsWithExpressionComplexity) {
  const Program velmag = fuse(dfg::expressions::kVelocityMagnitude);
  const Program qcrit = fuse(dfg::expressions::kQCriterion);
  EXPECT_GT(qcrit.max_live_scalar_registers(),
            velmag.max_live_scalar_registers());
  // The fused Q-criterion must still fit a Fermi register budget (63): the
  // paper's fusion runs did not spill.
  EXPECT_LE(qcrit.max_live_scalar_registers(), 63);
}

// ----- Source printer -----

/// The OpenCL text from the __kernel line on, so an assertion cannot be
/// satisfied by the grad3d device function in the preamble.
std::string kernel_text(const Program& prog) {
  const std::string src = to_opencl_source(prog);
  const std::size_t at = src.find("__kernel");
  EXPECT_NE(at, std::string::npos);
  return at == std::string::npos ? std::string() : src.substr(at);
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(SourcePrinter, KernelSignatureListsParams) {
  const Program prog = fuse(dfg::expressions::kVelocityMagnitude);
  const std::string src = kernel_text(prog);
  EXPECT_NE(src.find("__kernel void fused_expression"), std::string::npos);
  EXPECT_NE(src.find("__global const float *u"), std::string::npos);
  EXPECT_NE(src.find("__global float *out"), std::string::npos);
  EXPECT_NE(src.find("get_global_id(0)"), std::string::npos);
  EXPECT_NE(src.find("out[gid] ="), std::string::npos);
}

TEST(SourcePrinter, ConstantsAppearAsLiterals) {
  const Program prog = fuse("r = 0.5 * u");
  const std::string src = kernel_text(prog);
  EXPECT_NE(src.find("0.5f"), std::string::npos);
}

TEST(SourcePrinter, DecomposePrintsVectorComponentAccess) {
  const Program prog =
      fuse("du = grad3d(u, dims, x, y, z)\nr = du[1] * du[1]");
  const std::string src = kernel_text(prog);
  EXPECT_NE(src.find(".s1"), std::string::npos);
}

TEST(SourcePrinter, GradPreambleIncludedExactlyOnce) {
  const Program prog = fuse(dfg::expressions::kVorticityMagnitude);
  const std::string src = to_opencl_source(prog);
  std::size_t count = 0;
  for (std::size_t pos = src.find("inline float4 grad3d");
       pos != std::string::npos;
       pos = src.find("inline float4 grad3d", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(SourcePrinter, SqrtAndSelectRendered) {
  const Program prog = fuse("r = if (u > 1.0) then (sqrt(u)) else (u)");
  const std::string src = kernel_text(prog);
  EXPECT_NE(src.find("sqrt("), std::string::npos);
  EXPECT_NE(src.find("!= 0.0f) ?"), std::string::npos);
}

TEST(SourcePrinter, HeaderStatesRegisterPressure) {
  const Program prog = fuse(dfg::expressions::kQCriterion);
  const std::string src = to_opencl_source(prog);
  EXPECT_NE(src.find("live scalar registers"), std::string::npos);
}

TEST(SourcePrinter, CTextIsByteStable) {
  // The jit compiles this text and bit-exactness across backends rests on
  // it, so a printer change must leave it byte for byte as it is.
  struct Case {
    const char* script;
    bool optimized;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {dfg::expressions::kVelocityMagnitude, false, 0xdfc9866726221490ull},
      {dfg::expressions::kVelocityMagnitude, true, 0xfae0868f7755ec92ull},
      {dfg::expressions::kVorticityMagnitude, false, 0x54c8c6bb273d99aaull},
      {dfg::expressions::kVorticityMagnitude, true, 0x2efc51ff1da5217dull},
      {dfg::expressions::kQCriterion, false, 0x6d0c33a66912aa48ull},
      {dfg::expressions::kQCriterion, true, 0x3f6b8be76f739c2full},
      // JitBackend.GeneratedSourceIsSelfContained's program.
      {"q = select(u > v, sin(u), grad3d(w, dims, x, y, z)[0])", true,
       0x1c8e669e0fe9c684ull},
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Program fused = fuse(cases[i].script);
    const std::string text =
        to_c_source(cases[i].optimized ? optimize_program(fused) : fused);
    EXPECT_EQ(fnv1a64(text), cases[i].digest)
        << "case " << i << ": 0x" << std::hex << fnv1a64(text);
  }
}

TEST(SourcePrinter, EveryOpcodeTextIsByteStable) {
  // One program calling every lane-wise opcode and every comparison, so
  // each opcode's spelling in both dialects is pinned, not only the ones
  // the paper expressions use.
  const char* script =
      "r = sin(u) + cos(v) * tan(w) - acos(u) / exp(v) + log(w) - tanh(u)"
      " + floor(v) * ceil(w) + abs(u) * -w + sqrt(v) + min(u, v) + max(v, w)"
      " + pow(u, w) + (u > v) + (u < w) + (v >= w) + (u <= v) + (v == w)"
      " + (u != w) + select(u > w, u, v)";
  const Program fused = fuse(script);
  const Program optimized = optimize_program(fused);
  const std::uint64_t digests[] = {
      fnv1a64(to_c_source(fused)), fnv1a64(to_opencl_source(fused)),
      fnv1a64(to_c_source(optimized)), fnv1a64(to_opencl_source(optimized))};
  const std::uint64_t expected[] = {
      0xb54abcc4e61f70e8ull, 0xd4b97564f959cc7cull, 0x84138549c66eb716ull,
      0x054295369425e425ull};
  for (std::size_t i = 0; i < std::size(digests); ++i) {
    EXPECT_EQ(digests[i], expected[i])
        << "text " << i << ": 0x" << std::hex << digests[i];
  }
}

}  // namespace
