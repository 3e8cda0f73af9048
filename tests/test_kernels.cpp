// Unit tests for the kernel layer: program builder validation, per-opcode
// VM semantics, the primitive registry and standalone kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "kernels/primitives.hpp"
#include "kernels/program.hpp"
#include "kernels/source_printer.hpp"
#include "kernels/vm.hpp"
#include "support/error.hpp"

namespace {

using namespace dfg::kernels;

BufferBinding bind(const std::vector<float>& v) {
  return BufferBinding{v.data(), v.size()};
}

std::vector<float> run1(const Program& prog,
                        const std::vector<std::vector<float>>& inputs,
                        std::size_t n) {
  std::vector<BufferBinding> bindings;
  bindings.reserve(inputs.size());
  for (const auto& in : inputs) bindings.push_back(bind(in));
  std::vector<float> out(n * prog.out_stride(), -999.0f);
  run_all(prog, bindings, out, n);
  return out;
}

// ----- ProgramBuilder validation -----

TEST(ProgramBuilder, StoreOfUndefinedRegisterThrows) {
  ProgramBuilder b("bad");
  b.emit_load_const(1.0f);  // r0
  EXPECT_THROW(b.finish(7, 1), dfg::KernelError);
}

TEST(ProgramBuilder, InvalidOutComponentsThrow) {
  ProgramBuilder b("bad");
  const auto r = b.emit_load_const(1.0f);
  EXPECT_THROW(b.finish(r, 2), dfg::KernelError);
}

TEST(ProgramBuilder, WrongEmitterArityThrows) {
  ProgramBuilder b("bad");
  const auto r = b.emit_load_const(1.0f);
  EXPECT_THROW(b.emit_binary(Op::sqrt, r, r), dfg::KernelError);
  EXPECT_THROW(b.emit_unary(Op::add, r), dfg::KernelError);
  EXPECT_THROW(b.emit_component(r, 4), dfg::KernelError);
}

TEST(ProgramBuilder, MetadataAccumulatesFlopsAndBytes) {
  ProgramBuilder b("meta");
  const auto a = b.emit_load_global(b.add_param("a"));
  const auto c = b.emit_load_global(b.add_param("c"));
  const auto s = b.emit_binary(Op::add, a, c);
  const Program prog = b.finish(s, 1);
  EXPECT_EQ(prog.flops_per_item(), 1u);
  // 2 loads + 1 store = 12 bytes per item.
  EXPECT_EQ(prog.global_bytes_per_item(), 12u);
  EXPECT_EQ(prog.params().size(), 2u);
}

TEST(ProgramBuilder, LivenessCountsPeakScalars) {
  ProgramBuilder b("live");
  const auto a = b.emit_load_global(b.add_param("a"));
  const auto c = b.emit_load_global(b.add_param("c"));
  const auto s = b.emit_binary(Op::add, a, c);  // a, c dead after this
  const auto t = b.emit_binary(Op::mul, s, s);
  const Program prog = b.finish(t, 1);
  // Peak: a, c and (at the add) the freshly defined s => 3 scalars.
  EXPECT_EQ(prog.max_live_scalar_registers(), 3);
}

TEST(ProgramBuilder, VectorRegistersCountAsThreeScalars) {
  ProgramBuilder b("vec_live");
  const auto field = b.add_param("f");
  const auto dims = b.add_param("dims");
  const auto x = b.add_param("x");
  const auto y = b.add_param("y");
  const auto z = b.add_param("z");
  const auto g = b.emit_grad3d(field, dims, x, y, z);
  const auto c0 = b.emit_component(g, 0);
  const Program prog = b.finish(c0, 1);
  EXPECT_GE(prog.max_live_scalar_registers(), 4);  // vec(3) + scalar
}

// ----- VM opcode semantics -----

TEST(Vm, ArithmeticOpcodes) {
  const std::vector<float> a{6.0f, -2.0f};
  const std::vector<float> c{3.0f, 4.0f};
  struct Case {
    const char* kind;
    float expect0, expect1;
  };
  const Case cases[] = {
      {"add", 9.0f, 2.0f},   {"sub", 3.0f, -6.0f}, {"mult", 18.0f, -8.0f},
      {"div", 2.0f, -0.5f},  {"min", 3.0f, -2.0f}, {"max", 6.0f, 4.0f},
  };
  for (const Case& tc : cases) {
    const Program prog = make_standalone_program(tc.kind);
    const auto out = run1(prog, {a, c}, 2);
    EXPECT_FLOAT_EQ(out[0], tc.expect0) << tc.kind;
    EXPECT_FLOAT_EQ(out[1], tc.expect1) << tc.kind;
  }
}

TEST(Vm, PowOpcode) {
  const Program prog = make_standalone_program("pow");
  const auto out = run1(prog, {{2.0f, 9.0f}, {10.0f, 0.5f}}, 2);
  EXPECT_FLOAT_EQ(out[0], 1024.0f);
  EXPECT_FLOAT_EQ(out[1], 3.0f);
}

TEST(Vm, UnaryOpcodes) {
  EXPECT_FLOAT_EQ(run1(make_standalone_program("sqrt"), {{16.0f}}, 1)[0],
                  4.0f);
  EXPECT_FLOAT_EQ(run1(make_standalone_program("neg"), {{16.0f}}, 1)[0],
                  -16.0f);
  EXPECT_FLOAT_EQ(run1(make_standalone_program("abs"), {{-3.5f}}, 1)[0],
                  3.5f);
}

TEST(Vm, ComparisonOpcodesProduceZeroOne) {
  struct Case {
    const char* kind;
    float expect;  // for a=2, c=2
  };
  const Case cases[] = {{"cmp_gt", 0.0f}, {"cmp_lt", 0.0f}, {"cmp_ge", 1.0f},
                        {"cmp_le", 1.0f}, {"cmp_eq", 1.0f}, {"cmp_ne", 0.0f}};
  for (const Case& tc : cases) {
    const Program prog = make_standalone_program(tc.kind);
    EXPECT_FLOAT_EQ(run1(prog, {{2.0f}, {2.0f}}, 1)[0], tc.expect) << tc.kind;
  }
}

TEST(Vm, SelectPicksByCondition) {
  const Program prog = make_standalone_program("select");
  const auto out =
      run1(prog, {{1.0f, 0.0f}, {10.0f, 10.0f}, {20.0f, 20.0f}}, 2);
  EXPECT_FLOAT_EQ(out[0], 10.0f);
  EXPECT_FLOAT_EQ(out[1], 20.0f);
}

TEST(Vm, ConstFillWritesImmediateEverywhere) {
  const Program prog = make_standalone_program("const_fill", 0, 2.5f);
  const auto out = run1(prog, {}, 4);
  for (const float v : out) EXPECT_FLOAT_EQ(v, 2.5f);
}

TEST(Vm, DecomposeSelectsLaneFromPackedVec) {
  // One packed float4 element per item.
  const std::vector<float> vec{1.0f, 2.0f, 3.0f, 0.0f,
                               5.0f, 6.0f, 7.0f, 0.0f};
  for (int comp = 0; comp < 3; ++comp) {
    const Program prog = make_standalone_program("decompose", comp);
    const auto out = run1(prog, {vec}, 2);
    EXPECT_FLOAT_EQ(out[0], vec[static_cast<std::size_t>(comp)]);
    EXPECT_FLOAT_EQ(out[1], vec[4 + static_cast<std::size_t>(comp)]);
  }
}

TEST(Vm, Grad3dLinearFieldIsExact) {
  // f = 2x + 3y - z on a 4x4x4 uniform unit grid: the central/one-sided
  // difference of a linear field is exact everywhere. Coordinates are the
  // problem-sized cell-center arrays the host pipeline provides.
  const std::size_t n = 4;
  const std::vector<float> dims{4.0f, 4.0f, 4.0f};
  std::vector<float> field(n * n * n);
  std::vector<float> xs(n * n * n), ys(n * n * n), zs(n * n * n);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto center = [&](std::size_t c) {
          return (static_cast<float>(c) + 0.5f) / static_cast<float>(n);
        };
        const std::size_t idx = i + n * (j + n * k);
        xs[idx] = center(i);
        ys[idx] = center(j);
        zs[idx] = center(k);
        field[idx] = 2.0f * xs[idx] + 3.0f * ys[idx] - zs[idx];
      }
    }
  }
  const Program prog = make_standalone_program("grad3d");
  const auto out = run1(prog, {field, dims, xs, ys, zs}, n * n * n);
  for (std::size_t c = 0; c < n * n * n; ++c) {
    EXPECT_NEAR(out[c * 4 + 0], 2.0f, 1e-4f) << "cell " << c;
    EXPECT_NEAR(out[c * 4 + 1], 3.0f, 1e-4f) << "cell " << c;
    EXPECT_NEAR(out[c * 4 + 2], -1.0f, 1e-4f) << "cell " << c;
    EXPECT_FLOAT_EQ(out[c * 4 + 3], 0.0f);
  }
}

TEST(Vm, Grad3dSingleCellAxisIsZero) {
  // 1x1x2 grid: x/y axes have a single cell, z has two.
  const std::vector<float> dims{1.0f, 1.0f, 2.0f};
  const std::vector<float> xs{0.5f, 0.5f};
  const std::vector<float> ys{0.5f, 0.5f};
  const std::vector<float> zs{0.25f, 0.75f};
  const std::vector<float> field{1.0f, 3.0f};
  const Program prog = make_standalone_program("grad3d");
  const auto out = run1(prog, {field, dims, xs, ys, zs}, 2);
  EXPECT_FLOAT_EQ(out[0], 0.0f);  // d/dx with one cell
  EXPECT_FLOAT_EQ(out[1], 0.0f);  // d/dy with one cell
  EXPECT_FLOAT_EQ(out[2], 4.0f);  // (3-1)/0.5
}

TEST(Vm, MismatchedBindingCountThrows) {
  const Program prog = make_standalone_program("add");
  const std::vector<float> a{1.0f};
  std::vector<float> out(1);
  std::vector<BufferBinding> only_one{bind(a)};
  EXPECT_THROW(run_all(prog, only_one, out, 1), dfg::KernelError);
}

TEST(Vm, UndersizedInputBufferThrows) {
  const Program prog = make_standalone_program("add");
  const std::vector<float> a{1.0f, 2.0f};
  const std::vector<float> c{1.0f};  // too small for ndrange 2
  std::vector<float> out(2);
  std::vector<BufferBinding> bindings{bind(a), bind(c)};
  EXPECT_THROW(run_all(prog, bindings, out, 2), dfg::KernelError);
}

TEST(Vm, UndersizedOutputThrows) {
  const Program prog = make_standalone_program("const_fill", 0, 1.0f);
  std::vector<float> out(1);
  EXPECT_THROW(run_all(prog, {}, out, 2), dfg::KernelError);
}

/// grad3d dims no caller may bind: each NaN, infinite, non-positive,
/// fractional or out-of-range value in the x slot of an otherwise valid
/// 2x2x2 grid, and a grid whose cell count overflows.
std::vector<std::vector<float>> bad_grad3d_dims() {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<std::vector<float>> cases;
  for (const float x : {std::nanf(""), inf, -inf, -1.0f, 0.0f, 2.5f, 1e30f}) {
    cases.push_back({x, 2.0f, 2.0f});
  }
  cases.push_back({16777216.0f, 16777216.0f, 16777216.0f});
  return cases;
}

TEST(Vm, Grad3dBadDimsBufferThrows) {
  const Program prog = make_standalone_program("grad3d");
  const std::vector<float> field(8, 0.0f);
  const std::vector<float> dims{2.0f, 2.0f};  // needs 3 entries
  const std::vector<float> nodes{0.0f, 0.5f, 1.0f};
  std::vector<float> out(8 * 4);
  std::vector<BufferBinding> bindings{bind(field), bind(dims), bind(nodes),
                                      bind(nodes), bind(nodes)};
  EXPECT_THROW(run_all(prog, bindings, out, 8), dfg::KernelError);

  // Extents that are not finite integers in [1, 2^24], or whose product
  // overflows, are refused before any cast, by both interpreters. The
  // same launch with valid dims runs, so dims alone cause each refusal.
  const std::vector<float> coords(8, 0.5f);
  const auto args = [&](const std::vector<float>& d) {
    return std::vector<BufferBinding>{bind(field), bind(d), bind(coords),
                                      bind(coords), bind(coords)};
  };
  const std::vector<float> good{2.0f, 2.0f, 2.0f};
  EXPECT_NO_THROW(run(prog, args(good), out.data(), out.size(), 0, 8));
  EXPECT_NO_THROW(run_scalar(prog, args(good), out.data(), out.size(), 0, 8));
  for (const std::vector<float>& bad : bad_grad3d_dims()) {
    EXPECT_THROW(run(prog, args(bad), out.data(), out.size(), 0, 8),
                 dfg::KernelError)
        << bad[0] << "," << bad[1] << "," << bad[2];
    EXPECT_THROW(run_scalar(prog, args(bad), out.data(), out.size(), 0, 8),
                 dfg::KernelError)
        << bad[0] << "," << bad[1] << "," << bad[2];
  }
}

TEST(Vm, Grad3dUndersizedCoordinateBufferThrows) {
  const Program prog = make_standalone_program("grad3d");
  const std::vector<float> field(8, 0.0f);
  const std::vector<float> dims{2.0f, 2.0f, 2.0f};
  const std::vector<float> coords(8, 0.5f);
  const std::vector<float> short_coords(4, 0.5f);  // needs 8 (one per cell)
  std::vector<float> out(8 * 4);
  std::vector<BufferBinding> bindings{bind(field), bind(dims),
                                      bind(short_coords), bind(coords),
                                      bind(coords)};
  EXPECT_THROW(run_all(prog, bindings, out, 8), dfg::KernelError);
}

// ----- Primitive registry -----

TEST(Primitives, RegistryContainsPaperSubset) {
  // The subset the paper names in §III-B3.
  for (const char* name :
       {"add", "sub", "mult", "sqrt", "decompose", "grad3d"}) {
    EXPECT_NE(find_primitive(name), nullptr) << name;
  }
}

TEST(Primitives, UnknownLookupReturnsNull) {
  EXPECT_EQ(find_primitive("nope"), nullptr);
}

TEST(Primitives, MetadataShapes) {
  EXPECT_EQ(find_primitive("grad3d")->result_components, 3);
  EXPECT_EQ(find_primitive("grad3d")->arity, 5);
  EXPECT_EQ(find_primitive("decompose")->input_components[0], 3);
  EXPECT_EQ(find_primitive("select")->arity, 3);
}

TEST(Primitives, EveryPrimitiveCarriesOclSource) {
  for (const PrimitiveInfo& info : all_primitives()) {
    EXPECT_FALSE(info.ocl_source.empty()) << info.name;
  }
}

TEST(Primitives, Grad3dSourceIsTheFiftyLinePrimitive) {
  // The paper: "the 3D rectilinear mesh field gradient requires over 50
  // lines of OpenCL source code".
  const std::string& src = find_primitive("grad3d")->ocl_source;
  const std::size_t lines =
      static_cast<std::size_t>(std::count(src.begin(), src.end(), '\n'));
  EXPECT_GT(lines, 50u);
  EXPECT_NE(src.find("float4 grad3d"), std::string::npos);
}

TEST(Primitives, BinaryOpcodeForRejectsNonBinary) {
  EXPECT_THROW(binary_opcode_for("sqrt"), dfg::KernelError);
  EXPECT_EQ(binary_opcode_for("mult"), Op::mul);
}

TEST(Primitives, StandaloneUnknownKindThrows) {
  EXPECT_THROW(make_standalone_program("nope"), dfg::KernelError);
}

TEST(OpMetadata, NamesAndCosts) {
  EXPECT_STREQ(op_name(Op::grad3d), "grad3d");
  EXPECT_STREQ(op_name(Op::load_global), "load_global");
  EXPECT_EQ(op_flops(Op::add), 1u);
  EXPECT_EQ(op_flops(Op::load_global), 0u);
  EXPECT_GT(op_flops(Op::grad3d), op_flops(Op::sqrt));
  EXPECT_EQ(op_global_bytes(Op::store_vec), 16u);
  EXPECT_EQ(op_global_bytes(Op::add), 0u);
}

TEST(OpMetadata, EveryOpcodeFactIsPinned) {
  // Every per-opcode fact the kernel layer states, read through its public
  // accessors and hashed: name, cost, traffic, arity and register operands
  // of each opcode, the opcode each primitive kind lowers to, and both
  // dialects' text of every one-primitive kernel (each opcode's spelling).
  std::string facts;
  for (int i = 0; i <= static_cast<int>(Op::grad3d); ++i) {
    const Op op = static_cast<Op>(i);
    facts += std::string(op_name(op)) + " " + std::to_string(op_flops(op)) +
             " " + std::to_string(op_global_bytes(op)) + " " +
             std::to_string(op_is_binary(op)) +
             std::to_string(op_is_unary(op)) +
             std::to_string(op_defines_register(op)) +
             std::to_string(instr_register_operands(Instr{op})) + "\n";
  }
  for (const PrimitiveInfo& prim : all_primitives()) {
    facts += prim.name;
    for (Op (*lower)(const std::string&) :
         {&unary_opcode_for, &binary_opcode_for}) {
      try {
        facts += std::string(" ") + op_name(lower(prim.name));
      } catch (const dfg::KernelError&) {
        facts += " -";
      }
    }
    const Program prog = make_standalone_program(prim.name);
    facts += "\n" + to_c_source(prog) + to_opencl_source(prog);
  }
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (const char c : facts) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 0x100000001b3ull;
  }
  EXPECT_EQ(digest, 0x950d41f9b1d21805ull) << "0x" << std::hex << digest;
}

}  // namespace
