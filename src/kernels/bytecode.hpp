// Kernel layer: bytecode instruction set.
//
// The paper generates OpenCL C at runtime (via PyOpenCL) and fuses primitive
// source functions into a single kernel. Without an OpenCL JIT available we
// substitute a register-machine bytecode: primitives are emitted as short
// instruction sequences, and the fusion generator splices them into one
// program whose intermediates live in virtual registers — the same
// data-movement semantics as register-resident fused OpenCL kernels. The
// source emitter (source_printer.hpp) renders the equivalent OpenCL C for
// inspection, mirroring the paper's optional script dump.
//
// Register model: every register is a float4 (the paper represents
// multi-value results with built-in OpenCL vector types). Scalar values
// occupy lane s0. The gradient primitive produces lanes s0..s2.
//
// Every fact about an opcode that is not how to execute it lives in one
// table row (kernels/program.cpp, read through op_info): its name, the
// primitive kind it implements, its form and register operands, its cost,
// and its source spelling. The builder, the optimizer, lane liveness, the
// register-pressure scan and both source dialects dispatch on the row, not
// on the opcode. How a lane-wise opcode or comparison computes is one float
// function in vm.cpp's dispatch, the one switch over Op that both loop
// shapes run: the element-wise step (run_scalar, and the constant folder
// through eval_register_op) and run()'s tiled loop. So adding a lane-wise
// opcode touches the enum, one row and one function; any other opcode also
// needs code in both loop shapes and a source_printer case.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace dfg::kernels {

/// A float4 register value, named after the OpenCL vector type.
struct Vec4 {
  std::array<float, 4> s{0.0f, 0.0f, 0.0f, 0.0f};

  float& operator[](std::size_t i) { return s[i]; }
  float operator[](std::size_t i) const { return s[i]; }
};

enum class Op : std::uint8_t {
  // Memory.
  load_global,      ///< r[dst].s0 = buf[args[0]][gid]
  load_global_vec,  ///< r[dst] = ((float4*)buf[args[0]])[gid]
  load_const,       ///< r[dst].s0 = imm (source-level constant insertion)
  store,            ///< out[gid] = r[args[0]].s0
  store_vec,        ///< ((float4*)out)[gid] = r[args[0]]

  // Lane-wise arithmetic: r[dst] = r[args[0]] OP r[args[1]].
  add,
  sub,
  mul,
  div,

  // Lane-wise unary: r[dst] = f(r[args[0]]).
  sqrt,
  neg,
  abs,
  sin,
  cos,
  tan,
  acos,
  exp,
  log,
  tanh,
  floor,
  ceil,

  // Binary math functions (lane-wise).
  min,
  max,
  pow,

  // Vector component select: r[dst].s0 = r[args[0]].s[args[1]].
  component,

  // Scalar comparisons: r[dst].s0 = (r[args[0]].s0 OP r[args[1]].s0) ? 1 : 0.
  cmp_gt,
  cmp_lt,
  cmp_ge,
  cmp_le,
  cmp_eq,
  cmp_ne,

  /// r[dst] = r[args[0]].s0 != 0 ? r[args[1]] : r[args[2]].
  select,

  /// Vector pack: r[dst].s0..s2 = r[args[0]].s0, r[args[1]].s0,
  /// r[args[2]].s0; lane s3 = 0. The inverse of three `component`
  /// selections — used to assemble vector-valued derived fields (curl)
  /// from scalar subexpressions.
  pack,

  /// 3-D rectilinear-mesh cell-centered gradient with direct global memory
  /// access (the paper's "more complex memory requirements" case):
  /// r[dst].s0..s2 = d(field)/dx,dy,dz at gid.
  /// args = {field buffer, dims buffer (3 floats: nx,ny,nz),
  ///         x, y, z node-coordinate buffers}.
  grad3d,
};

/// One bytecode instruction. The meaning of args depends on the opcode:
/// register indices for arithmetic, buffer-parameter slots for memory ops,
/// a literal component index for `component`.
struct Instr {
  Op op;
  std::uint16_t dst = 0;
  std::array<std::uint16_t, 5> args{};
  float imm = 0.0f;
};

inline constexpr std::size_t kOpCount =
    static_cast<std::size_t>(Op::grad3d) + 1;

/// How an opcode's result lanes depend on its register operands. Lane
/// liveness, the register-pressure scan and the constant folder dispatch on
/// this.
enum class OpForm : std::uint8_t {
  read,        ///< lane 0 from a buffer; lanes 1..3 zero
  read_vec,    ///< lanes 0..3 from buffers (load_global_vec, grad3d)
  constant,    ///< lane 0 = imm; lanes 1..3 zero
  write,       ///< out = lane 0 of the operand
  write_vec,   ///< out = all four lanes of the operand
  lanewise,    ///< lane l = f(lane l of every operand)
  comparison,  ///< lane 0 = (a.s0 OP b.s0) ? 1 : 0; lanes 1..3 zero
  component,   ///< lane 0 = lane args[1] of the operand; lanes 1..3 zero
  select,      ///< every lane of args[1] or args[2], by lane 0 of args[0]
  pack,        ///< lane l = lane 0 of operand l; lane 3 zero
};

/// How the source printer writes a lane of a lane-wise or comparison
/// opcode; other opcodes are printed by their form.
enum class Spell : std::uint8_t {
  none,
  prefix,  ///< `-a`
  infix,   ///< `a + b`, and the comparison `(a > b) ? 1.0f : 0.0f`
  call,    ///< `sqrt(a)`, `fmin(a, b)`: a libm function, float-suffixed in C
};

/// One opcode's row of the opcode table.
struct OpInfo {
  Op op;
  const char* name;  ///< diagnostic name ("add", "grad3d", ...)
  /// The dataflow primitive kind the opcode implements ("mult" for mul),
  /// or nullptr for the memory opcodes.
  const char* kind;
  OpForm form;
  /// Leading `args` entries holding register indices; the rest are buffer
  /// slots or literals (component's lane index, grad3d's five slots).
  std::uint8_t operands;
  std::uint8_t flops;         ///< per-element flop cost (cost model)
  std::uint8_t global_bytes;  ///< per-element global-memory traffic
  Spell spell = Spell::none;
  const char* token = nullptr;  ///< the operator or libm function printed
};

/// The opcode's table row.
const OpInfo& op_info(Op op);

/// Accessors over the table.
bool op_is_binary(Op op);  ///< lane-wise or comparison, two operands
bool op_is_unary(Op op);   ///< lane-wise, one operand
/// True for every opcode that writes a register (everything but stores).
bool op_defines_register(Op op);
int instr_register_operands(const Instr& instr);
std::uint64_t op_flops(Op op);
std::uint64_t op_global_bytes(Op op);
const char* op_name(Op op);

}  // namespace dfg::kernels
