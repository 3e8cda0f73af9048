#include "kernels/program.hpp"

#include <algorithm>
#include <bit>
#include <iterator>

#include "support/checksum.hpp"
#include "support/error.hpp"

namespace dfg::kernels {

namespace {

using F = OpForm;
using S = Spell;

// One row per opcode, in enum order. Costs: sqrt costs several
// fma-equivalents on both targets; transcendentals pay special-function
// units or a polynomial; grad3d per axis pays one field difference,
// cell-center reconstruction from node coordinates (2 adds + 2 muls), one
// coordinate difference and one divide, and reads six field and six
// coordinate values (the tiny dims buffer is treated as cached).
constexpr OpInfo kOps[] = {
    // op, name, kind, form, operands, flops, bytes[, spelling, token]
    {Op::load_global, "load_global", nullptr, F::read, 0, 0, 4},
    {Op::load_global_vec, "load_global_vec", nullptr, F::read_vec, 0, 0, 16},
    {Op::load_const, "load_const", "const_fill", F::constant, 0, 0, 0},
    {Op::store, "store", nullptr, F::write, 1, 0, 4},
    {Op::store_vec, "store_vec", nullptr, F::write_vec, 1, 0, 16},
    {Op::add, "add", "add", F::lanewise, 2, 1, 0, S::infix, "+"},
    {Op::sub, "sub", "sub", F::lanewise, 2, 1, 0, S::infix, "-"},
    {Op::mul, "mul", "mult", F::lanewise, 2, 1, 0, S::infix, "*"},
    {Op::div, "div", "div", F::lanewise, 2, 1, 0, S::infix, "/"},
    {Op::sqrt, "sqrt", "sqrt", F::lanewise, 1, 4, 0, S::call, "sqrt"},
    {Op::neg, "neg", "neg", F::lanewise, 1, 1, 0, S::prefix, "-"},
    {Op::abs, "abs", "abs", F::lanewise, 1, 1, 0, S::call, "fabs"},
    {Op::sin, "sin", "sin", F::lanewise, 1, 8, 0, S::call, "sin"},
    {Op::cos, "cos", "cos", F::lanewise, 1, 8, 0, S::call, "cos"},
    {Op::tan, "tan", "tan", F::lanewise, 1, 8, 0, S::call, "tan"},
    {Op::acos, "acos", "acos", F::lanewise, 1, 8, 0, S::call, "acos"},
    {Op::exp, "exp", "exp", F::lanewise, 1, 8, 0, S::call, "exp"},
    {Op::log, "log", "log", F::lanewise, 1, 8, 0, S::call, "log"},
    {Op::tanh, "tanh", "tanh", F::lanewise, 1, 8, 0, S::call, "tanh"},
    {Op::floor, "floor", "floor", F::lanewise, 1, 1, 0, S::call, "floor"},
    {Op::ceil, "ceil", "ceil", F::lanewise, 1, 1, 0, S::call, "ceil"},
    {Op::min, "min", "min", F::lanewise, 2, 1, 0, S::call, "fmin"},
    {Op::max, "max", "max", F::lanewise, 2, 1, 0, S::call, "fmax"},
    {Op::pow, "pow", "pow", F::lanewise, 2, 16, 0, S::call, "pow"},
    {Op::component, "component", "decompose", F::component, 1, 0, 0},
    {Op::cmp_gt, "cmp_gt", "cmp_gt", F::comparison, 2, 1, 0, S::infix, ">"},
    {Op::cmp_lt, "cmp_lt", "cmp_lt", F::comparison, 2, 1, 0, S::infix, "<"},
    {Op::cmp_ge, "cmp_ge", "cmp_ge", F::comparison, 2, 1, 0, S::infix, ">="},
    {Op::cmp_le, "cmp_le", "cmp_le", F::comparison, 2, 1, 0, S::infix, "<="},
    {Op::cmp_eq, "cmp_eq", "cmp_eq", F::comparison, 2, 1, 0, S::infix, "=="},
    {Op::cmp_ne, "cmp_ne", "cmp_ne", F::comparison, 2, 1, 0, S::infix, "!="},
    {Op::select, "select", "select", F::select, 3, 1, 0},
    {Op::pack, "pack", "pack3", F::pack, 3, 0, 0},
    {Op::grad3d, "grad3d", "grad3d", F::read_vec, 0, 30, 48},
};
static_assert(std::size(kOps) == kOpCount, "one opcode table row per Op");
static_assert(
    [] {
      for (std::size_t i = 0; i < kOpCount; ++i) {
        if (static_cast<std::size_t>(kOps[i].op) != i) return false;
      }
      return true;
    }(),
    "opcode table rows are in enum order");

/// Lanes a register holds as live scalars: vector-valued producers hold 3,
/// scalar producers 1, lane-wise results as many as their widest operand.
int result_width(const Instr& instr, const std::vector<int>& widths) {
  const OpInfo& info = op_info(instr.op);
  switch (info.form) {
    case F::read_vec:
    case F::pack:
      return 3;
    case F::select:
      return std::max(widths[instr.args[1]], widths[instr.args[2]]);
    case F::lanewise: {
      int width = 1;
      for (int k = 0; k < info.operands; ++k) {
        const std::uint16_t reg = instr.args[static_cast<std::size_t>(k)];
        width = std::max(width, widths[reg]);
      }
      return width;
    }
    default:
      return 1;
  }
}

}  // namespace

const OpInfo& op_info(Op op) { return kOps[static_cast<std::size_t>(op)]; }

bool op_is_binary(Op op) {
  const OpInfo& info = op_info(op);
  return info.operands == 2 &&
         (info.form == OpForm::lanewise || info.form == OpForm::comparison);
}

bool op_is_unary(Op op) {
  const OpInfo& info = op_info(op);
  return info.operands == 1 && info.form == OpForm::lanewise;
}

bool op_defines_register(Op op) {
  const OpForm form = op_info(op).form;
  return form != OpForm::write && form != OpForm::write_vec;
}

int instr_register_operands(const Instr& instr) {
  return op_info(instr.op).operands;
}

std::uint64_t op_flops(Op op) { return op_info(op).flops; }

std::uint64_t op_global_bytes(Op op) { return op_info(op).global_bytes; }

const char* op_name(Op op) { return op_info(op).name; }

ProgramBuilder::ProgramBuilder(std::string name) : name_(std::move(name)) {}

std::uint16_t ProgramBuilder::add_param(const std::string& name, bool is_vec) {
  params_.push_back(BufferParam{name, is_vec});
  return static_cast<std::uint16_t>(params_.size() - 1);
}

std::uint16_t ProgramBuilder::fresh_reg() {
  if (next_reg_ == UINT16_MAX) {
    throw KernelError("program '" + name_ + "' exhausted virtual registers");
  }
  return next_reg_++;
}

std::uint16_t ProgramBuilder::emit_load_global(std::uint16_t param_slot) {
  const std::uint16_t dst = fresh_reg();
  code_.push_back(Instr{Op::load_global, dst, {param_slot}, 0.0f});
  return dst;
}

std::uint16_t ProgramBuilder::emit_load_global_vec(std::uint16_t param_slot) {
  const std::uint16_t dst = fresh_reg();
  code_.push_back(Instr{Op::load_global_vec, dst, {param_slot}, 0.0f});
  return dst;
}

std::uint16_t ProgramBuilder::emit_load_const(float value) {
  const std::uint16_t dst = fresh_reg();
  code_.push_back(Instr{Op::load_const, dst, {}, value});
  return dst;
}

std::uint16_t ProgramBuilder::emit_binary(Op op, std::uint16_t a,
                                          std::uint16_t b) {
  if (!op_is_binary(op)) {
    throw KernelError(std::string("emit_binary called with opcode ") +
                      op_name(op));
  }
  const std::uint16_t dst = fresh_reg();
  code_.push_back(Instr{op, dst, {a, b}, 0.0f});
  return dst;
}

std::uint16_t ProgramBuilder::emit_unary(Op op, std::uint16_t a) {
  if (!op_is_unary(op)) {
    throw KernelError(std::string("emit_unary called with opcode ") +
                      op_name(op));
  }
  const std::uint16_t dst = fresh_reg();
  code_.push_back(Instr{op, dst, {a}, 0.0f});
  return dst;
}

std::uint16_t ProgramBuilder::emit_component(std::uint16_t a, int component) {
  if (component < 0 || component > 3) {
    throw KernelError("component index " + std::to_string(component) +
                      " out of range [0, 3]");
  }
  const std::uint16_t dst = fresh_reg();
  code_.push_back(
      Instr{Op::component, dst, {a, static_cast<std::uint16_t>(component)},
            0.0f});
  return dst;
}

std::uint16_t ProgramBuilder::emit_select(std::uint16_t cond,
                                          std::uint16_t then_value,
                                          std::uint16_t else_value) {
  const std::uint16_t dst = fresh_reg();
  code_.push_back(Instr{Op::select, dst, {cond, then_value, else_value}, 0.0f});
  return dst;
}

std::uint16_t ProgramBuilder::emit_pack(std::uint16_t a, std::uint16_t b,
                                        std::uint16_t c) {
  const std::uint16_t dst = fresh_reg();
  code_.push_back(Instr{Op::pack, dst, {a, b, c}, 0.0f});
  return dst;
}

std::uint16_t ProgramBuilder::emit_grad3d(std::uint16_t field_slot,
                                          std::uint16_t dims_slot,
                                          std::uint16_t x_slot,
                                          std::uint16_t y_slot,
                                          std::uint16_t z_slot) {
  const std::uint16_t dst = fresh_reg();
  code_.push_back(Instr{Op::grad3d,
                        dst,
                        {field_slot, dims_slot, x_slot, y_slot, z_slot},
                        0.0f});
  return dst;
}

Program ProgramBuilder::finish(std::uint16_t result_reg, int out_components) {
  if (result_reg >= next_reg_) {
    throw KernelError("program '" + name_ + "' stores undefined register r" +
                      std::to_string(result_reg));
  }
  if (out_components != 1 && out_components != 3) {
    throw KernelError("out_components must be 1 or 3");
  }
  code_.push_back(Instr{out_components == 1 ? Op::store : Op::store_vec,
                        0,
                        {result_reg},
                        0.0f});
  return Program::assemble(std::move(name_), std::move(code_),
                           std::move(params_), next_reg_, out_components);
}

Program Program::assemble(std::string name, std::vector<Instr> code,
                          std::vector<BufferParam> params,
                          std::uint16_t num_regs, int out_components) {
  if (out_components != 1 && out_components != 3) {
    throw KernelError("out_components must be 1 or 3");
  }
  Program prog;
  prog.name_ = std::move(name);
  prog.code_ = std::move(code);
  prog.params_ = std::move(params);
  prog.num_regs_ = num_regs;
  prog.out_components_ = out_components;

  // Cost metadata.
  for (const Instr& instr : prog.code_) {
    prog.flops_per_item_ += op_flops(instr.op);
    prog.global_bytes_per_item_ += op_global_bytes(instr.op);
  }

  // Content fingerprint: every identity-relevant field, names excluded
  // (buffers bind positionally, so a rename cannot change the emitted
  // kernel). Fields hash individually rather than as raw struct bytes so
  // padding never leaks into the digest.
  std::uint64_t fp = support::kFnvOffsetBasis;
  const auto mix = [&fp](std::uint64_t value) {
    fp = support::fnv1a(&value, sizeof(value), fp);
  };
  mix(prog.code_.size());
  for (const Instr& instr : prog.code_) {
    mix(static_cast<std::uint64_t>(instr.op));
    mix(instr.dst);
    for (const std::uint16_t arg : instr.args) mix(arg);
    mix(std::bit_cast<std::uint32_t>(instr.imm));
  }
  mix(prog.params_.size());
  for (const BufferParam& param : prog.params_) {
    mix(param.is_vec ? 1 : 0);
  }
  mix(static_cast<std::uint64_t>(prog.out_components_));
  prog.fingerprint_ = fp;

  // Register-pressure scan: definition point and last use per register,
  // widths propagated through vector-valued ops, peak live scalars.
  const std::size_t n = prog.code_.size();
  std::vector<int> def_at(prog.num_regs_, -1);
  std::vector<int> last_use(prog.num_regs_, -1);
  std::vector<int> widths(prog.num_regs_, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const Instr& instr = prog.code_[i];
    const int operands = instr_register_operands(instr);
    for (int k = 0; k < operands; ++k) {
      const std::uint16_t reg = instr.args[static_cast<std::size_t>(k)];
      if (reg >= prog.num_regs_ || def_at[reg] < 0) {
        throw KernelError("program '" + prog.name_ + "' instruction " +
                          std::to_string(i) + " (" + op_name(instr.op) +
                          ") uses undefined register r" + std::to_string(reg));
      }
      last_use[reg] = static_cast<int>(i);
    }
    if (op_defines_register(instr.op)) {
      def_at[instr.dst] = static_cast<int>(i);
      widths[instr.dst] = result_width(instr, widths);
      last_use[instr.dst] = static_cast<int>(i);
    }
  }
  int max_live = 0;
  for (std::size_t i = 0; i < n; ++i) {
    int live = 0;
    for (std::uint16_t r = 0; r < prog.num_regs_; ++r) {
      if (def_at[r] >= 0 && def_at[r] <= static_cast<int>(i) &&
          last_use[r] >= static_cast<int>(i)) {
        live += widths[r];
      }
    }
    max_live = std::max(max_live, live);
  }
  prog.max_live_scalars_ = max_live;
  return prog;
}

}  // namespace dfg::kernels
