// Kernel layer: programs and the program builder.
//
// A Program is one virtual OpenCL kernel: a buffer-parameter signature, a
// bytecode body, and the metadata the virtual compute layer's cost model
// needs (per-element flops, per-element global traffic, peak live scalar
// registers). Programs are produced either as *standalone* kernels — one
// per derived-field primitive, used by the roundtrip and staged strategies —
// or as a single *fused* kernel assembled by the KernelGenerator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kernels/bytecode.hpp"

namespace dfg::kernels {

/// One __global buffer parameter of a kernel.
struct BufferParam {
  std::string name;
  /// True when the buffer packs one float4 per element (vector-valued
  /// intermediates such as a staged gradient result).
  bool is_vec = false;
};

struct OptimizerStats;

class Program {
 public:
  Program() = default;

  /// Validates a complete instruction sequence (its store included) and
  /// computes the cost metadata — the shared back half of
  /// ProgramBuilder::finish, also used by the bytecode optimizer to rebuild
  /// programs after rewriting. The code must be in SSA form (each register
  /// defined at most once) for the register-pressure scan to be exact.
  static Program assemble(std::string name, std::vector<Instr> code,
                          std::vector<BufferParam> params,
                          std::uint16_t num_regs, int out_components);

  const std::string& name() const { return name_; }
  const std::vector<Instr>& code() const { return code_; }
  const std::vector<BufferParam>& params() const { return params_; }
  std::uint16_t register_count() const { return num_regs_; }
  /// Peak number of simultaneously live *scalar* registers (a float4
  /// register counts as 4). Compared against DeviceSpec::register_budget.
  int max_live_scalar_registers() const { return max_live_scalars_; }
  /// Components of the output value per element: 1 (scalar) or 3 (vector,
  /// stored as a packed float4).
  int out_components() const { return out_components_; }
  /// Floats written to the output buffer per element (1 or 4).
  std::size_t out_stride() const { return out_components_ == 1 ? 1 : 4; }

  std::uint64_t flops_per_item() const { return flops_per_item_; }
  std::uint64_t global_bytes_per_item() const { return global_bytes_per_item_; }

  /// Content fingerprint of the executable semantics: an FNV-1a hash over
  /// the instruction sequence (opcodes, registers, immediate bits), the
  /// parameter shapes (count and is_vec flags — names excluded, buffers
  /// bind positionally) and the output shape. Programs a code generator
  /// emits identically share it, but so can different programs: the jit
  /// module cache looks up by it and then compares those fields, so
  /// identical programs reuse one compiled object regardless of how their
  /// buffers are named. Computed once at assemble().
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  friend class ProgramBuilder;
  /// The optimizer's register coalescing renames registers in place while
  /// keeping the SSA-computed metadata (the liveness scan above is only
  /// exact on SSA code, so it runs before renaming).
  friend Program optimize_program(const Program& program,
                                  OptimizerStats* stats);

  std::string name_;
  std::vector<Instr> code_;
  std::vector<BufferParam> params_;
  std::uint16_t num_regs_ = 0;
  int max_live_scalars_ = 0;
  int out_components_ = 1;
  std::uint64_t flops_per_item_ = 0;
  std::uint64_t global_bytes_per_item_ = 0;
  std::uint64_t fingerprint_ = 0;
};

/// Incrementally assembles a Program. Registers are SSA-like: each emit_*
/// returns a fresh register id. finish() appends the store, validates the
/// body and computes the cost metadata (including a last-use liveness scan
/// for the register-pressure figure).
class ProgramBuilder {
 public:
  explicit ProgramBuilder(std::string name);

  /// Declares a __global buffer parameter; returns its slot index.
  std::uint16_t add_param(const std::string& name, bool is_vec = false);

  std::uint16_t emit_load_global(std::uint16_t param_slot);
  std::uint16_t emit_load_global_vec(std::uint16_t param_slot);
  std::uint16_t emit_load_const(float value);
  std::uint16_t emit_binary(Op op, std::uint16_t a, std::uint16_t b);
  std::uint16_t emit_unary(Op op, std::uint16_t a);
  std::uint16_t emit_component(std::uint16_t a, int component);
  std::uint16_t emit_select(std::uint16_t cond, std::uint16_t then_value,
                            std::uint16_t else_value);
  /// Packs three scalar registers into one vector register (lanes s0..s2,
  /// s3 zeroed).
  std::uint16_t emit_pack(std::uint16_t a, std::uint16_t b, std::uint16_t c);
  /// args: field, dims, x, y, z parameter slots.
  std::uint16_t emit_grad3d(std::uint16_t field_slot, std::uint16_t dims_slot,
                            std::uint16_t x_slot, std::uint16_t y_slot,
                            std::uint16_t z_slot);

  /// Seals the program, storing result_reg with the given component count.
  Program finish(std::uint16_t result_reg, int out_components);

 private:
  std::uint16_t fresh_reg();

  std::string name_;
  std::vector<Instr> code_;
  std::vector<BufferParam> params_;
  std::uint16_t next_reg_ = 0;
};

}  // namespace dfg::kernels
