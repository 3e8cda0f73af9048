// Kernel layer: the derived-field primitive library.
//
// The paper's building blocks are "small OpenCL source functions that are
// written once and shared by all execution strategies", each with "minimal
// metadata to describe global memory requirements and the return type".
// This registry is that library: every dataflow filter kind is described by
// a PrimitiveInfo (arity, component shape, flop cost, and the OpenCL-C
// device-function source kept for documentation and the source printer),
// and emit_primitive() is the one lowering from a filter kind to its
// bytecode instruction. make_standalone_program() loads a primitive's
// parameters and calls it to build the one-primitive kernel of the
// roundtrip and staged strategies; the fusion generator splices the same
// lowering inline on registers it already holds — the primitive
// definitions themselves are strategy-independent, as in the paper.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "kernels/program.hpp"

namespace dfg::kernels {

struct PrimitiveInfo {
  /// Dataflow filter kind ("add", "grad3d", "decompose", ...).
  std::string name;
  /// Number of dataflow inputs (0 for const_fill).
  int arity = 0;
  /// Components of the result per element: 1 scalar, 3 vector.
  int result_components = 1;
  /// Required components of each input (1 or 3); empty entries default to 1.
  std::vector<int> input_components;
  /// The OpenCL-C device function implementing the primitive, written once.
  /// to_opencl_source embeds grad3d's in the kernels that take a gradient;
  /// the other primitives print as operators and built-ins.
  std::string ocl_source;
};

/// All registered primitives, in a stable order.
const std::vector<PrimitiveInfo>& all_primitives();

/// Looks up a primitive by dataflow kind; nullptr when unknown.
const PrimitiveInfo* find_primitive(const std::string& name);

/// Bytecode opcode implementing a two-input primitive ("add" -> Op::add).
/// Throws KernelError for kinds that are not binary.
Op binary_opcode_for(const std::string& kind);

/// Bytecode opcode implementing a one-input primitive ("sqrt" -> Op::sqrt).
/// Throws KernelError for kinds that are not unary.
Op unary_opcode_for(const std::string& kind);

/// The one lowering from filter kind to bytecode: emits the instruction
/// implementing `kind` on operand registers `in` (buffer slots field, dims,
/// x, y, z for "grad3d") and returns its destination register. `component`
/// selects the lane for "decompose". Both the standalone kernels and the
/// fusion generator emit every filter through it. Throws KernelError for
/// an unknown kind, "const_fill", or an operand count that is not the
/// kind's arity.
std::uint16_t emit_primitive(ProgramBuilder& b, const std::string& kind,
                             std::span<const std::uint16_t> in,
                             int component = 0);

/// Builds the standalone one-primitive kernel for the staged/roundtrip
/// strategies. `component` selects the lane for "decompose"; `value` is the
/// immediate for "const_fill". Unknown kinds throw KernelError.
Program make_standalone_program(const std::string& kind, int component = 0,
                                float value = 0.0f);

}  // namespace dfg::kernels
