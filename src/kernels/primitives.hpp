// Kernel layer: the derived-field primitive library.
//
// The paper's building blocks are "small OpenCL source functions that are
// written once and shared by all execution strategies", each with "minimal
// metadata to describe global memory requirements and the return type".
// This registry is that library: every dataflow filter kind is described by
// a PrimitiveInfo (arity, component shape, flop cost, and the OpenCL-C
// device-function source kept for documentation and the source printer),
// and make_standalone_program() materialises the one-primitive kernel used
// by the roundtrip and staged strategies. The fusion strategy emits the
// same primitives inline via the KernelGenerator — the primitive
// definitions themselves are strategy-independent, as in the paper.
#pragma once

#include <cstdint>
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

/// True for the six comparison kinds ("cmp_gt", ...).
bool is_comparison(const std::string& name);

/// Bytecode opcode implementing a two-input primitive ("add" -> Op::add).
/// Throws KernelError for kinds that are not binary.
Op binary_opcode_for(const std::string& kind);

/// Bytecode opcode implementing a one-input primitive ("sqrt" -> Op::sqrt).
/// Throws KernelError for kinds that are not unary.
Op unary_opcode_for(const std::string& kind);

/// Builds the standalone one-primitive kernel for the staged/roundtrip
/// strategies. `component` selects the lane for "decompose"; `value` is the
/// immediate for "const_fill". Unknown kinds throw KernelError.
Program make_standalone_program(const std::string& kind, int component = 0,
                                float value = 0.0f);

}  // namespace dfg::kernels
