// Kernel layer: the dynamic kernel generator (kernel fusion).
//
// The core of the paper's *fusion* execution strategy (§III-C3): given a
// dataflow network, construct at runtime a single kernel implementing all
// of its operations, with
//   * per-element function calls for simple primitives,
//   * direct global-memory access for complex primitives (grad3d),
//   * source-code-level insertion of constants (no constant buffers),
//   * OpenCL vector types for multi-value results (grad3d -> float4),
//   * source-level array-decompose lowering (.s0/.s1/.s2 selects).
// Intermediate results live in registers, so the fused kernel touches
// global memory only for external inputs and the single output.
#pragma once

#include <set>
#include <string>

#include "dataflow/network.hpp"
#include "kernels/program.hpp"

namespace dfg::kernels {

/// Network nodes that must be materialised to device buffers: computed
/// values consumed by a gradient's field operand (a stencil cannot read
/// registers). Empty for networks a single fused kernel can execute.
std::set<int> materialization_barriers(const dataflow::Network& network);

/// Generates the fused kernel for a whole network. The program's buffer
/// parameters are the network's field sources, in first-use order, named
/// after the bound host arrays. Throws KernelError when the network
/// gradients a computed value (which cannot live in registers — use
/// generate_fused_pipeline), or on malformed networks (e.g. vector-valued
/// values consumed without decompose; the spec normally prevents these).
Program generate_fused(const dataflow::Network& network,
                       const std::string& kernel_name = "fused_expression");

/// Buffer-parameter name of a materialised intermediate in a partitioned
/// pipeline ("__m<node id>"). Reserved: expression field names cannot
/// start with "__m".
std::string materialized_param_name(int node_id);

/// A partitioned fused execution plan. When the network takes gradients of
/// *computed* values, those values cannot stay in registers: each becomes a
/// materialisation barrier. The pipeline fuses everything between barriers:
/// stage k computes one materialised value (stored to a device buffer named
/// by materialized_param_name), later stages read it back as a __global
/// parameter, and the final stage produces the network output. Networks
/// without such gradients yield a single stage identical to
/// generate_fused.
struct FusedPipeline {
  struct Stage {
    /// The network node this stage materialises; the final stage holds the
    /// network's output node.
    int node_id = -1;
    Program program;
  };
  /// Stages in execution order; the last one computes the network output.
  std::vector<Stage> stages;

  bool partitioned() const { return stages.size() > 1; }
};

/// Generates the (possibly single-stage) fused pipeline for a network.
/// The network is first rewritten (rewrites.hpp) and every stage is then
/// run through the bytecode optimizer (optimizer.hpp) — both bit-exact
/// transformations. generate_fused is left untouched by design: it exposes
/// the raw generator output for inspection and tests.
FusedPipeline generate_fused_pipeline(
    const dataflow::Network& network,
    const std::string& kernel_name = "fused_expression");

}  // namespace dfg::kernels
