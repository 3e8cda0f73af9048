// Kernel layer: bytecode optimizer.
//
// A small pass pipeline run over fused programs before execution, standing
// in for the optimisations an OpenCL driver JIT applies to the paper's
// generated source:
//   * constant folding (source-level constants combine at generation time),
//   * common-subexpression elimination (exact structural matches only —
//     operands are never commuted, so NaN-payload propagation is preserved),
//   * select copy propagation when the condition is a known constant,
//   * dead-code elimination (stores and grad3d instructions are roots:
//     grad3d anchors slab planning and buffer validation, so even an unused
//     gradient keeps its instruction),
//   * register coalescing via linear scan, shrinking register_count() so
//     the tiled VM touches a smaller workspace.
//
// Every transform is bit-exact: a folded value is computed by
// eval_register_op, which runs the opcode bodies both VM loop shapes share,
// and a fold is only allowed to replace an instruction when no consumer
// observes a lane the replacement would change (live_lane_masks, the VM's
// lane liveness, read on SSA code).
#pragma once

#include <cstddef>

#include "kernels/generator.hpp"
#include "kernels/program.hpp"

namespace dfg::kernels {

/// Counters describing what optimize_program did (for logs and tests).
struct OptimizerStats {
  std::size_t folded_constants = 0;   ///< instructions replaced by load_const
  std::size_t eliminated_common = 0;  ///< CSE-merged instructions
  std::size_t removed_dead = 0;       ///< instructions dropped by DCE
  std::size_t propagated_copies = 0;  ///< selects resolved at compile time
  int registers_before = 0;
  int registers_after = 0;
};

/// Returns an optimized, semantically bit-identical copy of `program`.
/// Cost metadata (flops/bytes per item, max live registers) is recomputed
/// from the optimized instruction sequence. The parameter list is preserved
/// verbatim so buffer accounting and kernel signatures do not change.
Program optimize_program(const Program& program,
                         OptimizerStats* stats = nullptr);

/// Optimizes every stage of a fused pipeline in place.
FusedPipeline optimize_pipeline(FusedPipeline pipeline);

}  // namespace dfg::kernels
