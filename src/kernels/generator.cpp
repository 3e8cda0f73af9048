#include "kernels/generator.hpp"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "kernels/optimizer.hpp"
#include "kernels/primitives.hpp"
#include "kernels/rewrites.hpp"
#include "support/error.hpp"

namespace dfg::kernels {

std::set<int> materialization_barriers(const dataflow::Network& network) {
  std::set<int> barriers;
  for (const dataflow::SpecNode& node : network.spec().nodes()) {
    if (node.kind != "grad3d") continue;
    const auto& field_input = network.spec().node(node.inputs[0]);
    if (field_input.type != dataflow::NodeType::field_source) {
      barriers.insert(field_input.id);
    }
  }
  return barriers;
}

namespace {

constexpr std::uint16_t kNoReg = UINT16_MAX;

/// Emits one fused program computing `target` from field sources and
/// previously materialised values (every barrier node except the target
/// itself becomes a __global buffer parameter).
class FusionEmitter {
 public:
  FusionEmitter(const dataflow::Network& network, std::string name,
                const std::set<int>& materialized, int target)
      : network_(network),
        builder_(std::move(name)),
        materialized_(materialized),
        target_(target) {}

  /// Emits exactly the subgraph `target_` depends on (used for
  /// materialisation stages, which must not duplicate unrelated work).
  Program run() {
    value_regs_.assign(network_.spec().nodes().size(), kNoReg);
    const std::uint16_t out_reg = reg_of(target_);
    return builder_.finish(out_reg,
                           network_.spec().node(target_).components);
  }

  /// Emits every network node (like the other strategies, which execute
  /// dead statements too), then stores the target. Keeps the fused
  /// kernel's parameter list — and therefore the Dev-W accounting —
  /// identical to roundtrip/staged on networks with unreachable
  /// statements; the explicit prune_unreachable option is the one way to
  /// drop dead code.
  /// `skip` lists nodes earlier pipeline stages already compute (their
  /// subgraphs); shared values the output still needs are pulled in by
  /// recursion through the materialised parameters.
  Program run_whole_network(const std::set<int>& skip = {}) {
    value_regs_.assign(network_.spec().nodes().size(), kNoReg);
    for (const int id : network_.topo_order()) {
      const dataflow::SpecNode& node = network_.spec().node(id);
      // Field sources stay lazy: a field consumed only by grad3d is a
      // buffer parameter, never a register load.
      if (node.type == dataflow::NodeType::field_source) continue;
      if (skip.count(id) != 0 && materialized_.count(id) == 0) continue;
      reg_of(id);
    }
    const std::uint16_t out_reg = reg_of(target_);
    return builder_.finish(out_reg,
                           network_.spec().node(target_).components);
  }

 private:
  bool is_buffer_input(int node_id) const {
    const auto& node = network_.spec().node(node_id);
    return node.type == dataflow::NodeType::field_source ||
           (materialized_.count(node_id) != 0 && node_id != target_);
  }

  /// Buffer slot for a field source or a materialised predecessor,
  /// created on first use.
  std::uint16_t param_slot(int node_id) {
    const auto& node = network_.spec().node(node_id);
    std::string name;
    if (node.type == dataflow::NodeType::field_source) {
      name = node.field_name;
    } else if (materialized_.count(node_id) != 0 && node_id != target_) {
      name = materialized_param_name(node_id);
    } else {
      throw KernelError(
          "fused kernel cannot take '" + node.label +
          "' as a buffer parameter: gradients of computed values require "
          "the partitioned fusion pipeline (generate_fused_pipeline); the "
          "streamed strategy does not support them");
    }
    const auto it = param_slots_.find(name);
    if (it != param_slots_.end()) return it->second;
    const std::uint16_t slot = builder_.add_param(name);
    param_slots_[name] = slot;
    return slot;
  }

  /// Register holding a node's value, computing it on demand.
  std::uint16_t reg_of(int node_id) {
    std::uint16_t cached = value_regs_[node_id];
    if (cached != kNoReg) return cached;

    const dataflow::SpecNode& node = network_.spec().node(node_id);
    std::uint16_t reg = kNoReg;
    if (is_buffer_input(node_id)) {
      // Buffer-backed scalars load from global memory exactly once.
      reg = builder_.emit_load_global(param_slot(node_id));
    } else if (node.type == dataflow::NodeType::constant) {
      // Source-code-level constant insertion: an immediate, not a buffer.
      reg = builder_.emit_load_const(static_cast<float>(node.const_value));
    } else {
      reg = emit_filter(node);
    }
    value_regs_[node_id] = reg;
    return reg;
  }

  std::uint16_t emit_filter(const dataflow::SpecNode& node) {
    const std::string& kind = node.kind;
    if (kind == "grad3d") {
      // Bind parameters in argument order (function-argument evaluation
      // order is unspecified, and the parameter list is user-visible).
      // The field operand may be a field source or a materialised value;
      // either way the stencil reads its buffer directly.
      const std::uint16_t field = param_slot(node.inputs[0]);
      const std::uint16_t dims = param_slot(node.inputs[1]);
      const std::uint16_t x = param_slot(node.inputs[2]);
      const std::uint16_t y = param_slot(node.inputs[3]);
      const std::uint16_t z = param_slot(node.inputs[4]);
      return builder_.emit_grad3d(field, dims, x, y, z);
    }
    if (kind == "decompose") {
      return builder_.emit_component(reg_of(node.inputs[0]), node.component);
    }
    if (kind == "select") {
      const std::uint16_t cond = reg_of(node.inputs[0]);
      const std::uint16_t then_value = reg_of(node.inputs[1]);
      const std::uint16_t else_value = reg_of(node.inputs[2]);
      return builder_.emit_select(cond, then_value, else_value);
    }
    if (kind == "pack3") {
      const std::uint16_t a = reg_of(node.inputs[0]);
      const std::uint16_t b = reg_of(node.inputs[1]);
      const std::uint16_t c = reg_of(node.inputs[2]);
      return builder_.emit_pack(a, b, c);
    }
    const PrimitiveInfo* info = find_primitive(kind);
    if (info != nullptr && info->arity == 1) {
      return builder_.emit_unary(unary_opcode_for(kind),
                                 reg_of(node.inputs[0]));
    }
    if (info != nullptr && info->arity == 2) {
      const std::uint16_t lhs = reg_of(node.inputs[0]);
      const std::uint16_t rhs = reg_of(node.inputs[1]);
      return builder_.emit_binary(binary_opcode_for(kind), lhs, rhs);
    }
    throw KernelError("fusion generator cannot emit filter '" + kind + "'");
  }

  const dataflow::Network& network_;
  ProgramBuilder builder_;
  const std::set<int>& materialized_;
  int target_;
  std::map<std::string, std::uint16_t> param_slots_;
  std::vector<std::uint16_t> value_regs_;
};

}  // namespace

std::string materialized_param_name(int node_id) {
  return std::string(dataflow::kReservedFieldPrefix) +
         std::to_string(node_id);
}

KernelError single_kernel_error(const dataflow::Network& network,
                                int barrier) {
  return KernelError(
      "network takes the gradient of a computed value ('" +
      network.spec().node(barrier).label +
      "'); a single fused kernel cannot stencil registers — use "
      "generate_fused_pipeline (the fusion strategy does this "
      "automatically)");
}

Program generate_fused(const dataflow::Network& network,
                       const std::string& kernel_name) {
  const std::set<int> barriers = materialization_barriers(network);
  if (!barriers.empty()) {
    throw single_kernel_error(network, *barriers.begin());
  }
  FusionEmitter emitter(network, kernel_name, barriers,
                        network.output_id());
  return emitter.run_whole_network();
}

FusedPipeline generate_fused_pipeline(const dataflow::Network& network,
                                      const std::string& kernel_name) {
  // Pre-codegen rewrite pass: algebraic, bit-exact simplifications on the
  // network itself, shared by every backend the generated programs later
  // run under. Node ids are preserved, so stage resolution and
  // materialised-parameter naming downstream are unaffected; the recursion
  // terminates because a rewritten spec rewrites to zero further edge
  // moves.
  NetworkRewriteStats rewrites;
  dataflow::NetworkSpec rewritten = rewrite_network(network.spec(), &rewrites);
  if (rewrites.total() > 0) {
    return generate_fused_pipeline(dataflow::Network(std::move(rewritten)),
                                   kernel_name);
  }
  const std::set<int> barriers = materialization_barriers(network);
  FusedPipeline pipeline;
  // Materialise barrier values in dependency order (topo order restricted
  // to the barrier set), then the network output — unless the output *is*
  // the last barrier.
  for (const int id : network.topo_order()) {
    if (barriers.count(id) == 0) continue;
    FusionEmitter emitter(
        network, kernel_name + "_m" + std::to_string(id), barriers, id);
    pipeline.stages.push_back(FusedPipeline::Stage{id, emitter.run()});
  }
  bool output_present = false;
  for (const FusedPipeline::Stage& stage : pipeline.stages) {
    if (stage.node_id == network.output_id()) output_present = true;
  }
  if (!output_present) {
    // Nodes the materialisation stages already compute: the barriers'
    // ancestor closures. Everything else — including statements reachable
    // from no output ("dead code", which the other strategies execute
    // too) — belongs to the final stage.
    std::set<int> covered;
    std::vector<int> stack(barriers.begin(), barriers.end());
    while (!stack.empty()) {
      const int id = stack.back();
      stack.pop_back();
      if (!covered.insert(id).second) continue;
      for (const int in : network.spec().node(id).inputs) {
        stack.push_back(in);
      }
    }
    FusionEmitter emitter(network, kernel_name, barriers,
                          network.output_id());
    pipeline.stages.push_back(FusedPipeline::Stage{
        network.output_id(), emitter.run_whole_network(covered)});
  }
  return optimize_pipeline(std::move(pipeline));
}

}  // namespace dfg::kernels
