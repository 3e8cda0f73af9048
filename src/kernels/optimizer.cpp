#include "kernels/optimizer.hpp"

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "kernels/vm.hpp"

namespace dfg::kernels {

namespace {

constexpr std::uint16_t kNoReg = UINT16_MAX;

using CseKey = std::tuple<std::uint8_t, std::uint16_t, std::uint16_t,
                          std::uint16_t, std::uint16_t, std::uint16_t,
                          std::uint32_t>;

CseKey cse_key(const Instr& in) {
  return {static_cast<std::uint8_t>(in.op), in.args[0], in.args[1],
          in.args[2],  in.args[3],          in.args[4],
          std::bit_cast<std::uint32_t>(in.imm)};
}

/// Forward rewrite: constant folding, select copy propagation and CSE.
/// The CSE map is keyed on instructions *as emitted* — if a definition was
/// replaced by load_const, later structurally identical expressions do not
/// merge with it unless their own observed lanes justify the same fold, so
/// merged registers always hold bit-identical values on every lane.
bool forward_pass(std::vector<Instr>& code, std::uint16_t num_regs,
                  OptimizerStats* stats) {
  // The code is SSA, so a register's observed lanes are the live-lane mask
  // of its one definition.
  const std::vector<std::uint8_t> masks = live_lane_masks(code, num_regs);
  std::vector<std::uint8_t> observed(num_regs, 0);
  for (std::size_t idx = 0; idx < code.size(); ++idx) {
    const Instr& in = code[idx];
    if (op_defines_register(in.op)) observed[in.dst] = masks[idx];
  }
  // values[r] is meaningful where known[r]: the value every element holds.
  std::vector<Vec4> values(num_regs);
  std::vector<char> known(num_regs, 0);
  std::vector<std::uint16_t> alias(num_regs);
  for (std::uint16_t r = 0; r < num_regs; ++r) alias[r] = r;
  std::map<CseKey, std::uint16_t> seen;

  std::vector<Instr> out;
  out.reserve(code.size());
  bool changed = false;
  for (const Instr& original : code) {
    Instr in = original;
    const int nops = instr_register_operands(in);
    bool operands_known = true;
    for (int k = 0; k < nops; ++k) {
      std::uint16_t& arg = in.args[static_cast<std::size_t>(k)];
      arg = alias[arg];
      operands_known = operands_known && known[arg];
    }

    // Select with a compile-time condition: forward the chosen branch (the
    // VM copies all four lanes of it, so aliasing is exact).
    if (in.op == Op::select && known[in.args[0]]) {
      const std::uint16_t chosen =
          values[in.args[0]][0] != 0.0f ? in.args[1] : in.args[2];
      alias[in.dst] = chosen;
      ++stats->propagated_copies;
      changed = true;
      continue;
    }

    // Instructions that read only registers fold when every operand is
    // known, through the interpreter's own scalar semantics.
    const OpForm form = op_info(in.op).form;
    const bool foldable = operands_known && op_defines_register(in.op) &&
                          form != OpForm::read && form != OpForm::read_vec;
    if (foldable) eval_register_op(in, values.data());
    if (foldable && in.op != Op::load_const) {
      Vec4& value = values[in.dst];
      // Replacing with load_const zeroes lanes 1..3; only legal when no
      // observed lane's bit pattern changes (+0.0 exactly — a NaN or -0.0
      // in an observed lane blocks the fold).
      bool replace = true;
      for (int lane = 1; lane < 4; ++lane) {
        if ((observed[in.dst] & (1u << lane)) != 0 &&
            std::bit_cast<std::uint32_t>(value[lane]) != 0) {
          replace = false;
          break;
        }
      }
      if (replace) {
        in = Instr{Op::load_const, in.dst, {}, value[0]};
        value = Vec4{{value[0], 0.0f, 0.0f, 0.0f}};
        ++stats->folded_constants;
        changed = true;
      }
    }

    if (op_defines_register(in.op)) {
      const auto it = seen.find(cse_key(in));
      if (it != seen.end()) {
        // Identical emitted instruction => bit-identical value on every
        // lane; forward every use to the earlier register.
        alias[in.dst] = it->second;
        ++stats->eliminated_common;
        changed = true;
        continue;
      }
      seen.emplace(cse_key(in), in.dst);
      known[in.dst] = foldable;
    }
    out.push_back(in);
  }
  code = std::move(out);
  return changed;
}

/// Backward dead-code elimination. Roots: stores (the program output) and
/// grad3d (its buffer validation and dims slots anchor slab planning, so an
/// unused gradient keeps executing — matching how the other strategies run
/// dead statements).
bool dce(std::vector<Instr>& code, std::uint16_t num_regs,
         OptimizerStats* stats) {
  std::vector<char> live(num_regs, 0);
  std::vector<char> keep(code.size(), 0);
  for (std::size_t idx = code.size(); idx-- > 0;) {
    const Instr& in = code[idx];
    const bool root = in.op == Op::store || in.op == Op::store_vec ||
                      in.op == Op::grad3d;
    if (!root && !(op_defines_register(in.op) && live[in.dst])) continue;
    keep[idx] = 1;
    const int nops = instr_register_operands(in);
    for (int k = 0; k < nops; ++k) {
      live[in.args[static_cast<std::size_t>(k)]] = 1;
    }
  }
  std::vector<Instr> out;
  out.reserve(code.size());
  for (std::size_t idx = 0; idx < code.size(); ++idx) {
    if (keep[idx]) out.push_back(code[idx]);
  }
  const bool changed = out.size() != code.size();
  stats->removed_dead += code.size() - out.size();
  code = std::move(out);
  return changed;
}

/// Linear-scan register coalescing over SSA intervals. An operand whose
/// live range ends at an instruction frees its physical register *before*
/// the destination allocates, so dst may reuse an operand's register — the
/// tiled VM's opcode bodies are written to tolerate exactly that aliasing.
std::vector<Instr> coalesce(const std::vector<Instr>& code,
                            std::uint16_t num_regs,
                            std::uint16_t* out_num_regs) {
  std::vector<int> last_use(num_regs, -1);
  for (std::size_t idx = 0; idx < code.size(); ++idx) {
    const Instr& in = code[idx];
    const int nops = instr_register_operands(in);
    for (int k = 0; k < nops; ++k) {
      last_use[in.args[static_cast<std::size_t>(k)]] = static_cast<int>(idx);
    }
    if (op_defines_register(in.op) && last_use[in.dst] < static_cast<int>(idx)) {
      last_use[in.dst] = static_cast<int>(idx);
    }
  }

  std::vector<std::uint16_t> phys(num_regs, kNoReg);
  std::set<std::uint16_t> free_regs;
  std::uint16_t next_phys = 0;
  std::vector<Instr> out = code;
  for (std::size_t idx = 0; idx < out.size(); ++idx) {
    Instr& in = out[idx];
    const int nops = instr_register_operands(in);
    std::array<std::uint16_t, 5> orig{};
    for (int k = 0; k < nops; ++k) {
      orig[static_cast<std::size_t>(k)] = in.args[static_cast<std::size_t>(k)];
      in.args[static_cast<std::size_t>(k)] =
          phys[orig[static_cast<std::size_t>(k)]];
    }
    for (int k = 0; k < nops; ++k) {
      const std::uint16_t r = orig[static_cast<std::size_t>(k)];
      if (last_use[r] == static_cast<int>(idx)) {
        free_regs.insert(phys[r]);
      }
    }
    if (op_defines_register(in.op)) {
      const std::uint16_t ssa_dst = in.dst;
      std::uint16_t p;
      if (!free_regs.empty()) {
        p = *free_regs.begin();
        free_regs.erase(free_regs.begin());
      } else {
        p = next_phys++;
      }
      phys[ssa_dst] = p;
      in.dst = p;
      if (last_use[ssa_dst] == static_cast<int>(idx)) {
        // Defined but never read (e.g. a dead grad3d kept for its side
        // effects): release immediately.
        free_regs.insert(p);
      }
    }
  }
  *out_num_regs = next_phys;
  return out;
}

}  // namespace

Program optimize_program(const Program& program, OptimizerStats* stats) {
  OptimizerStats local;
  local.registers_before = program.register_count();

  std::vector<Instr> code = program.code();
  const std::uint16_t num_regs = program.register_count();
  bool changed = true;
  for (int round = 0; round < 4 && changed; ++round) {
    changed = false;
    if (forward_pass(code, num_regs, &local)) changed = true;
    if (dce(code, num_regs, &local)) changed = true;
  }

  // Metadata (flops/bytes per item, the register-pressure scan) is computed
  // on the SSA form — the liveness scan assumes single definitions — then
  // the coalesced code and its smaller register file are swapped in.
  Program result =
      Program::assemble(program.name(), code, program.params(), num_regs,
                        program.out_components());
  std::uint16_t packed_regs = 0;
  std::vector<Instr> packed = coalesce(code, num_regs, &packed_regs);
  result.code_ = std::move(packed);
  result.num_regs_ = packed_regs;

  local.registers_after = packed_regs;
  if (stats != nullptr) *stats = local;
  return result;
}

FusedPipeline optimize_pipeline(FusedPipeline pipeline) {
  for (FusedPipeline::Stage& stage : pipeline.stages) {
    stage.program = optimize_program(stage.program);
  }
  return pipeline;
}

}  // namespace dfg::kernels
