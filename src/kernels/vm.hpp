// Kernel layer: bytecode virtual machine.
//
// Executes a Program for a contiguous range of global ids, reading buffer
// parameters through BufferBinding views and writing the output buffer.
// This is the "device" compute engine behind CommandQueue::launch: the
// strategies build a KernelLaunch whose body calls run() on a chunk.
//
// run() interprets the program *tile-wise*: each instruction processes a
// contiguous tile of up to kTileSize work-items before the next instruction
// dispatches, with registers held as per-tile column arrays. Opcode bodies
// become tight branch-free loops the compiler auto-vectorizes, so the
// per-instruction dispatch cost is amortized over the whole tile instead of
// being paid per element. run_scalar() preserves the original
// element-at-a-time interpreter as the differential baseline; both produce
// bit-identical results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "kernels/program.hpp"

namespace dfg::kernels {

/// Work-items interpreted per instruction dispatch by the tiled VM. Also the
/// default parallel_for grain (support::kDefaultGrain mirrors this value so
/// a tile is never split across two workers).
inline constexpr std::size_t kTileSize = 1024;

/// A read-only view of one bound buffer argument.
struct BufferBinding {
  const float* data = nullptr;
  std::size_t elements = 0;  ///< total floats in the buffer
};

/// Executes `program` for global ids [begin, end) with the tiled
/// interpreter.
///
/// * inputs must match program.params() in count; a `is_vec` parameter must
///   hold 4 floats per element.
/// * out must hold program.out_stride() floats per element over the full
///   NDRange (it is indexed with absolute global ids).
/// * Bounds and binding-shape violations throw KernelError; the grad3d
///   opcode additionally validates the dims/coordinate buffers once per
///   call.
void run(const Program& program, std::span<const BufferBinding> inputs,
         float* out, std::size_t out_elements, std::size_t begin,
         std::size_t end);

/// Executes `program` element-at-a-time: the full instruction sequence is
/// dispatched for one global id before moving to the next. Identical
/// semantics and bit-identical output to run(); kept as the differential
/// reference and as the interpreter-baseline stage of bench_vm_throughput.
void run_scalar(const Program& program, std::span<const BufferBinding> inputs,
                float* out, std::size_t out_elements, std::size_t begin,
                std::size_t end);

/// Convenience wrapper executing the whole NDRange serially (used by tests).
void run_all(const Program& program, std::span<const BufferBinding> inputs,
             std::span<float> out, std::size_t ndrange);

/// The launch-argument validation both interpreters perform before
/// executing (argument counts, buffer extents, grad3d dims/coordinate
/// shape), without running anything. Throws KernelError exactly when
/// run()/run_scalar() would; the jit backend calls this so a compiled
/// kernel rejects malformed launches identically to the VM.
void validate_launch(const Program& program,
                     std::span<const BufferBinding> inputs,
                     std::size_t out_elements, std::size_t begin,
                     std::size_t end);

/// Exact backward lane-liveness over `code` (registers below `num_regs`),
/// one 4-bit mask per instruction: bit l set when some later consumer can
/// observe lane l of the value the instruction defines (stores carry 0xF).
/// Exact for coalesced register-reusing code and for SSA code, where a
/// register's observed lanes are the mask of its one definition. Shared by
/// the tiled VM (skips dead lanes), the C code generator (emits live lanes
/// only) and the optimizer (a constant fold may only change unobserved
/// lanes).
std::vector<std::uint8_t> live_lane_masks(std::span<const Instr> code,
                                          std::uint16_t num_regs);

/// Executes one register-only instruction (load_const, a lane-wise or
/// comparison opcode, component, select or pack) on the register file
/// `regs`, writing regs[in.dst], with the opcode bodies run() and
/// run_scalar share: run_scalar runs the same step per element, and the
/// optimizer's constant folder runs it on the registers whose value it
/// knows. Other opcodes throw KernelError.
void eval_register_op(const Instr& in, Vec4* regs);

}  // namespace dfg::kernels
