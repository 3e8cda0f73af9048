// Kernel layer: kernel source rendering.
//
// The paper's framework generates real OpenCL C at runtime. One emitter
// renders a bytecode Program in two dialects, walking it once by its lane
// liveness (live_lane_masks) with one statement per lane: the OpenCL C
// view for documentation, diagnostics, tests and the Engine's report (the
// analogue of the paper's optional script dump), and the C translation
// unit the jit backend compiles.
#pragma once

#include <string>

#include "kernels/program.hpp"

namespace dfg::kernels {

/// The OpenCL C dialect: the grad3d primitive's device function when the
/// kernel takes a gradient, then the __kernel function, whose float4
/// registers are written lane by lane (`r3.s0 = ...`). It shows every
/// instruction: its live lanes, and a dead value at lane 0.
std::string to_opencl_source(const Program& program);

/// Name of the entry point to_c_source exports.
inline constexpr const char* kJitEntryName = "dfgen_kernel";

/// The C dialect: a self-contained translation unit for the jit backend.
/// Tile-loop outer structure (kernels::kTileSize), grad3d hoisted to
/// per-tile SoA column arrays filled by the VM's row-wise spans, and every
/// remaining instruction fused into one per-element loop over scalar
/// locals (`r3_0`, live lanes only). Exported entry point:
///
///   void dfgen_kernel(const float* const* bufs, float* out,
///                     size_t begin, size_t end);
///
/// `bufs` holds one pointer per buffer parameter, in slot order; `out` is
/// indexed with absolute global ids times out_stride(). Arithmetic is
/// operand-for-operand what the interpreters perform (same libm entry
/// points, same evaluation order, same boundary peeling), so the compiled
/// object is bit-identical to run()/run_scalar() — the fuzzer enforces
/// this across backends.
std::string to_c_source(const Program& program);

}  // namespace dfg::kernels
