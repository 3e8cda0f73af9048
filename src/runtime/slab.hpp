// Runtime layer: slab decomposition of fused kernels.
//
// The plan behind the streamed strategy, the paper's first future-work
// item (streaming on one device); its walk (walk_streamed in walk.hpp)
// executes the chunks and the planner prices them. A fused kernel is run
// over a contiguous range of z-planes: each buffer parameter uploads only
// its slab sub-range (plus halo planes when the kernel contains gradients,
// whose stencil reaches one plane up and down), the kernel executes over
// the slab, and only the interior planes of the result are kept. The
// gradient's `dims` argument is rewritten per slab so the stencil
// arithmetic sees the local plane count.
//
// Correctness at chunk boundaries: interior planes always have both
// stencil neighbours inside the slab, so their results are bit-identical
// to a whole-grid run; the halo planes' own outputs (which would use
// one-sided differences at slab edges) are discarded.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "kernels/program.hpp"
#include "runtime/bindings.hpp"

namespace dfg::runtime {

/// How a fused program's NDRange decomposes into planes.
struct SlabPlan {
  /// Cells per plane: nx*ny for gradient kernels, 1 for pure elementwise
  /// programs (which may chunk at any element granularity).
  std::size_t plane_cells = 1;
  /// Total planes: nz, or the element count for elementwise programs.
  std::size_t total_planes = 0;
  /// Halo planes required on each side of a slab (1 with gradients).
  std::size_t halo = 0;
  /// Grid dims (meaningful when halo > 0).
  std::size_t nx = 0, ny = 0, nz = 0;
  /// Number of problem-sized buffer parameters (excludes dims).
  std::size_t slabbed_params = 0;

  std::size_t total_elements() const { return plane_cells * total_planes; }
};

/// Analyses a fused program against the bindings: detects gradient usage
/// (via its dims argument), validates the grid shape, and returns the plane
/// decomposition. Throws NetworkError when a gradient program's dims
/// binding is missing or inconsistent with `elements`.
SlabPlan make_slab_plan(const kernels::Program& program,
                        const FieldBindings& bindings, std::size_t elements);

/// Interior planes per chunk for a slab working set of `budget_cells`
/// cells: the planes that fit, minus the halo planes on each side, clamped
/// to [1, total_planes]. A budget of 0 (or under one plane) yields one
/// plane. The streamed strategy sizes its chunks with this, and the planner
/// prices the same chunking.
std::size_t chunk_planes_for(const SlabPlan& plan, std::size_t budget_cells);

/// One buffer parameter of a program resolved for slab execution: the
/// bound host view and event label (name lookups done once per program,
/// not once per slab) and whether the slot carries a grad3d `dims`
/// argument, which is rewritten per slab rather than slabbed.
struct SlabParam {
  std::string name;
  std::string label;  ///< name + "@slab"
  bool is_dims = false;
  std::span<const float> view;  ///< empty for dims slots
};

/// Resolves every parameter of `program` against `bindings` exactly once
/// (the string-keyed lookups that used to run per slab). Throws
/// NetworkError on unbound fields.
std::vector<SlabParam> resolve_slab_params(const kernels::Program& program,
                                           const FieldBindings& bindings);

}  // namespace dfg::runtime
