// Runtime layer: slab execution of fused kernels.
//
// The machinery behind the streamed strategy, the paper's first
// future-work item (streaming on one device). A fused kernel is run over a
// contiguous range of z-planes: each buffer parameter uploads only its
// slab sub-range (plus halo planes when the kernel contains gradients,
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

#include "kernels/program.hpp"
#include "runtime/bindings.hpp"
#include "vcl/device.hpp"
#include "vcl/profiling.hpp"

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
/// plane. The streamed strategy executes this chunking and the planner
/// prices it.
std::size_t chunk_planes_for(const SlabPlan& plan, std::size_t budget_cells);

/// The planes one chunk's slab spans: the chunk's planes plus `plan.halo`
/// planes on each side, clamped at the domain faces.
struct SlabBounds {
  std::size_t lo = 0;
  std::size_t hi = 0;

  std::size_t planes() const { return hi - lo; }
};

/// The slab of the chunk [begin_plane, end_plane). run_fused_slab
/// executes it and the planner prices it.
SlabBounds slab_bounds(const SlabPlan& plan, std::size_t begin_plane,
                       std::size_t end_plane);

/// One buffer parameter of a program resolved for slab execution: the
/// bound host view (name lookups done once per program, not once per slab)
/// and whether the slot carries a grad3d `dims` argument, which is
/// rewritten per slab rather than slabbed.
struct SlabParam {
  std::string name;
  bool is_dims = false;
  std::span<const float> view;  ///< empty for dims slots
};

/// Resolves every parameter of `program` against `bindings` exactly once
/// (the string-keyed lookups that used to run per slab). Throws
/// NetworkError on unbound fields.
std::vector<SlabParam> resolve_slab_params(const kernels::Program& program,
                                           const FieldBindings& bindings);

/// Executes `program` over planes [begin_plane, end_plane), uploading slab
/// sub-ranges of every parameter, dispatching one kernel, and copying the
/// interior result into out_global (a full-size array indexed by global
/// cell id). All traffic is profiled against `log`; allocations count
/// against `device` and are released before returning. `params` must come
/// from resolve_slab_params on the same program.
void run_fused_slab(const kernels::Program& program,
                    std::span<const SlabParam> params, const SlabPlan& plan,
                    std::size_t begin_plane, std::size_t end_plane,
                    vcl::Device& device, vcl::ProfilingLog& log,
                    std::span<float> out_global);

}  // namespace dfg::runtime
