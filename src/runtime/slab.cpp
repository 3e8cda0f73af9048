#include "runtime/slab.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "kernels/vm.hpp"
#include "runtime/strategy.hpp"
#include "support/error.hpp"
#include "vcl/buffer.hpp"
#include "vcl/queue.hpp"

namespace dfg::runtime {

namespace {

/// Parameter slots holding the grad3d `dims` argument (3 floats, rewritten
/// per slab rather than slabbed).
std::set<std::uint16_t> dims_slots(const kernels::Program& program) {
  std::set<std::uint16_t> slots;
  for (const kernels::Instr& instr : program.code()) {
    if (instr.op == kernels::Op::grad3d) slots.insert(instr.args[1]);
  }
  return slots;
}

}  // namespace

SlabPlan make_slab_plan(const kernels::Program& program,
                        const FieldBindings& bindings, std::size_t elements) {
  SlabPlan plan;
  const std::set<std::uint16_t> dims = dims_slots(program);
  plan.slabbed_params = program.params().size() - dims.size();
  if (dims.empty()) {
    plan.plane_cells = 1;
    plan.total_planes = elements;
    plan.halo = 0;
    return plan;
  }

  // All grad3d invocations in one network share the same grid; read the
  // shape from the first dims binding.
  const std::string& dims_name =
      program.params()[*dims.begin()].name;
  const auto dims_view = bindings.get(dims_name);
  if (dims_view.size() < 3) {
    throw NetworkError("dims binding '" + dims_name +
                       "' must hold 3 values for streamed execution");
  }
  plan.nx = static_cast<std::size_t>(dims_view[0]);
  plan.ny = static_cast<std::size_t>(dims_view[1]);
  plan.nz = static_cast<std::size_t>(dims_view[2]);
  if (plan.nx * plan.ny * plan.nz != elements) {
    throw NetworkError(
        "streamed execution requires elements == nx*ny*nz; got " +
        std::to_string(elements));
  }
  plan.plane_cells = plan.nx * plan.ny;
  plan.total_planes = plan.nz;
  plan.halo = 1;
  return plan;
}

std::size_t chunk_planes_for(const SlabPlan& plan, std::size_t budget_cells) {
  std::size_t planes =
      budget_cells / std::max<std::size_t>(plan.plane_cells, 1);
  // The slab adds halo planes on each side; keep at least one interior
  // plane per chunk.
  if (planes > 2 * plan.halo) {
    planes -= 2 * plan.halo;
  } else {
    planes = 1;
  }
  return std::min(planes, plan.total_planes);
}

SlabBounds slab_bounds(const SlabPlan& plan, std::size_t begin_plane,
                       std::size_t end_plane) {
  return {begin_plane > plan.halo ? begin_plane - plan.halo : 0,
          std::min(plan.total_planes, end_plane + plan.halo)};
}

std::vector<SlabParam> resolve_slab_params(const kernels::Program& program,
                                           const FieldBindings& bindings) {
  const std::set<std::uint16_t> dims = dims_slots(program);
  std::vector<SlabParam> params;
  params.reserve(program.params().size());
  for (std::size_t slot = 0; slot < program.params().size(); ++slot) {
    SlabParam param;
    param.name = program.params()[slot].name;
    param.is_dims = dims.count(static_cast<std::uint16_t>(slot)) != 0;
    if (!param.is_dims) param.view = bindings.get(param.name);
    params.push_back(std::move(param));
  }
  return params;
}

void run_fused_slab(const kernels::Program& program,
                    std::span<const SlabParam> params, const SlabPlan& plan,
                    std::size_t begin_plane, std::size_t end_plane,
                    vcl::Device& device, vcl::ProfilingLog& log,
                    std::span<float> out_global) {
  if (begin_plane >= end_plane || end_plane > plan.total_planes) {
    throw NetworkError("invalid slab plane range");
  }
  if (out_global.size() < plan.total_elements()) {
    throw NetworkError("slab output array smaller than the global grid");
  }

  const SlabBounds slab = slab_bounds(plan, begin_plane, end_plane);
  const std::size_t slab_cells = slab.planes() * plan.plane_cells;

  vcl::CommandQueue queue(device, log);

  // The per-slab dims array: local plane count, same transverse shape.
  const std::vector<float> local_dims{static_cast<float>(plan.nx),
                                      static_cast<float>(plan.ny),
                                      static_cast<float>(slab.planes())};

  // The handles pin resident sub-range buffers while this chunk's kernel
  // can still read them; they drop at return, so a scan larger than the
  // pool watermark recycles LRU slabs between chunks.
  std::vector<std::shared_ptr<const vcl::Buffer>> inputs;
  std::vector<kernels::BufferBinding> vm_bindings;
  inputs.reserve(params.size());
  vm_bindings.reserve(params.size());
  for (const SlabParam& param : params) {
    if (param.is_dims) {
      // The dims array is a stack temporary rewritten per slab: never
      // pool-eligible.
      inputs.push_back(stage_input(queue, local_dims, param.name + "@slab",
                                   /*poolable=*/false));
    } else {
      const std::size_t offset = slab.lo * plan.plane_cells;
      if (param.view.size() < offset + slab_cells) {
        throw NetworkError("field '" + param.name +
                           "' too small for the requested slab");
      }
      // Sub-range uploads key the pool on the slab pointer but follow the
      // *base* array's generation tag, so mutating the bound field
      // invalidates every one of its slabs.
      inputs.push_back(stage_input(queue,
                                   param.view.subspan(offset, slab_cells),
                                   param.name + "@slab", /*poolable=*/true,
                                   /*generation_key=*/param.view.data()));
    }
    vm_bindings.push_back(binding_of(*inputs.back()));
  }

  vcl::Buffer out_buffer =
      device.allocate(slab_cells * program.out_stride());
  launch_program(queue, program, std::move(vm_bindings),
                 out_buffer.device_view(), slab_cells);

  // Read the whole slab back (one transfer) and keep the interior planes.
  std::vector<float> slab_result(out_buffer.size());
  queue.read(out_buffer, slab_result, program.name() + "@slab");
  const std::size_t interior_offset =
      (begin_plane - slab.lo) * plan.plane_cells;
  const std::size_t interior_cells =
      (end_plane - begin_plane) * plan.plane_cells;
  std::copy_n(slab_result.begin() + static_cast<long>(interior_offset),
              interior_cells,
              out_global.begin() +
                  static_cast<long>(begin_plane * plan.plane_cells));
}

}  // namespace dfg::runtime
