#include "runtime/slab.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "support/error.hpp"

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

std::vector<SlabParam> resolve_slab_params(const kernels::Program& program,
                                           const FieldBindings& bindings) {
  const std::set<std::uint16_t> dims = dims_slots(program);
  std::vector<SlabParam> params;
  params.reserve(program.params().size());
  for (std::size_t slot = 0; slot < program.params().size(); ++slot) {
    SlabParam param;
    param.name = program.params()[slot].name;
    param.label = param.name + "@slab";
    param.is_dims = dims.count(static_cast<std::uint16_t>(slot)) != 0;
    if (!param.is_dims) param.view = bindings.get(param.name);
    params.push_back(std::move(param));
  }
  return params;
}

}  // namespace dfg::runtime
