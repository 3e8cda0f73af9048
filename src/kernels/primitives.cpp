#include "kernels/primitives.hpp"

#include <unordered_map>

#include "support/error.hpp"

namespace dfg::kernels {

namespace {

// The 3-D rectilinear gradient device function. This is the paper's example
// of a complex multi-line primitive ("over 50 lines of OpenCL source code");
// the VM's grad3d opcode implements exactly this discretisation.
constexpr const char* kGrad3dSource = R"(/* Cell-centered gradient on a 3-D rectilinear mesh.
 * field   : cell-centered scalar values, dims.x*dims.y*dims.z entries
 * dims    : number of cells per axis (nx, ny, nz)
 * x, y, z : cell-center coordinate values, one per cell (the host
 *           pipeline provides problem-sized coordinate arrays alongside
 *           the fields; see Table I's 24 bytes/cell)
 *
 * Discretisation: central differences over cell centers in the interior,
 * falling back to one-sided differences on the boundary faces. Because
 * the coordinate arrays carry explicit per-cell centers, non-uniform
 * (stretched) rectilinear spacing is handled exactly.
 *
 * An axis with a single cell has no neighbours in that direction; its
 * derivative component is defined as zero.
 *
 * Returns (df/dx, df/dy, df/dz, 0) as a float4.
 */
inline float axis_deriv(__global const float *field,
                        __global const float *coords,
                        int idx, int n, int stride, int base)
{
    if (n == 1)
        return 0.0f;
    int lo, hi;
    if (idx == 0)              { lo = 0;     hi = 1;     }
    else if (idx == n - 1)     { lo = n - 2; hi = n - 1; }
    else                       { lo = idx-1; hi = idx+1; }
    float df = field[base + hi * stride] - field[base + lo * stride];
    float dc = coords[base + hi * stride] - coords[base + lo * stride];
    return (dc == 0.0f) ? 0.0f : df / dc;
}

inline float4 grad3d(__global const float *field,
                     __global const float *dims,
                     __global const float *x,
                     __global const float *y,
                     __global const float *z,
                     int gid)
{
    int nx = (int)dims[0];
    int ny = (int)dims[1];
    int nz = (int)dims[2];
    int plane = nx * ny;
    int i = gid % nx;
    int j = (gid / nx) % ny;
    int k = gid / plane;
    float4 g;
    g.s0 = axis_deriv(field, x, i, nx, 1,     j * nx + k * plane);
    g.s1 = axis_deriv(field, y, j, ny, nx,    i + k * plane);
    g.s2 = axis_deriv(field, z, k, nz, plane, i + j * nx);
    g.s3 = 0.0f;
    return g;
}
)";

std::vector<PrimitiveInfo> make_registry() {
  std::vector<PrimitiveInfo> prims;
  const auto binary = [&](const char* name, const char* expr) {
    prims.push_back(PrimitiveInfo{
        name,
        2,
        1,
        {1, 1},
        std::string("inline float ") + name +
            "(float a, float b) { return " + expr + "; }\n"});
  };
  binary("add", "a + b");
  binary("sub", "a - b");
  binary("mult", "a * b");
  binary("div", "a / b");
  binary("min", "fmin(a, b)");
  binary("max", "fmax(a, b)");
  binary("pow", "pow(a, b)");
  binary("cmp_gt", "(a > b) ? 1.0f : 0.0f");
  binary("cmp_lt", "(a < b) ? 1.0f : 0.0f");
  binary("cmp_ge", "(a >= b) ? 1.0f : 0.0f");
  binary("cmp_le", "(a <= b) ? 1.0f : 0.0f");
  binary("cmp_eq", "(a == b) ? 1.0f : 0.0f");
  binary("cmp_ne", "(a != b) ? 1.0f : 0.0f");

  prims.push_back(PrimitiveInfo{
      "neg", 1, 1, {1},
      "inline float neg(float a) { return -a; }\n"});
  prims.push_back(PrimitiveInfo{
      "sqrt", 1, 1, {1},
      "inline float sqrt_(float a) { return sqrt(a); }\n"});
  prims.push_back(PrimitiveInfo{
      "abs", 1, 1, {1},
      "inline float abs_(float a) { return fabs(a); }\n"});
  const auto unary_builtin = [&](const char* name, const char* fn) {
    prims.push_back(PrimitiveInfo{
        name, 1, 1, {1},
        std::string("inline float ") + name + "_(float a) { return " + fn +
            "(a); }\n"});
  };
  unary_builtin("sin", "sin");
  unary_builtin("cos", "cos");
  unary_builtin("tan", "tan");
  unary_builtin("acos", "acos");
  unary_builtin("exp", "exp");
  unary_builtin("log", "log");
  unary_builtin("tanh", "tanh");
  unary_builtin("floor", "floor");
  unary_builtin("ceil", "ceil");
  prims.push_back(PrimitiveInfo{
      "select", 3, 1, {1, 1, 1},
      "inline float select_(float c, float t, float e)\n"
      "{ return (c != 0.0f) ? t : e; }\n"});
  prims.push_back(PrimitiveInfo{
      "pack3", 3, 3, {1, 1, 1},
      "inline float4 pack3(float a, float b, float c)\n"
      "{ return (float4)(a, b, c, 0.0f); }\n"});
  prims.push_back(PrimitiveInfo{
      "decompose", 1, 1, {3},
      "/* decompose selects one lane of a float4 value; the fused kernel\n"
      " * generator lowers it to a .sN access at source level. */\n"});
  prims.push_back(PrimitiveInfo{"grad3d", 5, 3, {1, 1, 1, 1, 1},
                                kGrad3dSource});
  prims.push_back(PrimitiveInfo{
      "const_fill", 0, 1, {},
      "/* materialises a constant as a problem-sized device array; used by\n"
      " * the staged strategy. The fusion strategy inlines constants at\n"
      " * source level instead. */\n"});
  return prims;
}

const std::unordered_map<std::string, const PrimitiveInfo*>& index() {
  static const auto* map = [] {
    auto* m = new std::unordered_map<std::string, const PrimitiveInfo*>();
    for (const PrimitiveInfo& p : all_primitives()) (*m)[p.name] = &p;
    return m;
  }();
  return *map;
}

/// The lane-wise or comparison opcode with `operands` register operands
/// that implements primitive `kind`.
Op opcode_for(const std::string& kind, int operands, const char* what) {
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const OpInfo& info = op_info(static_cast<Op>(i));
    if ((info.form == OpForm::lanewise || info.form == OpForm::comparison) &&
        info.operands == operands && kind == info.kind) {
      return info.op;
    }
  }
  throw KernelError("'" + kind + "' is not a " + what + " primitive");
}

}  // namespace

Op unary_opcode_for(const std::string& kind) {
  return opcode_for(kind, 1, "unary");
}

Op binary_opcode_for(const std::string& kind) {
  return opcode_for(kind, 2, "binary");
}

const std::vector<PrimitiveInfo>& all_primitives() {
  static const std::vector<PrimitiveInfo> registry = make_registry();
  return registry;
}

const PrimitiveInfo* find_primitive(const std::string& name) {
  const auto it = index().find(name);
  return it == index().end() ? nullptr : it->second;
}

std::uint16_t emit_primitive(ProgramBuilder& b, const std::string& kind,
                             std::span<const std::uint16_t> in,
                             int component) {
  const PrimitiveInfo* info = find_primitive(kind);
  if (info == nullptr || kind == "const_fill" ||
      in.size() != static_cast<std::size_t>(info->arity)) {
    throw KernelError("no bytecode for primitive '" + kind + "' with " +
                      std::to_string(in.size()) + " operands");
  }
  if (kind == "grad3d") return b.emit_grad3d(in[0], in[1], in[2], in[3], in[4]);
  if (kind == "decompose") return b.emit_component(in[0], component);
  if (kind == "select") return b.emit_select(in[0], in[1], in[2]);
  if (kind == "pack3") return b.emit_pack(in[0], in[1], in[2]);
  if (info->arity == 1) return b.emit_unary(unary_opcode_for(kind), in[0]);
  return b.emit_binary(binary_opcode_for(kind), in[0], in[1]);
}

Program make_standalone_program(const std::string& kind, int component,
                                float value) {
  const PrimitiveInfo* info = find_primitive(kind);
  if (info == nullptr) {
    throw KernelError("unknown primitive '" + kind + "'");
  }
  ProgramBuilder b(kind);
  if (kind == "const_fill") {
    return b.finish(b.emit_load_const(value), 1);
  }
  // Parameters first, then the one instruction the fused kernels splice.
  std::vector<std::uint16_t> operands;
  if (kind == "grad3d") {
    for (const char* name : {"field", "dims", "x", "y", "z"}) {
      operands.push_back(b.add_param(name));
    }
  } else if (kind == "decompose") {
    const std::uint16_t in = b.add_param("in0", /*is_vec=*/true);
    operands.push_back(b.emit_load_global_vec(in));
  } else {
    for (int i = 0; i < info->arity; ++i) {
      operands.push_back(
          b.emit_load_global(b.add_param("in" + std::to_string(i))));
    }
  }
  return b.finish(emit_primitive(b, kind, operands, component),
                  info->result_components);
}

}  // namespace dfg::kernels
