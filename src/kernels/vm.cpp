#include "kernels/vm.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "support/error.hpp"

namespace dfg::kernels {

namespace {

/// Pre-validated gradient context for one grad3d instruction. The dims and
/// node-coordinate buffers are checked once per run() call rather than once
/// per element.
struct GradContext {
  const float* field = nullptr;
  std::size_t field_elements = 0;
  std::size_t nx = 0, ny = 0, nz = 0;
  const float* x = nullptr;
  const float* y = nullptr;
  const float* z = nullptr;
};

GradContext make_grad_context(const Instr& instr,
                              std::span<const BufferBinding> inputs,
                              const std::string& program_name) {
  const auto need = [&](std::uint16_t slot) -> const BufferBinding& {
    if (slot >= inputs.size()) {
      throw KernelError("program '" + program_name +
                        "' grad3d references missing buffer slot " +
                        std::to_string(slot));
    }
    return inputs[slot];
  };
  const BufferBinding& field = need(instr.args[0]);
  const BufferBinding& dims = need(instr.args[1]);
  const BufferBinding& x = need(instr.args[2]);
  const BufferBinding& y = need(instr.args[3]);
  const BufferBinding& z = need(instr.args[4]);
  if (dims.elements < 3) {
    throw KernelError("grad3d dims buffer must hold 3 values (nx, ny, nz)");
  }
  // Every extent is checked before it is cast: a float-to-integer cast of
  // NaN, an infinity or an out-of-range value is undefined behaviour.
  // 2^24 is the largest range in which a float holds every integer.
  constexpr float kMaxExtent = 16777216.0f;
  GradContext ctx;
  std::size_t* const extents[3] = {&ctx.nx, &ctx.ny, &ctx.nz};
  std::size_t cells = 1;
  for (int k = 0; k < 3; ++k) {
    const float value = dims.data[k];
    if (!(value >= 1.0f && value <= kMaxExtent) ||
        std::trunc(value) != value) {
      throw KernelError("grad3d dims must be integers in [1, 2^24], got " +
                        std::to_string(value));
    }
    *extents[k] = static_cast<std::size_t>(value);
    if (*extents[k] > SIZE_MAX / cells) {
      throw KernelError("grad3d dims overflow the cell count");
    }
    cells *= *extents[k];
  }
  if (field.elements < cells) {
    throw KernelError("grad3d field buffer holds " +
                      std::to_string(field.elements) + " values, needs " +
                      std::to_string(cells));
  }
  // Coordinate arrays are problem-sized (one cell-center coordinate per
  // cell, as the host pipeline provides them — see Table I's 24 B/cell).
  if (x.elements < cells || y.elements < cells || z.elements < cells) {
    throw KernelError(
        "grad3d coordinate buffers must hold one value per cell");
  }
  ctx.field = field.data;
  ctx.field_elements = field.elements;
  ctx.x = x.data;
  ctx.y = y.data;
  ctx.z = z.data;
  return ctx;
}

/// Shared prevalidation for both interpreters: argument-count and output
/// extent checks, scalar/vector load extent checks, and gradient contexts
/// built once per call.
std::vector<GradContext> prevalidate(const Program& program,
                                     std::span<const BufferBinding> inputs,
                                     std::size_t out_elements,
                                     std::size_t begin, std::size_t end) {
  if (inputs.size() != program.params().size()) {
    throw KernelError("program '" + program.name() + "' expects " +
                      std::to_string(program.params().size()) +
                      " buffers, got " + std::to_string(inputs.size()));
  }
  const std::size_t stride = program.out_stride();
  if (end > begin && out_elements < end * stride) {
    throw KernelError("program '" + program.name() +
                      "' output buffer too small: " +
                      std::to_string(out_elements) + " < " +
                      std::to_string(end * stride));
  }

  std::vector<GradContext> grads(program.code().size());
  for (std::size_t pc = 0; pc < program.code().size(); ++pc) {
    const Instr& instr = program.code()[pc];
    if (instr.op == Op::grad3d) {
      grads[pc] = make_grad_context(instr, inputs, program.name());
    } else if (instr.op == Op::load_global) {
      const BufferBinding& b = inputs[instr.args[0]];
      if (end > begin && b.elements < end) {
        throw KernelError("program '" + program.name() + "' buffer '" +
                          program.params()[instr.args[0]].name +
                          "' too small for NDRange");
      }
    } else if (instr.op == Op::load_global_vec) {
      const BufferBinding& b = inputs[instr.args[0]];
      if (end > begin && b.elements < end * 4) {
        throw KernelError("program '" + program.name() + "' vec buffer '" +
                          program.params()[instr.args[0]].name +
                          "' too small for NDRange");
      }
    }
  }
  return grads;
}

/// One-axis derivative of a cell-centered field: central difference on the
/// interior, one-sided at the boundary — the discretisation used by
/// rectilinear-gradient filters in VisIt-style pipelines. The coordinate
/// array holds one cell-center coordinate per cell and is indexed with the
/// same stencil as the field.
inline float axis_derivative(const float* field, const float* coords,
                             std::size_t idx, std::size_t n,
                             std::size_t stride, std::size_t base) {
  if (n == 1) return 0.0f;
  std::size_t lo_i, hi_i;
  if (idx == 0) {
    lo_i = 0;
    hi_i = 1;
  } else if (idx == n - 1) {
    lo_i = n - 2;
    hi_i = n - 1;
  } else {
    lo_i = idx - 1;
    hi_i = idx + 1;
  }
  const float df = field[base + hi_i * stride] - field[base + lo_i * stride];
  const float dc =
      coords[base + hi_i * stride] - coords[base + lo_i * stride];
  return dc == 0.0f ? 0.0f : df / dc;
}

inline Vec4 eval_grad(const GradContext& ctx, std::size_t gid) {
  const std::size_t i = gid % ctx.nx;
  const std::size_t j = (gid / ctx.nx) % ctx.ny;
  const std::size_t k = gid / (ctx.nx * ctx.ny);
  const std::size_t plane = ctx.nx * ctx.ny;

  Vec4 g;
  // d/dx: neighbours along i, base = j*nx + k*plane.
  g[0] = axis_derivative(ctx.field, ctx.x, i, ctx.nx, 1,
                         j * ctx.nx + k * plane);
  // d/dy: neighbours along j, base = i + k*plane.
  g[1] = axis_derivative(ctx.field, ctx.y, j, ctx.ny, ctx.nx, i + k * plane);
  // d/dz: neighbours along k, base = i + j*nx.
  g[2] = axis_derivative(ctx.field, ctx.z, k, ctx.nz, plane, i + j * ctx.nx);
  g[3] = 0.0f;
  return g;
}

template <typename F>
inline Vec4 lanewise(const Vec4& a, const Vec4& b, F f) {
  Vec4 r;
  for (int i = 0; i < 4; ++i) r[i] = f(a[i], b[i]);
  return r;
}

template <typename F>
inline Vec4 lanewise1(const Vec4& a, F f) {
  Vec4 r;
  for (int i = 0; i < 4; ++i) r[i] = f(a[i]);
  return r;
}

/// An opcode as a type, so a shape resolves its own code at compile time.
template <Op kOp>
using OpTag = std::integral_constant<Op, kOp>;

/// The one dispatch over Op, and the float meaning of every lane-wise
/// opcode and comparison, stated once. Calls `binary(f)` with a lane-wise
/// `float f(float, float)`, `unary(f)` with a lane-wise `float f(float)`,
/// `compare(p)` with a comparison's `bool p(float, float)`, and
/// `other(OpTag<op>())` for the opcodes whose code depends on the loop
/// shape (loads, stores, load_const, component, select, pack, grad3d).
/// Both shapes run it: step applies the function to the four lanes of a
/// Vec4, run() over each live lane's column of a tile. Forced inline, so
/// in run_scalar's element loop it is the one switch per instruction.
template <typename Binary, typename Unary, typename Compare, typename Other>
[[gnu::always_inline]] inline void dispatch(Op op, Binary&& binary,
                                            Unary&& unary, Compare&& compare,
                                            Other&& other) {
  switch (op) {
    case Op::add:
      return binary([](float x, float y) { return x + y; });
    case Op::sub:
      return binary([](float x, float y) { return x - y; });
    case Op::mul:
      return binary([](float x, float y) { return x * y; });
    case Op::div:
      return binary([](float x, float y) { return x / y; });
    case Op::min:
      return binary([](float x, float y) { return std::fmin(x, y); });
    case Op::max:
      return binary([](float x, float y) { return std::fmax(x, y); });
    case Op::pow:
      return binary([](float x, float y) { return std::pow(x, y); });
    case Op::sqrt:
      return unary([](float x) { return std::sqrt(x); });
    case Op::neg:
      return unary([](float x) { return -x; });
    case Op::abs:
      return unary([](float x) { return std::fabs(x); });
    case Op::sin:
      return unary([](float x) { return std::sin(x); });
    case Op::cos:
      return unary([](float x) { return std::cos(x); });
    case Op::tan:
      return unary([](float x) { return std::tan(x); });
    case Op::acos:
      return unary([](float x) { return std::acos(x); });
    case Op::exp:
      return unary([](float x) { return std::exp(x); });
    case Op::log:
      return unary([](float x) { return std::log(x); });
    case Op::tanh:
      return unary([](float x) { return std::tanh(x); });
    case Op::floor:
      return unary([](float x) { return std::floor(x); });
    case Op::ceil:
      return unary([](float x) { return std::ceil(x); });
    case Op::cmp_gt:
      return compare([](float x, float y) { return x > y; });
    case Op::cmp_lt:
      return compare([](float x, float y) { return x < y; });
    case Op::cmp_ge:
      return compare([](float x, float y) { return x >= y; });
    case Op::cmp_le:
      return compare([](float x, float y) { return x <= y; });
    case Op::cmp_eq:
      return compare([](float x, float y) { return x == y; });
    case Op::cmp_ne:
      return compare([](float x, float y) { return x != y; });
    case Op::load_global:
      return other(OpTag<Op::load_global>());
    case Op::load_global_vec:
      return other(OpTag<Op::load_global_vec>());
    case Op::load_const:
      return other(OpTag<Op::load_const>());
    case Op::store:
      return other(OpTag<Op::store>());
    case Op::store_vec:
      return other(OpTag<Op::store_vec>());
    case Op::component:
      return other(OpTag<Op::component>());
    case Op::select:
      return other(OpTag<Op::select>());
    case Op::pack:
      return other(OpTag<Op::pack>());
    case Op::grad3d:
      return other(OpTag<Op::grad3d>());
  }
}

/// Executes one instruction on a float4 register file: the register-only
/// opcodes here, anything touching a buffer through `memory(in, tag)`.
/// Forced inline, so run_scalar's element loop pays no call and one
/// switch. Each case assigns the destination once, from a value computed
/// whole, so a destination that aliases an operand reads correctly.
template <typename Memory>
[[gnu::always_inline]] inline void step(const Instr& in, Vec4* regs,
                                        Memory&& memory) {
  Vec4& d = regs[in.dst];
  // Register operand k; buffer slots are never read as registers.
  const auto r = [&](std::size_t k) -> const Vec4& {
    return regs[in.args[k]];
  };
  const auto scalar = [](float v) { return Vec4{{v, 0.0f, 0.0f, 0.0f}}; };
  dispatch(
      in.op, [&](auto f) { d = lanewise(r(0), r(1), f); },
      [&](auto f) { d = lanewise1(r(0), f); },
      [&](auto p) { d = scalar(p(r(0)[0], r(1)[0]) ? 1.0f : 0.0f); },
      [&](auto op) {
        if constexpr (op == Op::load_const) {
          d = scalar(in.imm);
        } else if constexpr (op == Op::component) {
          d = scalar(r(0)[in.args[1]]);
        } else if constexpr (op == Op::select) {
          d = r(0)[0] != 0.0f ? r(1) : r(2);
        } else if constexpr (op == Op::pack) {
          d = Vec4{{r(0)[0], r(1)[0], r(2)[0], 0.0f}};
        } else {
          memory(in, op);
        }
      });
}

}  // namespace

void validate_launch(const Program& program,
                     std::span<const BufferBinding> inputs,
                     std::size_t out_elements, std::size_t begin,
                     std::size_t end) {
  (void)prevalidate(program, inputs, out_elements, begin, end);
}

/// Exact backward lane-liveness, one 4-bit mask per instruction: bit l set
/// when some later consumer can observe lane l of the value this
/// instruction defines. It clears a register's mask at every definition, so
/// it is exact for coalesced (register-reusing) straight-line code as well
/// as for SSA. The tiled interpreter skips dead lanes — and whole dead
/// instructions — which is safe precisely because nothing can read what
/// was skipped.
std::vector<std::uint8_t> live_lane_masks(std::span<const Instr> code,
                                          std::uint16_t num_regs) {
  std::vector<std::uint8_t> live(num_regs, 0);
  std::vector<std::uint8_t> masks(code.size(), 0);
  for (std::size_t idx = code.size(); idx-- > 0;) {
    const Instr& in = code[idx];
    const OpInfo& info = op_info(in.op);
    if (!op_defines_register(in.op)) {
      live[in.args[0]] |= info.form == OpForm::write ? 0x1 : 0xF;
      masks[idx] = 0xF;  // stores always execute
      continue;
    }
    const std::uint8_t m = live[in.dst];
    masks[idx] = m;
    live[in.dst] = 0;
    if (m == 0) continue;  // dead definition: operands stay unobserved
    switch (info.form) {
      case OpForm::lanewise:
        for (int k = 0; k < info.operands; ++k) {
          live[in.args[static_cast<std::size_t>(k)]] |= m;
        }
        break;
      case OpForm::comparison:
        if (m & 0x1) {
          live[in.args[0]] |= 0x1;
          live[in.args[1]] |= 0x1;
        }
        break;
      case OpForm::component:
        if (m & 0x1) {
          live[in.args[0]] |= static_cast<std::uint8_t>(1u << in.args[1]);
        }
        break;
      case OpForm::select:
        live[in.args[0]] |= 0x1;
        live[in.args[1]] |= m;
        live[in.args[2]] |= m;
        break;
      case OpForm::pack:
        // Lane l of the packed value comes from lane 0 of operand l; lane 3
        // is a constant zero and observes nothing.
        for (int l = 0; l < 3; ++l) {
          if (m & (1u << l)) live[in.args[static_cast<std::size_t>(l)]] |= 0x1;
        }
        break;
      default:
        // Loads, constants and grad3d read buffers or the immediate, not
        // registers.
        break;
    }
  }
  return masks;
}

void eval_register_op(const Instr& in, Vec4* regs) {
  step(in, regs, [](const Instr& other, auto) {
    throw KernelError(std::string("eval_register_op called with opcode ") +
                      op_name(other.op));
  });
}

void run(const Program& program, std::span<const BufferBinding> inputs,
         float* out, std::size_t out_elements, std::size_t begin,
         std::size_t end) {
  const std::vector<GradContext> grads =
      prevalidate(program, inputs, out_elements, begin, end);
  const std::vector<std::uint8_t> masks =
      live_lane_masks(program.code(), program.register_count());

  // Per-tile register file: column arrays in structure-of-arrays layout,
  // kTileSize floats per lane, the four lanes of a register contiguous.
  std::vector<float> ws(static_cast<std::size_t>(program.register_count()) *
                        4 * kTileSize);
  const auto col = [&ws](std::uint16_t reg, int lane) {
    return ws.data() +
           (static_cast<std::size_t>(reg) * 4 + static_cast<std::size_t>(lane)) *
               kTileSize;
  };

  for (std::size_t t0 = begin; t0 < end; t0 += kTileSize) {
    const std::size_t count = std::min(kTileSize, end - t0);

    // Zero the *live* lanes among 1..3 of a freshly defined
    // scalar-producing register, matching the element interpreter's
    // `regs[dst] = Vec4{}` reset on every lane a consumer can observe.
    const auto zero_high = [&](std::uint16_t reg, std::uint8_t mask) {
      for (int lane = 1; lane < 4; ++lane) {
        if (mask & (1u << lane)) {
          std::memset(col(reg, lane), 0, count * sizeof(float));
        }
      }
    };
    // dispatch's float functions, applied over the live lanes' columns
    // only. Element-wise read-before-write keeps them correct when register
    // coalescing makes dst alias an operand.
    const auto binary = [&](const Instr& in, std::uint8_t mask, auto f) {
      for (int lane = 0; lane < 4; ++lane) {
        if (!(mask & (1u << lane))) continue;
        const float* a = col(in.args[0], lane);
        const float* b = col(in.args[1], lane);
        float* d = col(in.dst, lane);
        for (std::size_t e = 0; e < count; ++e) d[e] = f(a[e], b[e]);
      }
    };
    const auto unary = [&](const Instr& in, std::uint8_t mask, auto f) {
      for (int lane = 0; lane < 4; ++lane) {
        if (!(mask & (1u << lane))) continue;
        const float* a = col(in.args[0], lane);
        float* d = col(in.dst, lane);
        for (std::size_t e = 0; e < count; ++e) d[e] = f(a[e]);
      }
    };
    const auto compare = [&](const Instr& in, std::uint8_t mask, auto f) {
      if (mask & 0x1) {
        const float* a = col(in.args[0], 0);
        const float* b = col(in.args[1], 0);
        float* d = col(in.dst, 0);
        for (std::size_t e = 0; e < count; ++e) {
          d[e] = f(a[e], b[e]) ? 1.0f : 0.0f;
        }
      }
      zero_high(in.dst, mask);
    };

    for (std::size_t pc = 0; pc < program.code().size(); ++pc) {
      const Instr& in = program.code()[pc];
      const std::uint8_t mask = masks[pc];
      // A definition nothing can observe needs no work at all (stores and
      // the out-buffer writes always carry mask 0xF).
      if (mask == 0 && op_defines_register(in.op)) continue;
      // dispatch hands loads, stores, load_const, component, select, pack
      // and grad3d back to this shape's own switch below. The switch stays
      // in the loop body: moved into the callback, which is instantiated
      // once per opcode, it made Q-Crit's tiled kernel measurably slower.
      bool own_code = false;
      dispatch(
          in.op, [&](auto f) { binary(in, mask, f); },
          [&](auto f) { unary(in, mask, f); },
          [&](auto p) { compare(in, mask, p); },
          [&](auto) { own_code = true; });
      if (!own_code) continue;
      switch (in.op) {
        case Op::load_global: {
          if (mask & 0x1) {
            std::memcpy(col(in.dst, 0), inputs[in.args[0]].data + t0,
                        count * sizeof(float));
          }
          zero_high(in.dst, mask);
          break;
        }
        case Op::load_global_vec: {
          const float* p = inputs[in.args[0]].data + t0 * 4;
          for (int lane = 0; lane < 4; ++lane) {
            if (!(mask & (1u << lane))) continue;
            float* d = col(in.dst, lane);
            for (std::size_t e = 0; e < count; ++e) {
              d[e] = p[e * 4 + static_cast<std::size_t>(lane)];
            }
          }
          break;
        }
        case Op::load_const: {
          if (mask & 0x1) {
            float* d = col(in.dst, 0);
            for (std::size_t e = 0; e < count; ++e) d[e] = in.imm;
          }
          zero_high(in.dst, mask);
          break;
        }
        case Op::component: {
          if (mask & 0x1) {
            const float* src = col(in.args[0], static_cast<int>(in.args[1]));
            float* d = col(in.dst, 0);
            for (std::size_t e = 0; e < count; ++e) d[e] = src[e];
          }
          zero_high(in.dst, mask);
          break;
        }
        case Op::select: {
          // Lane 0 last: when coalescing makes dst alias the condition
          // register, the condition column must survive the lane-1..3
          // passes, and the lane-0 pass itself reads before it writes.
          const float* c0 = col(in.args[0], 0);
          for (int lane = 3; lane >= 0; --lane) {
            if (!(mask & (1u << lane))) continue;
            const float* tv = col(in.args[1], lane);
            const float* ev = col(in.args[2], lane);
            float* d = col(in.dst, lane);
            for (std::size_t e = 0; e < count; ++e) {
              d[e] = c0[e] != 0.0f ? tv[e] : ev[e];
            }
          }
          break;
        }
        case Op::pack: {
          // Descending lanes (like select): lane L of dst reads lane 0 of
          // operand L, so writing high lanes first keeps the lane-0 source
          // columns intact when coalescing makes dst alias an operand; the
          // lane-0 pass itself reads before it writes.
          if (mask & 0x8) {
            std::memset(col(in.dst, 3), 0, count * sizeof(float));
          }
          for (int lane = 2; lane >= 0; --lane) {
            if (!(mask & (1u << lane))) continue;
            const float* a = col(in.args[static_cast<std::size_t>(lane)], 0);
            float* d = col(in.dst, lane);
            for (std::size_t e = 0; e < count; ++e) d[e] = a[e];
          }
          break;
        }
        case Op::grad3d: {
          // Row-wise stencil: within one x-row (fixed j, k) the y- and
          // z-neighbour offsets are constant, so both lanes reduce to
          // streaming subtract/divide over contiguous spans; the x lane is
          // contiguous too once its (at most two) boundary cells are
          // peeled. Arithmetic is operand-for-operand the one
          // axis_derivative performs, so results stay bit-identical to the
          // element interpreter.
          const GradContext& g = grads[pc];
          const std::size_t plane = g.nx * g.ny;
          std::size_t i = t0 % g.nx;
          std::size_t j = (t0 / g.nx) % g.ny;
          std::size_t k = t0 / plane;
          float* d0 = col(in.dst, 0);
          float* d1 = col(in.dst, 1);
          float* d2 = col(in.dst, 2);
          float* d3 = col(in.dst, 3);
          std::size_t e = 0;
          while (e < count) {
            const std::size_t row_len = std::min(count - e, g.nx - i);
            const std::size_t row_base = j * g.nx + k * plane;
            // d/dx: neighbours along i within this row.
            if (!(mask & 0x1)) {
            } else if (g.nx == 1) {
              for (std::size_t t = 0; t < row_len; ++t) d0[e + t] = 0.0f;
            } else {
              const float* f = g.field + row_base;
              const float* cx = g.x + row_base;
              std::size_t t = 0;
              if (i == 0) {
                d0[e] = axis_derivative(g.field, g.x, 0, g.nx, 1, row_base);
                t = 1;
              }
              const std::size_t t_end =
                  (i + row_len == g.nx) ? row_len - 1 : row_len;
              for (; t < t_end; ++t) {
                const std::size_t ii = i + t;
                const float df = f[ii + 1] - f[ii - 1];
                const float dc = cx[ii + 1] - cx[ii - 1];
                d0[e + t] = dc == 0.0f ? 0.0f : df / dc;
              }
              if (t_end < row_len) {
                d0[e + row_len - 1] = axis_derivative(g.field, g.x, g.nx - 1,
                                                      g.nx, 1, row_base);
              }
            }
            // d/dy: the whole row shares one (lo_j, hi_j) pair.
            if (!(mask & 0x2)) {
            } else if (g.ny == 1) {
              for (std::size_t t = 0; t < row_len; ++t) d1[e + t] = 0.0f;
            } else {
              const std::size_t lo_j = j - (j > 0 ? 1 : 0);
              const std::size_t hi_j = j + (j < g.ny - 1 ? 1 : 0);
              const float* fhi = g.field + k * plane + hi_j * g.nx + i;
              const float* flo = g.field + k * plane + lo_j * g.nx + i;
              const float* chi = g.y + k * plane + hi_j * g.nx + i;
              const float* clo = g.y + k * plane + lo_j * g.nx + i;
              for (std::size_t t = 0; t < row_len; ++t) {
                const float df = fhi[t] - flo[t];
                const float dc = chi[t] - clo[t];
                d1[e + t] = dc == 0.0f ? 0.0f : df / dc;
              }
            }
            // d/dz: likewise one (lo_k, hi_k) pair per row.
            if (!(mask & 0x4)) {
            } else if (g.nz == 1) {
              for (std::size_t t = 0; t < row_len; ++t) d2[e + t] = 0.0f;
            } else {
              const std::size_t lo_k = k - (k > 0 ? 1 : 0);
              const std::size_t hi_k = k + (k < g.nz - 1 ? 1 : 0);
              const float* fhi = g.field + j * g.nx + hi_k * plane + i;
              const float* flo = g.field + j * g.nx + lo_k * plane + i;
              const float* chi = g.z + j * g.nx + hi_k * plane + i;
              const float* clo = g.z + j * g.nx + lo_k * plane + i;
              for (std::size_t t = 0; t < row_len; ++t) {
                const float df = fhi[t] - flo[t];
                const float dc = chi[t] - clo[t];
                d2[e + t] = dc == 0.0f ? 0.0f : df / dc;
              }
            }
            if (mask & 0x8) {
              for (std::size_t t = 0; t < row_len; ++t) d3[e + t] = 0.0f;
            }
            e += row_len;
            i = 0;
            if (++j == g.ny) {
              j = 0;
              ++k;
            }
          }
          break;
        }
        case Op::store: {
          std::memcpy(out + t0, col(in.args[0], 0), count * sizeof(float));
          break;
        }
        case Op::store_vec: {
          float* p = out + t0 * 4;
          for (int lane = 0; lane < 4; ++lane) {
            const float* s = col(in.args[0], lane);
            for (std::size_t e = 0; e < count; ++e) {
              p[e * 4 + static_cast<std::size_t>(lane)] = s[e];
            }
          }
          break;
        }
        default:
          break;  // dispatch ran the lane-wise and comparison opcodes
      }
    }
  }
}

void run_scalar(const Program& program, std::span<const BufferBinding> inputs,
                float* out, std::size_t out_elements, std::size_t begin,
                std::size_t end) {
  const std::vector<GradContext> grads =
      prevalidate(program, inputs, out_elements, begin, end);

  std::vector<Vec4> regs(program.register_count());
  for (std::size_t gid = begin; gid < end; ++gid) {
    for (std::size_t pc = 0; pc < program.code().size(); ++pc) {
      step(program.code()[pc], regs.data(), [&](const Instr& in, auto op) {
        if constexpr (op == Op::load_global) {
          regs[in.dst] = Vec4{};
          regs[in.dst][0] = inputs[in.args[0]].data[gid];
        } else if constexpr (op == Op::load_global_vec) {
          const float* p = inputs[in.args[0]].data + gid * 4;
          regs[in.dst] = Vec4{{p[0], p[1], p[2], p[3]}};
        } else if constexpr (op == Op::grad3d) {
          regs[in.dst] = eval_grad(grads[pc], gid);
        } else if constexpr (op == Op::store) {
          out[gid] = regs[in.args[0]][0];
        } else {
          static_assert(op == Op::store_vec);
          float* p = out + gid * 4;
          const Vec4& v = regs[in.args[0]];
          p[0] = v[0];
          p[1] = v[1];
          p[2] = v[2];
          p[3] = v[3];
        }
      });
    }
  }
}

void run_all(const Program& program, std::span<const BufferBinding> inputs,
             std::span<float> out, std::size_t ndrange) {
  run(program, inputs, out.data(), out.size(), 0, ndrange);
}

}  // namespace dfg::kernels
