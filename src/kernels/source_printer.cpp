#include "kernels/source_printer.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <type_traits>
#include <vector>

#include "kernels/primitives.hpp"
#include "kernels/vm.hpp"
#include "support/string_util.hpp"

namespace dfg::kernels {

namespace {

// One walk renders both dialects: one statement per lane the dialect shows
// (the C: live lanes only, from live_lane_masks), spelled through the
// Dialect table below.
//
// Bit-exactness discipline: every statement mirrors one interpreter
// operation operand-for-operand. The C dialect's float libm entry points
// (sqrtf, powf, fminf, ...) are the functions the C++ std:: float overloads
// resolve to, so the compiled object and the interpreters execute the same
// library code; division, comparison and negation are IEEE-defined; the
// gradient spans replicate the tiled VM's row loop including its boundary
// peeling. Compilation passes -ffp-contract=off so no statement fuses into
// an fma the interpreters would not perform.

/// What the instructions a dialect shows need from the preamble.
struct Uses {
  bool grad = false;
  bool constant = false;
  bool libm = false;
};

/// What the OpenCL view and the jit's C spell differently. The functions
/// append to the source being rendered, except the per-instruction buffer
/// and constant spellings.
struct Dialect {
  const char* indent;       ///< statement indentation
  const char* libm_suffix;  ///< "" for OpenCL built-ins, "f" for C99 libm
  /// The lanes of each instruction that get a statement.
  std::vector<std::uint8_t> (*lanes)(const Program& program);
  void (*lane)(std::string& out, std::uint16_t reg, int lane);
  std::string (*buffer)(const Program& program, std::uint16_t slot);
  std::string (*constant)(float value);
  /// Header, preamble, signature and work-item index: all before the locals.
  void (*open)(std::string& out, const Program& program,
               const std::vector<std::uint8_t>& masks, const Uses& uses);
  /// Declares the locals: `written[r]` holds the lanes of register r that
  /// shown definitions write. Registers are reused after coalescing, so
  /// declarations precede all statements.
  void (*declare)(std::string& out, const std::vector<std::uint8_t>& written);
  void (*grad3d)(std::string& out, const Program& program, std::size_t pc,
                 std::uint8_t mask);
  const char* close;
};

void append_reg(std::string& out, std::size_t r) {
  out += 'r';
  out += std::to_string(r);
}

/// A register lane inside a statement, spelled by the dialect.
struct Lane {
  std::uint16_t reg;
  int lane;
};

/// Emits one statement per lane of `mask`. Ordering inside an
/// instruction mirrors the tiled VM where aliasing matters: select and pack
/// lanes descend so the lane-0 operands (which register coalescing may
/// alias with the destination) are consumed before lane 0 overwrites them,
/// and the lane-0 value of a scalar producer is written before its high
/// lanes are zeroed.
void emit_instr(std::string& out, const Dialect& d, const Program& program,
                std::size_t pc, std::uint8_t mask) {
  const Instr& in = program.code()[pc];
  const auto live = [mask](int lane) { return (mask & (1u << lane)) != 0; };
  // One statement from its pieces: text, or a register lane.
  const auto stmt = [&](const auto&... pieces) {
    out += d.indent;
    const auto put = [&](const auto& piece) {
      if constexpr (std::is_same_v<std::decay_t<decltype(piece)>, Lane>) {
        d.lane(out, piece.reg, piece.lane);
      } else {
        out += piece;
      }
    };
    (put(pieces), ...);
    out += '\n';
  };
  const auto dst = [&](int lane) { return Lane{in.dst, lane}; };
  const auto arg = [&](std::size_t i, int lane) {
    return Lane{in.args[i], lane};
  };
  const auto digit = [](int lane) { return static_cast<char>('0' + lane); };
  // A scalar producer: lane 0 gets the value, the high lanes zero.
  const auto scalar = [&](const auto&... value) {
    if (live(0)) stmt(dst(0), " = ", value..., ";");
    for (int lane = 1; lane < 4; ++lane) {
      if (live(lane)) stmt(dst(lane), " = 0.0f;");
    }
  };

  const OpInfo& info = op_info(in.op);
  const char* token = info.token;
  if (info.form == OpForm::comparison) {
    scalar("(", arg(0, 0), " ", token, " ", arg(1, 0), ") ? 1.0f : 0.0f");
    return;
  }
  if (info.form == OpForm::lanewise) {
    for (int l = 0; l < 4; ++l) {
      if (!live(l)) continue;
      if (info.spell == Spell::prefix) {
        stmt(dst(l), " = ", token, arg(0, l), ";");
      } else if (info.spell == Spell::infix) {
        stmt(dst(l), " = ", arg(0, l), " ", token, " ", arg(1, l), ";");
      } else if (info.operands == 2) {
        stmt(dst(l), " = ", token, d.libm_suffix, "(", arg(0, l), ", ",
             arg(1, l), ");");
      } else {
        stmt(dst(l), " = ", token, d.libm_suffix, "(", arg(0, l), ");");
      }
    }
    return;
  }
  switch (in.op) {
    case Op::load_global:
      scalar(d.buffer(program, in.args[0]), "[gid]");
      break;
    case Op::load_global_vec: {
      const std::string buffer = d.buffer(program, in.args[0]);
      for (int l = 0; l < 4; ++l) {
        if (live(l)) stmt(dst(l), " = ", buffer, "[gid * 4 + ", digit(l), "];");
      }
      break;
    }
    case Op::load_const:
      // Source-code-level constant insertion.
      scalar(d.constant(in.imm));
      break;
    case Op::component:
      scalar(arg(0, static_cast<int>(in.args[1])));
      break;
    case Op::select:
      for (int l = 3; l >= 0; --l) {
        if (live(l)) {
          stmt(dst(l), " = (", arg(0, 0), " != 0.0f) ? ", arg(1, l), " : ",
               arg(2, l), ";");
        }
      }
      break;
    case Op::pack:
      if (live(3)) stmt(dst(3), " = 0.0f;");
      for (int l = 2; l >= 0; --l) {
        if (live(l)) stmt(dst(l), " = ", arg(std::size_t(l), 0), ";");
      }
      break;
    case Op::store:
      stmt("out[gid] = ", arg(0, 0), ";");
      break;
    case Op::store_vec:
      for (int l = 0; l < 4; ++l) {
        stmt("out[gid * 4 + ", digit(l), "] = ", arg(0, l), ";");
      }
      break;
    case Op::grad3d:
      d.grad3d(out, program, pc, mask);
      break;
    default:
      break;
  }
}

std::string render(const Program& program, const Dialect& d) {
  const std::vector<std::uint8_t> masks = d.lanes(program);
  const std::vector<Instr>& code = program.code();
  Uses uses;
  std::vector<std::uint8_t> written(program.register_count(), 0);
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    const Op op = code[pc].op;
    if (!op_defines_register(op) || masks[pc] == 0) continue;
    uses.grad = uses.grad || op == Op::grad3d;
    uses.constant = uses.constant || op == Op::load_const;
    uses.libm = uses.libm || op_info(op).spell == Spell::call;
    written[code[pc].dst] |= masks[pc];
  }

  std::string out;
  out.reserve(4096 + 64 * code.size());
  d.open(out, program, masks, uses);
  d.declare(out, written);
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    if (masks[pc] == 0 && op_defines_register(code[pc].op)) continue;
    emit_instr(out, d, program, pc, masks[pc]);
  }
  out += d.close;
  return out;
}

/// The lanes a consumer can observe.
std::vector<std::uint8_t> live_lanes(const Program& program) {
  return live_lane_masks(program.code(), program.register_count());
}

// ---- OpenCL C: the inspectable view ----------------------------------------

/// Every instruction the program holds, as the paper's framework computes
/// every statement the script wrote: a dead value shows at lane 0.
std::vector<std::uint8_t> ocl_lanes(const Program& program) {
  std::vector<std::uint8_t> masks = live_lanes(program);
  for (std::uint8_t& mask : masks) {
    if (mask == 0) mask = 0x1;
  }
  return masks;
}

void ocl_open(std::string& out, const Program& program,
              const std::vector<std::uint8_t>&, const Uses& uses) {
  out += "/* generated by dfgen: kernel '" + program.name() + "', " +
         std::to_string(program.code().size()) + " instructions, peak " +
         std::to_string(program.max_live_scalar_registers()) +
         " live scalar registers */\n";
  const PrimitiveInfo* grad = uses.grad ? find_primitive("grad3d") : nullptr;
  if (grad != nullptr) out += grad->ocl_source + "\n";
  out += "__kernel void " + program.name() + "(\n";
  for (const BufferParam& p : program.params()) {
    out += "    __global const float *" + p.name + ",\n";
  }
  out += "    __global float *out)\n{\n    int gid = get_global_id(0);\n";
}

void ocl_declare(std::string& out, const std::vector<std::uint8_t>& written) {
  for (std::size_t r = 0; r < written.size(); ++r) {
    if (written[r] == 0) continue;
    out += "    float4 ";
    append_reg(out, r);
    out += ";\n";
  }
}

void ocl_grad3d(std::string& out, const Program& program, std::size_t pc,
                std::uint8_t) {
  const Instr& in = program.code()[pc];
  const auto& params = program.params();
  out += "    ";
  append_reg(out, in.dst);
  out += " = grad3d(" + params[in.args[0]].name + ", " +
         params[in.args[1]].name + ", " + params[in.args[2]].name + ", " +
         params[in.args[3]].name + ", " + params[in.args[4]].name +
         ", gid);\n";
}

constexpr Dialect kOpenCL{
    .indent = "    ",
    .libm_suffix = "",
    .lanes = ocl_lanes,
    .lane = [](std::string& out, std::uint16_t r, int lane) {
      append_reg(out, r);
      out += ".s";
      out += static_cast<char>('0' + lane);
    },
    .buffer = [](const Program& program, std::uint16_t slot) {
      return program.params()[slot].name;
    },
    .constant = [](float value) { return support::format_float(value) + "f"; },
    .open = ocl_open,
    .declare = ocl_declare,
    .grad3d = ocl_grad3d,
    .close = "}\n",
};

// ---- C: the jit backend's translation unit ---------------------------------

void c_lane(std::string& out, std::uint16_t r, int lane) {
  append_reg(out, r);
  out += '_';
  out += static_cast<char>('0' + lane);
}

std::string c_buf(std::size_t slot) {
  std::string name = "b";
  name += std::to_string(slot);
  return name;
}

/// The axis_derivative + row-span helpers, verbatim ports of the VM's
/// gradient path. d0/d1/d2 are null for dead lanes.
constexpr const char* kGradHelpers = R"(
static float dfgen_axis(const float* field, const float* coords, size_t idx,
                        size_t n, size_t stride, size_t base) {
  size_t lo_i, hi_i;
  float df, dc;
  if (n == 1) return 0.0f;
  if (idx == 0) {
    lo_i = 0; hi_i = 1;
  } else if (idx == n - 1) {
    lo_i = n - 2; hi_i = n - 1;
  } else {
    lo_i = idx - 1; hi_i = idx + 1;
  }
  df = field[base + hi_i * stride] - field[base + lo_i * stride];
  dc = coords[base + hi_i * stride] - coords[base + lo_i * stride];
  return dc == 0.0f ? 0.0f : df / dc;
}

static void dfgen_grad_rows(const float* field, const float* x,
                            const float* y, const float* z,
                            size_t nx, size_t ny, size_t nz,
                            size_t t0, size_t count,
                            float* restrict d0, float* restrict d1,
                            float* restrict d2) {
  const size_t plane = nx * ny;
  size_t i = t0 % nx;
  size_t j = (t0 / nx) % ny;
  size_t k = t0 / plane;
  size_t e = 0;
  while (e < count) {
    const size_t rem = count - e;
    const size_t row_len = rem < nx - i ? rem : nx - i;
    const size_t row_base = j * nx + k * plane;
    if (d0 != 0) {
      if (nx == 1) {
        for (size_t t = 0; t < row_len; ++t) d0[e + t] = 0.0f;
      } else {
        const float* f = field + row_base;
        const float* cx = x + row_base;
        const size_t t_end = (i + row_len == nx) ? row_len - 1 : row_len;
        size_t t = 0;
        if (i == 0) {
          d0[e] = dfgen_axis(field, x, 0, nx, 1, row_base);
          t = 1;
        }
        for (; t < t_end; ++t) {
          const size_t ii = i + t;
          const float df = f[ii + 1] - f[ii - 1];
          const float dc = cx[ii + 1] - cx[ii - 1];
          d0[e + t] = dc == 0.0f ? 0.0f : df / dc;
        }
        if (t_end < row_len) {
          d0[e + row_len - 1] = dfgen_axis(field, x, nx - 1, nx, 1, row_base);
        }
      }
    }
    if (d1 != 0) {
      if (ny == 1) {
        for (size_t t = 0; t < row_len; ++t) d1[e + t] = 0.0f;
      } else {
        const size_t lo_j = j - (j > 0 ? 1 : 0);
        const size_t hi_j = j + (j < ny - 1 ? 1 : 0);
        const float* fhi = field + k * plane + hi_j * nx + i;
        const float* flo = field + k * plane + lo_j * nx + i;
        const float* chi = y + k * plane + hi_j * nx + i;
        const float* clo = y + k * plane + lo_j * nx + i;
        for (size_t t = 0; t < row_len; ++t) {
          const float df = fhi[t] - flo[t];
          const float dc = chi[t] - clo[t];
          d1[e + t] = dc == 0.0f ? 0.0f : df / dc;
        }
      }
    }
    if (d2 != 0) {
      if (nz == 1) {
        for (size_t t = 0; t < row_len; ++t) d2[e + t] = 0.0f;
      } else {
        const size_t lo_k = k - (k > 0 ? 1 : 0);
        const size_t hi_k = k + (k < nz - 1 ? 1 : 0);
        const float* fhi = field + j * nx + hi_k * plane + i;
        const float* flo = field + j * nx + lo_k * plane + i;
        const float* chi = z + j * nx + hi_k * plane + i;
        const float* clo = z + j * nx + lo_k * plane + i;
        for (size_t t = 0; t < row_len; ++t) {
          const float df = fhi[t] - flo[t];
          const float dc = chi[t] - clo[t];
          d2[e + t] = dc == 0.0f ? 0.0f : df / dc;
        }
      }
    }
    e += row_len;
    i = 0;
    ++j;
    if (j == ny) {
      j = 0;
      ++k;
    }
  }
}
)";


void c_open(std::string& out, const Program& program,
            const std::vector<std::uint8_t>& masks, const Uses& uses) {
  const std::vector<Instr>& code = program.code();
  char fingerprint[17];
  std::snprintf(fingerprint, sizeof(fingerprint), "%llx",
                static_cast<unsigned long long>(program.fingerprint()));
  out += "/* generated by dfgen jit backend: kernel '" + program.name() +
         "', fingerprint 0x" + fingerprint + " */\n#include <stddef.h>\n";
  if (uses.constant) out += "#include <string.h>\n";
  if (uses.libm) out += "#include <math.h>\n";
  out += "\n#define DFGEN_TILE " + std::to_string(kTileSize) + "\n";
  if (uses.constant) {
    out += R"(
static float dfgen_bits(unsigned int u) {
  float f;
  memcpy(&f, &u, sizeof(f));
  return f;
}
)";
  }
  if (uses.grad) out += kGradHelpers;
  out += std::string("\nvoid ") + kJitEntryName +
         "(const float* const* restrict bufs, float* restrict out,\n"
         "     size_t begin, size_t end) {\n";
  // Hoist the slot loads: read-only inputs, so restrict stays valid even
  // when the resident pool hands two parameter names the same buffer.
  for (std::size_t slot = 0; slot < program.params().size(); ++slot) {
    out += "  const float* restrict " + c_buf(slot) + " = bufs[" +
           std::to_string(slot) + "]; /* " + program.params()[slot].name +
           " */\n";
  }
  out +=
      "  for (size_t t0 = begin; t0 < end; t0 += DFGEN_TILE) {\n"
      "    const size_t count =\n"
      "        end - t0 < DFGEN_TILE ? end - t0 : (size_t)DFGEN_TILE;\n";

  // Tile preamble: every live gradient fills per-tile SoA columns through
  // the row-span helper before the fused element loop runs.
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    const Instr& in = code[pc];
    if (in.op != Op::grad3d || masks[pc] == 0) continue;
    std::string args;
    for (int lane = 0; lane < 3; ++lane) {
      std::string column = "g";
      column += std::to_string(pc) + "_" + std::to_string(lane);
      if (masks[pc] & (1u << lane)) {
        out += "    float " + column + "[DFGEN_TILE];\n";
        args += ", " + column;
      } else {
        args += ", (float*)0";
      }
    }
    out += "    {\n      const float* dims = " + c_buf(in.args[1]) +
           ";\n      dfgen_grad_rows(" + c_buf(in.args[0]) + ", " +
           c_buf(in.args[2]) + ", " + c_buf(in.args[3]) + ", " +
           c_buf(in.args[4]) +
           ",\n                      (size_t)dims[0], (size_t)dims[1], "
           "(size_t)dims[2],\n                      t0, count" +
           args + ");\n    }\n";
  }
  out +=
      "    for (size_t e = 0; e < count; ++e) {\n"
      "      const size_t gid = t0 + e;\n";
}

void c_declare(std::string& out, const std::vector<std::uint8_t>& written) {
  for (std::size_t r = 0; r < written.size(); ++r) {
    for (int lane = 0; lane < 4; ++lane) {
      if (!(written[r] & (1u << lane))) continue;
      out += "      float ";
      c_lane(out, static_cast<std::uint16_t>(r), lane);
      out += ";\n";
    }
  }
}

/// The element loop reads the tile preamble's gradient columns.
void c_grad3d(std::string& out, const Program& program, std::size_t pc,
              std::uint8_t mask) {
  const std::uint16_t dst = program.code()[pc].dst;
  for (int lane = 0; lane < 4; ++lane) {
    if (!(mask & (1u << lane))) continue;
    out += "      ";
    c_lane(out, dst, lane);
    if (lane == 3) {
      out += " = 0.0f;\n";
    } else {
      out += " = g";
      out += std::to_string(pc) + "_" + std::to_string(lane) + "[e];\n";
    }
  }
}

constexpr Dialect kC{
    .indent = "      ",
    .libm_suffix = "f",
    .lanes = live_lanes,
    .lane = c_lane,
    .buffer = [](const Program&, std::uint16_t slot) { return c_buf(slot); },
    // Exact float literal as a bit pattern: format_float round-trips
    // decimals, but a bit cast can never be misread by a foreign compiler's
    // strtof, and it represents NaN/inf immediates too.
    .constant = [](float value) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "dfgen_bits(0x%08xu) /* %s */",
                    std::bit_cast<std::uint32_t>(value),
                    support::format_float(value).c_str());
      return std::string(buf);
    },
    .open = c_open,
    .declare = c_declare,
    .grad3d = c_grad3d,
    .close = "    }\n  }\n}\n",
};

}  // namespace

std::string to_opencl_source(const Program& program) {
  return render(program, kOpenCL);
}

std::string to_c_source(const Program& program) { return render(program, kC); }

}  // namespace dfg::kernels
