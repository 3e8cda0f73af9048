// Kernel layer: pluggable execution backends.
//
// A vcl::Device names an ExecutionBackend that realizes kernel launches on
// the host: the tiled bytecode VM (VmBackend, the default), the
// element-at-a-time interpreter (ScalarBackend, the bit-exact oracle),
// native code generation (JitBackend: emit a C translation unit for the
// fused program, compile it with the system toolchain, dlopen the entry
// point — the paper's PyOpenCL runtime-codegen story), or the tiered mix
// of the last two (AutoBackend: the VM until a program's module is loaded;
// a program launched twice is compiled off the caller's thread). A backend
// only changes *how* a launch body computes: command streams, watchdogs,
// fault injection, transfer integrity, metrics and the fallback ladder are
// untouched, and every backend produces bit-identical results.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "kernels/program.hpp"
#include "kernels/vm.hpp"

namespace dfg::kernels {

enum class BackendKind {
  scalar,       ///< element-at-a-time interpreter (differential oracle)
  vm,           ///< tiled bytecode VM (the default)
  jit,          ///< native codegen, compiled on first launch (blocking);
                ///< degrades to the VM per program
  auto_select,  ///< tiered: vm until the program's module is loaded; a
                ///< program launched twice is compiled in the background
};

/// Stable lower-case name ("scalar", "vm", "jit", "auto").
const char* backend_name(BackendKind kind);

/// Parses a DFGEN_BACKEND value; nullopt for anything unrecognised.
std::optional<BackendKind> parse_backend(std::string_view name);

/// One program prepared for execution by a backend. run() has kernels::run
/// semantics (absolute global ids, disjoint [begin, end) chunks) and is
/// safe to call from concurrent worker chunks; `program` must be the same
/// program the kernel was prepared from.
class CompiledKernel {
 public:
  virtual ~CompiledKernel() = default;
  /// The backend that actually realizes this kernel — `vm` when a jit
  /// prepare degraded to the interpreter.
  virtual BackendKind kind() const = 0;
  virtual void run(const Program& program,
                   std::span<const BufferBinding> inputs, float* out,
                   std::size_t out_elements, std::size_t begin,
                   std::size_t end) const = 0;
};

/// Cost-model efficiency factors per backend family. Interpreted dispatch
/// matches vcl::CostModel::kComputeEfficiency (0.35), keeping historical
/// simulated timings for backend-unaware code; compiled kernels are
/// credited with twice the derated rate — intermediates stay in machine
/// registers instead of making one pass through L1 per instruction.
inline constexpr double kInterpretedEfficiency = 0.35;
inline constexpr double kCompiledEfficiency = 0.70;

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;
  virtual BackendKind kind() const = 0;
  const char* name() const { return backend_name(kind()); }
  /// Fraction of the device's peak flop rate the cost model credits
  /// kernels launched under this backend.
  virtual double compute_efficiency() const { return kInterpretedEfficiency; }
  /// Returns an executable for `program`. Never null, and never throws for
  /// toolchain problems: the jit and auto backends fall back to the VM per
  /// program (counted in dfgen_jit_fallbacks_total) instead of failing the
  /// launch.
  virtual std::shared_ptr<const CompiledKernel> prepare(
      const Program& program) = 0;
};

/// The process-wide instance of each backend (stateless or internally
/// synchronized; shared freely across devices and threads).
std::shared_ptr<ExecutionBackend> backend_for(BackendKind kind);

/// The process-default backend: DFGEN_BACKEND={scalar,vm,jit,auto}, vm
/// when unset or unrecognised. Re-read on every call so a harness can flip
/// the variable between evaluations.
BackendKind default_backend_kind();

}  // namespace dfg::kernels
