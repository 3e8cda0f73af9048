// Kernel layer: native code generation for the jit backend.
//
// Turns one fused Program into a compiled shared object: render the C
// translation unit (to_c_source, the source emitter's C dialect), invoke
// the system C
// compiler (DFGEN_JIT_CC, `cc` by default), dlopen the result and resolve
// the entry point. This is the paper's runtime-codegen story made literal —
// where the PyOpenCL framework hands generated OpenCL C to the vendor
// compiler per expression, we hand generated C99 to the host toolchain and
// amortise the compile over every subsequent launch (compile-once,
// run-many via ProgramCache::jit_module).
//
// Compilation is strictly best-effort at the call sites: compile() throws
// KernelError naming the stage that failed (compiler exit status, dlopen,
// dlsym) and the jit backend degrades that program to the VM instead of
// failing the launch.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "kernels/program.hpp"
#include "kernels/vm.hpp"

namespace dfg::kernels::jit {

/// A loaded shared object and its resolved kernel entry point. Owns the
/// dlopen handle (released on destruction, so the module cache's eviction
/// unloads the object once the last outstanding kernel drops its
/// reference).
class Module {
 public:
  using EntryFn = void (*)(const float* const* bufs, float* out,
                           std::size_t begin, std::size_t end);

  Module(void* handle, EntryFn entry, std::string object_path);
  ~Module();
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// kernels::run semantics (absolute global ids, disjoint chunks are safe
  /// to execute concurrently). Runs the interpreters' prevalidation first
  /// so a malformed launch reports the same KernelError on every backend,
  /// then marshals the bindings' data pointers into the C ABI.
  void execute(const Program& program, std::span<const BufferBinding> inputs,
               float* out, std::size_t out_elements, std::size_t begin,
               std::size_t end) const;

  /// Path of the .so on disk (diagnostics and tests).
  const std::string& object_path() const { return object_path_; }

 private:
  void* handle_ = nullptr;
  EntryFn entry_ = nullptr;
  std::string object_path_;
};

/// The compiler command line prefix: DFGEN_JIT_CC when set, "cc"
/// otherwise. Re-read on every module-cache lookup so a poisoned value can
/// be fixed without restarting the process (the module cache keys entries
/// by fingerprint *and* this command, so the fix is picked up
/// immediately).
std::string compiler_command();

/// Renders, compiles with `cc` (a compiler_command() value) and loads
/// `program`. Artifacts live under a per-process directory
/// (<tmp>/dfgen-jit/p<pid>) so concurrent processes never collide; the
/// object is written to a .tmp name and renamed into place only after the
/// compiler succeeded. Throws KernelError on any failure, with the tail of
/// the compiler log when the toolchain is the culprit.
std::shared_ptr<const Module> compile(const Program& program,
                                      const std::string& cc);

/// Best-effort cleanup of jit artifacts left behind by other, now-dead
/// processes (directory name encodes the owning pid; liveness is probed
/// with kill(pid, 0)) plus stray .tmp objects of our own crashed compiles.
/// Called once when the process-wide module cache first opens. Returns the
/// number of filesystem entries removed.
std::size_t reap_stale_artifacts();

}  // namespace dfg::kernels::jit
