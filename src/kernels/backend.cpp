#include "kernels/backend.hpp"

#include <cstdio>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "kernels/jit.hpp"
#include "kernels/program_cache.hpp"
#include "obs/metrics.hpp"
#include "support/env.hpp"

namespace dfg::kernels {

namespace {

class VmKernel final : public CompiledKernel {
 public:
  BackendKind kind() const override { return BackendKind::vm; }
  void run(const Program& program, std::span<const BufferBinding> inputs,
           float* out, std::size_t out_elements, std::size_t begin,
           std::size_t end) const override {
    kernels::run(program, inputs, out, out_elements, begin, end);
  }
};

class ScalarKernel final : public CompiledKernel {
 public:
  BackendKind kind() const override { return BackendKind::scalar; }
  void run(const Program& program, std::span<const BufferBinding> inputs,
           float* out, std::size_t out_elements, std::size_t begin,
           std::size_t end) const override {
    kernels::run_scalar(program, inputs, out, out_elements, begin, end);
  }
};

class JitKernel final : public CompiledKernel {
 public:
  explicit JitKernel(std::shared_ptr<const jit::Module> module)
      : module_(std::move(module)) {}
  BackendKind kind() const override { return BackendKind::jit; }
  void run(const Program& program, std::span<const BufferBinding> inputs,
           float* out, std::size_t out_elements, std::size_t begin,
           std::size_t end) const override {
    module_->execute(program, inputs, out, out_elements, begin, end);
  }

 private:
  std::shared_ptr<const jit::Module> module_;
};

class VmBackend final : public ExecutionBackend {
 public:
  BackendKind kind() const override { return BackendKind::vm; }
  std::shared_ptr<const CompiledKernel> prepare(const Program&) override {
    static const std::shared_ptr<const CompiledKernel> kernel =
        std::make_shared<const VmKernel>();
    return kernel;
  }
};

class ScalarBackend final : public ExecutionBackend {
 public:
  BackendKind kind() const override { return BackendKind::scalar; }
  std::shared_ptr<const CompiledKernel> prepare(const Program&) override {
    static const std::shared_ptr<const CompiledKernel> kernel =
        std::make_shared<const ScalarKernel>();
    return kernel;
  }
};

/// The degradation event: counted every time a launch that wanted native
/// code runs interpreted instead, warned to stderr once per program
/// fingerprint (the compile failure itself — with the toolchain's output —
/// was already reported by the module cache when it was negative-cached).
/// A hash is enough: a collision only drops one duplicate warning.
void note_jit_fallback(const Program& program) {
  obs::MetricsRegistry& reg = obs::metrics();
  reg.add(reg.counter("dfgen_jit_fallbacks_total"));
  static std::mutex mutex;
  static std::set<std::uint64_t> warned;
  std::scoped_lock lock(mutex);
  if (warned.insert(program.fingerprint()).second) {
    std::fprintf(stderr,
                 "[dfgen] jit backend: kernel '%s' falls back to the vm "
                 "interpreter (compile unavailable; results identical)\n",
                 program.name().c_str());
  }
}

/// The kernel for a settled module lookup: native code, or the VM with the
/// fallback counted when the compile failed.
std::shared_ptr<const CompiledKernel> jit_or_fallback(
    const Program& program, std::shared_ptr<const jit::Module> module) {
  if (module != nullptr) {
    return std::make_shared<const JitKernel>(std::move(module));
  }
  note_jit_fallback(program);
  return backend_for(BackendKind::vm)->prepare(program);
}

/// Blocks on the first launch of each program until its compile is done.
class JitBackend final : public ExecutionBackend {
 public:
  BackendKind kind() const override { return BackendKind::jit; }
  double compute_efficiency() const override { return kCompiledEfficiency; }
  std::shared_ptr<const CompiledKernel> prepare(
      const Program& program) override {
    return jit_or_fallback(program,
                           ProgramCache::instance().jit_module(program));
  }
};

/// Tiered: never waits for a compiler. Launches run on the VM (tier 0,
/// counted in dfgen_jit_deferred_launches_total) until the program's
/// module is loaded; only a program launched twice is compiled, on the
/// program cache's background thread (ProgramCache::tiered_jit_module).
/// Launches are priced at the nominal compiled efficiency whichever tier
/// runs them, so simulated seconds and planner estimates stay
/// deterministic; the tiers are bit-identical, so results are too.
class AutoBackend final : public ExecutionBackend {
 public:
  BackendKind kind() const override { return BackendKind::auto_select; }
  double compute_efficiency() const override { return kCompiledEfficiency; }
  std::shared_ptr<const CompiledKernel> prepare(
      const Program& program) override {
    std::optional<std::shared_ptr<const jit::Module>> module =
        ProgramCache::instance().tiered_jit_module(program);
    if (module.has_value()) return jit_or_fallback(program, *std::move(module));
    obs::MetricsRegistry& reg = obs::metrics();
    reg.add(reg.counter("dfgen_jit_deferred_launches_total"));
    return backend_for(BackendKind::vm)->prepare(program);
  }
};

}  // namespace

const char* backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::scalar:
      return "scalar";
    case BackendKind::vm:
      return "vm";
    case BackendKind::jit:
      return "jit";
    case BackendKind::auto_select:
      return "auto";
  }
  return "vm";
}

std::optional<BackendKind> parse_backend(std::string_view name) {
  if (name == "scalar") return BackendKind::scalar;
  if (name == "vm") return BackendKind::vm;
  if (name == "jit") return BackendKind::jit;
  if (name == "auto") return BackendKind::auto_select;
  return std::nullopt;
}

std::shared_ptr<ExecutionBackend> backend_for(BackendKind kind) {
  static const std::shared_ptr<ExecutionBackend> scalar =
      std::make_shared<ScalarBackend>();
  static const std::shared_ptr<ExecutionBackend> vm =
      std::make_shared<VmBackend>();
  static const std::shared_ptr<ExecutionBackend> jit =
      std::make_shared<JitBackend>();
  static const std::shared_ptr<ExecutionBackend> auto_select =
      std::make_shared<AutoBackend>();
  switch (kind) {
    case BackendKind::scalar:
      return scalar;
    case BackendKind::jit:
      return jit;
    case BackendKind::auto_select:
      return auto_select;
    case BackendKind::vm:
      break;
  }
  return vm;
}

BackendKind default_backend_kind() {
  const std::string value = support::env::get_string("DFGEN_BACKEND", "");
  if (value.empty()) return BackendKind::vm;
  const std::optional<BackendKind> parsed = parse_backend(value);
  if (parsed.has_value()) return *parsed;
  static std::once_flag warned;
  std::call_once(warned, [&value] {
    std::fprintf(stderr,
                 "[dfgen] DFGEN_BACKEND=%s is not one of "
                 "{scalar, vm, jit, auto}; using vm\n",
                 value.c_str());
  });
  return BackendKind::vm;
}

}  // namespace dfg::kernels
