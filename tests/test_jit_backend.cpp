// Tests for the jit execution backend (src/kernels/backend.*, jit.*) and
// the pre-codegen rewrite pass (src/kernels/rewrites.*).
//
// The jit pipeline — emit C for a fused program, invoke the system
// toolchain, dlopen the result — is exercised for real here: these tests
// compile shared objects into the process temp directory. Covered:
// compile-once-run-many caching, LRU eviction under a capacity cap,
// graceful degradation to the VM when the toolchain is broken (poisoned
// DFGEN_JIT_CC — the regression test for "auto never errors"), the
// in-flight dedup that makes concurrent prepares of one fingerprint
// compile exactly once, and the auto backend's tiers: VM launches while
// only a program launched twice is compiled, on a background thread.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "kernels/backend.hpp"
#include "kernels/generator.hpp"
#include "kernels/optimizer.hpp"
#include "kernels/program.hpp"
#include "kernels/program_cache.hpp"
#include "kernels/rewrites.hpp"
#include "kernels/source_printer.hpp"
#include "kernels/vm.hpp"
#include "mesh/generators.hpp"
#include "mesh/mesh.hpp"
#include "obs/metrics.hpp"
#include "runtime/bindings.hpp"
#include "support/error.hpp"
#include "vcl/catalog.hpp"
#include "vcl/device.hpp"

#include "bitwise.hpp"

namespace {

using namespace dfg;

struct JitFixture {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({6, 5, 4});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);

  runtime::FieldBindings bindings() const {
    runtime::FieldBindings b;
    b.bind_mesh(mesh);
    b.bind("u", field.u);
    b.bind("v", field.v);
    b.bind("w", field.w);
    return b;
  }

  kernels::Program program(const std::string& text) const {
    const dataflow::Network network(dataflow::build_network(text));
    return kernels::optimize_program(kernels::generate_fused(network));
  }

  /// Runs `kernel` over the whole mesh and compares bitwise against the
  /// scalar interpreter.
  void expect_matches_scalar(const kernels::CompiledKernel& kernel,
                             const kernels::Program& program) const {
    const runtime::FieldBindings b = bindings();
    std::vector<kernels::BufferBinding> inputs;
    for (const kernels::BufferParam& param : program.params()) {
      const std::span<const float> view = b.get(param.name);
      inputs.push_back({view.data(), view.size()});
    }
    const std::size_t n = mesh.cell_count();
    std::vector<float> got(n * program.out_stride());
    std::vector<float> want(n * program.out_stride());
    kernel.run(program, inputs, got.data(), got.size(), 0, n);
    kernels::run_scalar(program, inputs, want.data(), want.size(), 0, n);
    EXPECT_EQ(test::first_bit_mismatch(got, want),
              static_cast<std::size_t>(-1));
  }
};

/// RAII poison/restore for DFGEN_JIT_CC. Poisoning changes the cache key
/// (fingerprint ^ compiler command), so the broken-toolchain entries never
/// shadow the healthy ones and vice versa.
struct PoisonedToolchain {
  PoisonedToolchain() {
    ::setenv("DFGEN_JIT_CC", "/nonexistent/dfgen-no-such-cc", 1);
  }
  ~PoisonedToolchain() { ::unsetenv("DFGEN_JIT_CC"); }
};

std::uint64_t counter_total(const char* name) {
  obs::MetricsRegistry& reg = obs::metrics();
  return reg.counter_value(reg.counter(name));
}
std::uint64_t deferred_launches() {
  return counter_total("dfgen_jit_deferred_launches_total");
}
std::uint64_t jit_fallbacks() {
  return counter_total("dfgen_jit_fallbacks_total");
}

/// Waits until the module cache has finished `compiles` toolchain runs.
/// False after a generous timeout (sanitizer builds compile slowly too).
bool wait_for_compiles(std::uint64_t compiles) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (kernels::ProgramCache::instance().jit_stats().compiles < compiles) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// Prepares `program` under auto until it returns native code. Null after
/// the timeout.
std::shared_ptr<const kernels::CompiledKernel> prepare_until_jit(
    const kernels::Program& program) {
  const auto backend = kernels::backend_for(kernels::BackendKind::auto_select);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    auto kernel = backend->prepare(program);
    if (kernel->kind() == kernels::BackendKind::jit) return kernel;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return nullptr;
}

TEST(JitBackend, CompilesRunsAndMatchesScalarBits) {
  JitFixture fx;
  const kernels::Program program =
      fx.program("q = sqrt(u * u + v * v) + grad3d(w, dims, x, y, z)[2]");
  const auto backend = kernels::backend_for(kernels::BackendKind::jit);
  const auto kernel = backend->prepare(program);
  ASSERT_EQ(kernel->kind(), kernels::BackendKind::jit);
  fx.expect_matches_scalar(*kernel, program);
}

TEST(JitBackend, SecondPrepareIsACacheHitNotARecompile) {
  JitFixture fx;
  const kernels::Program program = fx.program("q = u * 2 + v / (w + 100)");
  const auto backend = kernels::backend_for(kernels::BackendKind::jit);
  backend->prepare(program);  // may compile or hit, depending on history
  const kernels::JitCacheStats before =
      kernels::ProgramCache::instance().jit_stats();
  const auto again = backend->prepare(program);
  const kernels::JitCacheStats after =
      kernels::ProgramCache::instance().jit_stats();
  EXPECT_EQ(again->kind(), kernels::BackendKind::jit);
  EXPECT_EQ(after.compiles, before.compiles);
  EXPECT_EQ(after.hits, before.hits + 1);
}

TEST(JitBackend, CapacityCapEvictsLeastRecentlyUsedModule) {
  JitFixture fx;
  kernels::ProgramCache& cache = kernels::ProgramCache::instance();
  const std::size_t old_cap = cache.jit_capacity();
  cache.clear();  // start from an empty module cache
  cache.set_jit_capacity(2);

  const kernels::Program a = fx.program("q = u + 0.5");
  const kernels::Program b = fx.program("q = v + 1.5");
  const kernels::Program c = fx.program("q = w + 3.25");
  const auto backend = kernels::backend_for(kernels::BackendKind::jit);

  backend->prepare(a);
  backend->prepare(b);
  backend->prepare(a);  // touch a: b is now the LRU entry
  const kernels::JitCacheStats before = cache.jit_stats();
  backend->prepare(c);  // capacity 2: evicts b
  const kernels::JitCacheStats evicted = cache.jit_stats();
  EXPECT_EQ(evicted.evictions, before.evictions + 1);

  // a survived the eviction (hit); b must compile again (miss).
  backend->prepare(a);
  const kernels::JitCacheStats hit_a = cache.jit_stats();
  EXPECT_EQ(hit_a.compiles, evicted.compiles);
  backend->prepare(b);
  const kernels::JitCacheStats miss_b = cache.jit_stats();
  EXPECT_EQ(miss_b.compiles, evicted.compiles + 1);

  cache.set_jit_capacity(old_cap);
}

TEST(JitBackend, PoisonedToolchainFallsBackToVmWithCorrectResults) {
  JitFixture fx;
  const kernels::Program program = fx.program("q = max(u, v) * tanh(w)");
  const kernels::JitCacheStats before =
      kernels::ProgramCache::instance().jit_stats();
  PoisonedToolchain poison;
  const auto backend = kernels::backend_for(kernels::BackendKind::jit);
  const auto kernel = backend->prepare(program);  // must not throw
  const kernels::JitCacheStats after =
      kernels::ProgramCache::instance().jit_stats();
  EXPECT_EQ(kernel->kind(), kernels::BackendKind::vm);
  EXPECT_EQ(after.compile_failures, before.compile_failures + 1);
  // The degraded kernel still computes the right bits.
  fx.expect_matches_scalar(*kernel, program);
  // A second prepare re-reads the negative-cached failure: no second
  // toolchain invocation, same VM fallback.
  const auto again = backend->prepare(program);
  EXPECT_EQ(again->kind(), kernels::BackendKind::vm);
  EXPECT_EQ(kernels::ProgramCache::instance().jit_stats().compiles,
            after.compiles);
}

TEST(JitBackend, AutoBackendNeverErrorsUnderPoisonedToolchain) {
  // The satellite regression test: a full Engine evaluation on the auto
  // backend with a broken DFGEN_JIT_CC must succeed end to end — per-
  // program degradation to the VM, zero failures surfaced to the caller.
  JitFixture fx;
  PoisonedToolchain poison;
  vcl::Device device{vcl::xeon_x5660_scaled()};
  EngineOptions options;
  options.backend = kernels::BackendKind::auto_select;
  Engine engine(device, options);
  engine.bind_mesh(fx.mesh);
  engine.bind("u", fx.field.u);
  engine.bind("v", fx.field.v);
  engine.bind("w", fx.field.w);
  const EvaluationReport report =
      engine.evaluate("q = sqrt(u * u + v * v + w * w)");
  EXPECT_EQ(report.backend, std::string("auto"));
  ASSERT_EQ(report.values.size(), fx.mesh.cell_count());

  // Same bits as an explicit VM run.
  EngineOptions vm_options;
  vm_options.backend = kernels::BackendKind::vm;
  vcl::Device vm_device{vcl::xeon_x5660_scaled()};
  Engine vm_engine(vm_device, vm_options);
  vm_engine.bind_mesh(fx.mesh);
  vm_engine.bind("u", fx.field.u);
  vm_engine.bind("v", fx.field.v);
  vm_engine.bind("w", fx.field.w);
  const EvaluationReport vm_report =
      vm_engine.evaluate("q = sqrt(u * u + v * v + w * w)");
  EXPECT_EQ(test::first_bit_mismatch(report.values, vm_report.values),
            static_cast<std::size_t>(-1));
}

TEST(JitBackend, AutoRunsAFirstLaunchOnTheVmWithoutCompiling) {
  JitFixture fx;
  const kernels::Program program = fx.program("q = u * 1.25 + v * w");
  kernels::ProgramCache& cache = kernels::ProgramCache::instance();
  cache.clear();
  const auto backend = kernels::backend_for(kernels::BackendKind::auto_select);
  const kernels::JitCacheStats before = cache.jit_stats();
  const std::uint64_t deferred = deferred_launches();

  const auto kernel = backend->prepare(program);
  EXPECT_EQ(kernel->kind(), kernels::BackendKind::vm);
  fx.expect_matches_scalar(*kernel, program);
  EXPECT_EQ(deferred_launches(), deferred + 1);

  // clear() forgets the launch: the next one is a first launch again.
  cache.clear();
  EXPECT_EQ(backend->prepare(program)->kind(), kernels::BackendKind::vm);
  const kernels::JitCacheStats after = cache.jit_stats();
  EXPECT_EQ(after.compiles, before.compiles);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(JitBackend, AutoCompilesASecondLaunchInTheBackground) {
  JitFixture fx;
  const kernels::Program program = fx.program("q = (u - v) * (w + 0.125)");
  kernels::ProgramCache& cache = kernels::ProgramCache::instance();
  cache.clear();
  const auto backend = kernels::backend_for(kernels::BackendKind::auto_select);
  const kernels::JitCacheStats before = cache.jit_stats();
  const std::uint64_t deferred = deferred_launches();
  const std::uint64_t fallbacks = jit_fallbacks();

  EXPECT_EQ(backend->prepare(program)->kind(), kernels::BackendKind::vm);
  // The second launch queues the compile and runs on the VM at once: had
  // it waited for the compiler, it would have returned native code.
  const auto second = backend->prepare(program);
  EXPECT_EQ(second->kind(), kernels::BackendKind::vm);
  EXPECT_EQ(cache.jit_stats().misses, before.misses + 1);
  EXPECT_EQ(deferred_launches(), deferred + 2);
  fx.expect_matches_scalar(*second, program);

  ASSERT_TRUE(wait_for_compiles(before.compiles + 1));
  for (int launch = 0; launch < 3; ++launch) {
    const auto kernel = backend->prepare(program);
    ASSERT_EQ(kernel->kind(), kernels::BackendKind::jit);
    fx.expect_matches_scalar(*kernel, program);
  }
  const kernels::JitCacheStats after = cache.jit_stats();
  EXPECT_EQ(after.compiles, before.compiles + 1);
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.compile_failures, before.compile_failures);
  EXPECT_EQ(deferred_launches(), deferred + 2);
  EXPECT_EQ(jit_fallbacks(), fallbacks);
}

TEST(JitBackend, AutoNegativeCachesABackgroundCompileFailure) {
  JitFixture fx;
  const kernels::Program program = fx.program("q = min(u, w) - exp(v * 0.5)");
  kernels::ProgramCache& cache = kernels::ProgramCache::instance();
  const auto backend = kernels::backend_for(kernels::BackendKind::auto_select);
  const kernels::JitCacheStats before = cache.jit_stats();
  const std::uint64_t deferred = deferred_launches();
  const std::uint64_t fallbacks = jit_fallbacks();
  PoisonedToolchain poison;

  // Tier-0 launches are not fallbacks: nothing has failed yet.
  EXPECT_EQ(backend->prepare(program)->kind(), kernels::BackendKind::vm);
  EXPECT_EQ(backend->prepare(program)->kind(), kernels::BackendKind::vm);
  EXPECT_EQ(jit_fallbacks(), fallbacks);
  ASSERT_TRUE(wait_for_compiles(before.compiles + 1));
  EXPECT_EQ(cache.jit_stats().compile_failures, before.compile_failures + 1);

  // From here on every launch falls back exactly as under `jit`: counted,
  // VM results, and no second toolchain run.
  const auto third = backend->prepare(program);
  EXPECT_EQ(third->kind(), kernels::BackendKind::vm);
  EXPECT_EQ(jit_fallbacks(), fallbacks + 1);
  fx.expect_matches_scalar(*third, program);
  EXPECT_EQ(backend->prepare(program)->kind(), kernels::BackendKind::vm);
  EXPECT_EQ(jit_fallbacks(), fallbacks + 2);
  EXPECT_EQ(cache.jit_stats().compiles, before.compiles + 1);
  EXPECT_EQ(deferred_launches(), deferred + 2);
}

TEST(JitBackend, ClearWhileABackgroundCompileIsPendingIsSafe) {
  JitFixture fx;
  const kernels::Program a = fx.program("q = u * v * 0.375 + w");
  const kernels::Program b = fx.program("q = (v + w) / (abs(u) + 2)");
  kernels::ProgramCache& cache = kernels::ProgramCache::instance();
  const auto backend = kernels::backend_for(kernels::BackendKind::auto_select);
  for (const kernels::Program* program : {&a, &b, &a, &b}) {
    EXPECT_EQ(backend->prepare(*program)->kind(), kernels::BackendKind::vm);
  }
  // Two compiles are queued; b's cannot have started yet.
  cache.clear();
  for (const kernels::Program* program : {&a, &b}) {
    const auto kernel = prepare_until_jit(*program);
    ASSERT_NE(kernel, nullptr);
    fx.expect_matches_scalar(*kernel, *program);
  }
}

TEST(JitBackend, AutoSeriesStaysBitExactWhenTheCompileLandsMidSeries) {
  JitFixture fx;
  const std::string expression = "q = sqrt(u * u + w * w) * 0.75 + v";
  constexpr std::size_t kSteps = 6;
  kernels::ProgramCache::instance().clear();
  const kernels::JitCacheStats before =
      kernels::ProgramCache::instance().jit_stats();
  const std::uint64_t deferred = deferred_launches();

  // Steps 0 and 1 run on the VM (the second queues the compile); step 2
  // waits for the compile to land, so the remaining steps run native code.
  const auto run_steps = [&](kernels::BackendKind kind) {
    vcl::Device device{vcl::xeon_x5660_scaled()};
    EngineOptions options;
    options.strategy = runtime::StrategyKind::fusion;
    options.backend = kind;
    Engine engine(device, options);
    std::vector<float> u = fx.field.u;
    engine.bind_mesh(fx.mesh);
    engine.bind("u", u);
    engine.bind("v", fx.field.v);
    engine.bind("w", fx.field.w);
    std::vector<std::vector<float>> steps;
    for (std::size_t step = 0; step < kSteps; ++step) {
      if (step > 0) {
        for (float& value : u) value *= 1.0625f;
        engine.invalidate("u");
      }
      if (kind == kernels::BackendKind::auto_select && step == 2) {
        EXPECT_TRUE(wait_for_compiles(before.compiles + 1));
      }
      steps.push_back(
          engine.evaluate(expression, fx.mesh.cell_count()).values);
    }
    return steps;
  };
  const std::vector<std::vector<float>> tiered =
      run_steps(kernels::BackendKind::auto_select);
  const std::vector<std::vector<float>> vm =
      run_steps(kernels::BackendKind::vm);

  EXPECT_EQ(deferred_launches(), deferred + 2);
  EXPECT_EQ(kernels::ProgramCache::instance().jit_stats().compiles,
            before.compiles + 1);
  ASSERT_EQ(tiered.size(), kSteps);
  ASSERT_EQ(vm.size(), kSteps);
  for (std::size_t step = 0; step < kSteps; ++step) {
    EXPECT_EQ(test::first_bit_mismatch(tiered[step], vm[step]),
              static_cast<std::size_t>(-1))
        << "step " << step;
  }
}

TEST(JitBackend, ConcurrentPreparesOfOneFingerprintCompileExactlyOnce) {
  JitFixture fx;
  // A fresh expression shape so no earlier test has this fingerprint
  // cached; clear() drops completed modules either way.
  const kernels::Program program =
      fx.program("q = floor(u) + ceil(v) + pow(abs(w) + 1, 0.5)");
  kernels::ProgramCache::instance().clear();
  const kernels::JitCacheStats before =
      kernels::ProgramCache::instance().jit_stats();

  const auto backend = kernels::backend_for(kernels::BackendKind::jit);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const kernels::CompiledKernel>> kernels_out(
      kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { kernels_out[t] = backend->prepare(program); });
  }
  for (std::thread& thread : threads) thread.join();

  const kernels::JitCacheStats after =
      kernels::ProgramCache::instance().jit_stats();
  EXPECT_EQ(after.compiles, before.compiles + 1)
      << "racing prepares must join the in-flight compile, not duplicate it";
  for (const auto& kernel : kernels_out) {
    ASSERT_NE(kernel, nullptr);
    EXPECT_EQ(kernel->kind(), kernels::BackendKind::jit);
    fx.expect_matches_scalar(*kernel, program);
  }
}

/// q = (u * a + b) * c, the constants as immediates.
kernels::Program affine_program(float a, float b, float c) {
  kernels::ProgramBuilder builder("affine");
  const std::uint16_t u = builder.emit_load_global(builder.add_param("u"));
  const std::uint16_t ra = builder.emit_load_const(a);
  const std::uint16_t rb = builder.emit_load_const(b);
  const std::uint16_t rc = builder.emit_load_const(c);
  const std::uint16_t scaled = builder.emit_binary(kernels::Op::mul, u, ra);
  const std::uint16_t shifted =
      builder.emit_binary(kernels::Op::add, scaled, rb);
  return builder.finish(builder.emit_binary(kernels::Op::mul, shifted, rc), 1);
}

TEST(JitBackend, ProgramsSharingAFingerprintGetTheirOwnModules) {
  // Found offline by a rho search over the immediates' bytes: the two
  // programs share fingerprint 0x1517ee3353b8ca08.
  const kernels::Program first =
      affine_program(0x1.03c5p+0f, 0x1.a9b9e8p+0f, 0x1.22b5f6p-7f);
  const kernels::Program second =
      affine_program(0x1.3dcc76p+0f, 0x1.d7493cp+0f, -0x1.22b47ap+3f);
  ASSERT_EQ(first.fingerprint(), second.fingerprint());

  JitFixture fx;
  kernels::ProgramCache& cache = kernels::ProgramCache::instance();
  const auto jit = kernels::backend_for(kernels::BackendKind::jit);
  for (const bool tiered : {false, true}) {
    cache.clear();
    for (const kernels::Program* program : {&first, &second}) {
      const auto kernel =
          tiered ? prepare_until_jit(*program) : jit->prepare(*program);
      ASSERT_NE(kernel, nullptr);
      ASSERT_EQ(kernel->kind(), kernels::BackendKind::jit);
      fx.expect_matches_scalar(*kernel, *program);
    }
    // Both modules stay cached: asking again compiles nothing.
    const std::uint64_t compiles = cache.jit_stats().compiles;
    const auto module_first = cache.jit_module(first);
    const auto module_second = cache.jit_module(second);
    EXPECT_NE(module_first, nullptr);
    EXPECT_NE(module_first, module_second);
    EXPECT_EQ(cache.jit_stats().compiles, compiles);
  }
}

TEST(JitBackend, GeneratedSourceIsSelfContained) {
  JitFixture fx;
  const kernels::Program program =
      fx.program("q = select(u > v, sin(u), grad3d(w, dims, x, y, z)[0])");
  const std::string source = kernels::to_c_source(program);
  EXPECT_NE(source.find(kernels::kJitEntryName), std::string::npos);
  EXPECT_NE(source.find("restrict"), std::string::npos);
  EXPECT_NE(source.find("dfgen_grad_rows"), std::string::npos);
  // No C++ leakage: the unit must compile as plain C.
  EXPECT_EQ(source.find("std::"), std::string::npos);
  EXPECT_EQ(source.find("namespace"), std::string::npos);
}

TEST(JitBackend, BadGrad3dDimsAreRefusedBeforeTheCompiledKernelRuns) {
  // The compiled kernel casts dims to size_t itself, so the launch
  // validation it shares with the VM must refuse every extent that is not
  // a finite integer in [1, 2^24], and a cell count that overflows.
  JitFixture fx;
  const kernels::Program program =
      fx.program("q = grad3d(u, dims, x, y, z)[0]");
  const auto kernel =
      kernels::backend_for(kernels::BackendKind::jit)->prepare(program);
  ASSERT_EQ(kernel->kind(), kernels::BackendKind::jit);

  const float inf = std::numeric_limits<float>::infinity();
  std::vector<std::vector<float>> bad_dims;
  for (const float x : {std::nanf(""), inf, -inf, -1.0f, 0.0f, 2.5f, 1e30f}) {
    bad_dims.push_back({x, 5.0f, 4.0f});
  }
  bad_dims.push_back({16777216.0f, 16777216.0f, 16777216.0f});

  const runtime::FieldBindings b = fx.bindings();
  const std::size_t n = fx.mesh.cell_count();
  std::vector<float> out(n * program.out_stride());
  const auto launch = [&](const std::vector<float>& dims) {
    std::vector<kernels::BufferBinding> inputs;
    for (const kernels::BufferParam& param : program.params()) {
      if (param.name == "dims") {
        inputs.push_back({dims.data(), dims.size()});
      } else {
        const std::span<const float> view = b.get(param.name);
        inputs.push_back({view.data(), view.size()});
      }
    }
    kernel->run(program, inputs, out.data(), out.size(), 0, n);
  };
  // The same launch with the mesh's own dims runs, so dims alone cause
  // each refusal.
  EXPECT_NO_THROW(launch({6.0f, 5.0f, 4.0f}));
  for (const std::vector<float>& dims : bad_dims) {
    EXPECT_THROW(launch(dims), KernelError)
        << dims[0] << "," << dims[1] << "," << dims[2];
  }
}

// ----- the shared pre-codegen rewrite pass -----

TEST(NetworkRewrites, DoubleNegationEdgesSkipBothSignFlips) {
  const dataflow::Network network(dataflow::build_network(
      "t0 = -(-u)\n"
      "q = t0 + v"));
  kernels::NetworkRewriteStats stats;
  const dataflow::NetworkSpec rewritten =
      kernels::rewrite_network(network.spec(), &stats);
  EXPECT_EQ(stats.double_negation, 1u);
  EXPECT_EQ(stats.total(), 1u);
  // Node count is preserved (ids are load-bearing); only edges moved.
  EXPECT_EQ(rewritten.nodes().size(), network.spec().nodes().size());
}

TEST(NetworkRewrites, AbsRulesCollapse) {
  const dataflow::Network network(dataflow::build_network(
      "t0 = abs(abs(u))\n"
      "t1 = abs(-v)\n"
      "q = t0 + t1"));
  kernels::NetworkRewriteStats stats;
  kernels::rewrite_network(network.spec(), &stats);
  EXPECT_GE(stats.nested_abs, 1u);
  EXPECT_GE(stats.abs_of_negation, 1u);
}

TEST(NetworkRewrites, CleanNetworkRewritesToZeroMoves) {
  const dataflow::Network network(
      dataflow::build_network("q = sqrt(u * u + v * v)"));
  kernels::NetworkRewriteStats stats;
  kernels::rewrite_network(network.spec(), &stats);
  EXPECT_EQ(stats.total(), 0u);
}

TEST(NetworkRewrites, RewrittenProgramsStayBitExact) {
  JitFixture fx;
  // Optimized codegen runs the rewrite pass; raw codegen does not. Both
  // must produce identical bits on every backend (spot-check scalar vs the
  // jit of the rewritten program).
  const std::string text =
      "t0 = -(-(u * v))\n"
      "t1 = abs(-(t0 + w))\n"
      "q = abs(abs(t1)) + t0";
  const dataflow::Network network(dataflow::build_network(text));
  const kernels::Program raw = kernels::generate_fused(network);
  const kernels::FusedPipeline optimized =
      kernels::generate_fused_pipeline(network);
  ASSERT_EQ(optimized.stages.size(), 1u);

  const runtime::FieldBindings b = fx.bindings();
  const auto run_scalar_of = [&](const kernels::Program& program) {
    std::vector<kernels::BufferBinding> inputs;
    for (const kernels::BufferParam& param : program.params()) {
      const std::span<const float> view = b.get(param.name);
      inputs.push_back({view.data(), view.size()});
    }
    const std::size_t n = fx.mesh.cell_count();
    std::vector<float> out(n * program.out_stride());
    kernels::run_scalar(program, inputs, out.data(), out.size(), 0, n);
    return out;
  };
  EXPECT_EQ(test::first_bit_mismatch(run_scalar_of(raw),
                                     run_scalar_of(optimized.stages[0].program)),
            static_cast<std::size_t>(-1));

  const auto jit = kernels::backend_for(kernels::BackendKind::jit)
                       ->prepare(optimized.stages[0].program);
  fx.expect_matches_scalar(*jit, optimized.stages[0].program);
}

TEST(NetworkRewrites, RewireInputValidatesItsArguments) {
  dataflow::NetworkSpec spec =
      dataflow::build_network("t0 = u + v\nq = t0 * t0");
  int filter_id = -1;
  for (const dataflow::SpecNode& node : spec.nodes()) {
    if (node.type == dataflow::NodeType::filter && node.kind == "mult") {
      filter_id = node.id;
    }
  }
  ASSERT_GE(filter_id, 0);
  // Forward edges (consumer before producer) are structurally impossible
  // and must be rejected, as must out-of-range argument indices.
  EXPECT_THROW(spec.rewire_input(filter_id, 0, filter_id),
               dfg::NetworkError);
  EXPECT_THROW(spec.rewire_input(filter_id, 99, 0), dfg::NetworkError);
}

}  // namespace
