// Resident device-buffer pool: cache-coherence test battery.
//
// The pool eliminates host-to-device transfers by keeping bound-array
// uploads resident across evaluations, keyed by (pointer, length,
// generation tag). Everything here is differential: pool-enabled runs must
// be bit-identical to cold runs (the NaN-class rule of tests/bitwise.hpp),
// transfer elimination must be visible in the profiling log and the report
// counters, and the explicit coherence contract must hold — a stale read
// after an unannounced host mutation is *demonstrated* (proving the
// transfers really were eliminated), and note_host_mutation /
// Engine::invalidate must restore freshness. Holding an acquired handle is
// the only pin: held entries survive eviction and replacement. The seeded
// property test drives random evaluate / mutate / evict / fault schedules
// through all four strategies against a resident_pool = false twin.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "mesh/generators.hpp"
#include "mesh/mesh.hpp"
#include "runtime/fallback.hpp"
#include "service/service.hpp"
#include "vcl/catalog.hpp"
#include "vcl/device.hpp"
#include "vcl/event.hpp"
#include "vcl/profiling.hpp"
#include "vcl/queue.hpp"
#include "vcl/resident_pool.hpp"

#include "bitwise.hpp"

namespace {

using namespace dfg;
using runtime::StrategyKind;

/// Small CPU-modelled device whose float capacity the pool tests control
/// exactly.
vcl::DeviceSpec pool_spec(std::size_t capacity_floats) {
  vcl::DeviceSpec spec;
  spec.name = "pool_test";
  spec.type = vcl::DeviceType::cpu;
  spec.global_mem_bytes = capacity_floats * sizeof(float);
  spec.compute_units = 2;
  spec.transfer_gbps = 1.0;
  spec.global_mem_gbps = 20.0;
  spec.gflops = 50.0;
  return spec;
}

std::vector<float> ramp(std::size_t n, float base) {
  std::vector<float> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = base + static_cast<float>(i);
  }
  return values;
}

/// Exact involutive mutation: flipping the sign bit never rounds, so a
/// differential arm can replay it bit-identically.
void negate(std::vector<float>& values) {
  for (float& x : values) x = -x;
}

struct Workload {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 8, 8});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);

  void bind(Engine& engine) {
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
  }
};

// ---------------------------------------------------------------------------
// Pool unit behaviour

TEST(ResidentPool, DisabledPoolNeverPoolsAnything) {
  vcl::Device device(pool_spec(4096));
  vcl::ProfilingLog log;
  vcl::CommandQueue queue(device, log);
  const std::vector<float> host = ramp(256, 1.0f);

  EXPECT_FALSE(device.resident().enabled());
  EXPECT_EQ(device.resident().acquire(queue, host, "u"), nullptr);
  EXPECT_FALSE(device.resident().would_hit(host));
  EXPECT_EQ(device.resident().entry_count(), 0u);
  EXPECT_EQ(device.resident().resident_bytes(), 0u);
  EXPECT_EQ(log.count(vcl::EventKind::host_to_device), 0u);
}

TEST(ResidentPool, HitEliminatesTheTransferAndCountsSavedBytes) {
  vcl::Device device(pool_spec(4096));
  vcl::ProfilingLog log;
  vcl::CommandQueue queue(device, log);
  device.resident().set_enabled(true);
  const std::vector<float> host = ramp(256, 1.0f);

  const auto first = device.resident().acquire(queue, host, "u");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(log.count(vcl::EventKind::host_to_device), 1u);
  EXPECT_TRUE(device.resident().would_hit(host));

  const auto second = device.resident().acquire(queue, host, "u");
  EXPECT_EQ(second, first);
  // The whole point: no second upload happened.
  EXPECT_EQ(log.count(vcl::EventKind::host_to_device), 1u);

  const vcl::ResidentPool::Stats stats = device.resident().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.upload_bytes_saved, host.size() * sizeof(float));
  EXPECT_EQ(device.resident().resident_bytes(), host.size() * sizeof(float));
}

TEST(ResidentPool, HostMutationBumpsGenerationAndForcesReupload) {
  vcl::Device device(pool_spec(4096));
  vcl::ProfilingLog log;
  vcl::CommandQueue queue(device, log);
  device.resident().set_enabled(true);
  std::vector<float> host = ramp(128, 2.0f);

  ASSERT_NE(device.resident().acquire(queue, host, "u"), nullptr);
  negate(host);
  vcl::note_host_mutation(host.data());

  EXPECT_FALSE(device.resident().would_hit(host));
  device.memory().reset_high_water();
  const auto fresh = device.resident().acquire(queue, host, "u");
  ASSERT_NE(fresh, nullptr);
  // The stale entry was dropped and the mutated array re-uploaded. Nobody
  // held the stale copy, so it was freed before its replacement was
  // allocated: the device never held both.
  EXPECT_EQ(log.count(vcl::EventKind::host_to_device), 2u);
  EXPECT_EQ(device.memory().high_water(), host.size() * sizeof(float));
  const vcl::ResidentPool::Stats stats = device.resident().stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.misses, 2u);
  // The re-uploaded entry is honest again.
  EXPECT_TRUE(device.resident().would_hit(host));
  EXPECT_EQ(device.resident().acquire(queue, host, "u"), fresh);
  EXPECT_EQ(device.resident().stats().hits, 1u);
}

TEST(ResidentPool, InvalidateDropsEveryLengthOfAPointer) {
  vcl::Device device(pool_spec(4096));
  vcl::ProfilingLog log;
  vcl::CommandQueue queue(device, log);
  device.resident().set_enabled(true);
  const std::vector<float> host = ramp(256, 0.0f);
  const std::span<const float> all(host);
  const std::span<const float> head = all.subspan(0, 100);

  ASSERT_NE(device.resident().acquire(queue, head, "a"), nullptr);
  ASSERT_NE(device.resident().acquire(queue, all, "b"), nullptr);
  EXPECT_EQ(device.resident().entry_count(), 2u);

  // One tag governs every length keyed on the pointer.
  vcl::note_host_mutation(host.data());
  EXPECT_FALSE(device.resident().would_hit(head));
  EXPECT_FALSE(device.resident().would_hit(all));
  ASSERT_NE(device.resident().acquire(queue, head, "a"), nullptr);
  ASSERT_NE(device.resident().acquire(queue, all, "b"), nullptr);
  EXPECT_EQ(log.count(vcl::EventKind::host_to_device), 4u);
  EXPECT_EQ(device.resident().stats().invalidations, 2u);
  EXPECT_EQ(device.resident().entry_count(), 2u);
  EXPECT_EQ(device.resident().resident_bytes(),
            (head.size() + all.size()) * sizeof(float));
}

TEST(ResidentPool, WatermarkEvictsLeastRecentlyUsed) {
  // Capacity 1024 floats, default watermark 0.5 -> 512 floats of residency.
  vcl::Device device(pool_spec(1024));
  vcl::ProfilingLog log;
  vcl::CommandQueue queue(device, log);
  device.resident().set_enabled(true);
  const std::vector<float> a = ramp(300, 1.0f);
  const std::vector<float> b = ramp(300, 2.0f);

  ASSERT_NE(device.resident().acquire(queue, a, "a"), nullptr);
  ASSERT_NE(device.resident().acquire(queue, b, "b"), nullptr);
  // Inserting b (300) next to a (300) would exceed the 512-float
  // watermark, so the older entry was evicted.
  EXPECT_EQ(device.resident().stats().evictions, 1u);
  EXPECT_FALSE(device.resident().would_hit(a));
  EXPECT_TRUE(device.resident().would_hit(b));
  EXPECT_LE(device.resident().resident_bytes(),
            device.resident().watermark_bytes());

  // An array larger than the whole watermark is never pooled.
  const std::vector<float> huge = ramp(600, 3.0f);
  EXPECT_EQ(device.resident().acquire(queue, huge, "huge"), nullptr);
  EXPECT_FALSE(device.resident().would_hit(huge));
}

TEST(ResidentPool, TransientAllocationEvictsResidentsAtTheCapacityWall) {
  vcl::Device device(pool_spec(1024));
  device.resident().set_enabled(true);
  device.resident().set_watermark_fraction(1.0);
  vcl::ProfilingLog log;
  vcl::CommandQueue queue(device, log);
  const std::vector<float> a = ramp(400, 1.0f);
  const std::vector<float> b = ramp(400, 2.0f);
  ASSERT_NE(device.resident().acquire(queue, a, "a"), nullptr);
  ASSERT_NE(device.resident().acquire(queue, b, "b"), nullptr);

  // 800 floats resident; a 400-float transient needs the LRU entry gone.
  vcl::Buffer transient = device.allocate(400);
  EXPECT_TRUE(transient.valid());
  EXPECT_EQ(device.resident().stats().evictions, 1u);
  EXPECT_FALSE(device.resident().would_hit(a));
  EXPECT_TRUE(device.resident().would_hit(b));
}

TEST(ResidentPool, PinnedResidentsAreImmuneToEviction) {
  vcl::Device device(pool_spec(1024));
  device.resident().set_enabled(true);
  device.resident().set_watermark_fraction(1.0);
  vcl::ProfilingLog log;
  vcl::CommandQueue queue(device, log);
  const std::vector<float> a = ramp(400, 1.0f);
  const std::vector<float> b = ramp(400, 2.0f);

  {
    const auto held_a = device.resident().acquire(queue, a, "a");
    const auto held_b = device.resident().acquire(queue, b, "b");
    ASSERT_NE(held_a, nullptr);
    ASSERT_NE(held_b, nullptr);
    // Everything resident is held: the transient cannot make room.
    EXPECT_THROW(device.allocate(400), DeviceOutOfMemory);
    EXPECT_EQ(device.resident().evict_lru_unpinned(), 0u);
    EXPECT_TRUE(device.resident().would_hit(a));
    EXPECT_TRUE(device.resident().would_hit(b));
  }
  // Handles dropped: eviction works again and the allocation succeeds.
  vcl::Buffer transient = device.allocate(400);
  EXPECT_TRUE(transient.valid());
  EXPECT_EQ(device.resident().stats().evictions, 1u);
}

TEST(ResidentPool, InvalidationOfAPinnedEntryDefersEraseToUnpin) {
  vcl::Device device(pool_spec(4096));
  device.resident().set_enabled(true);
  vcl::ProfilingLog log;
  vcl::CommandQueue queue(device, log);
  const std::vector<float> a = ramp(128, 1.0f);
  const std::size_t bytes = a.size() * sizeof(float);

  auto held = device.resident().acquire(queue, a, "a");
  ASSERT_NE(held, nullptr);
  vcl::note_host_mutation(a.data());
  // Stale: it may not hit again...
  EXPECT_FALSE(device.resident().would_hit(a));
  // ...and the re-acquire replaces it in the map, yet the held buffer
  // stays allocated for the running evaluation.
  ASSERT_NE(device.resident().acquire(queue, a, "a"), nullptr);
  EXPECT_EQ(device.resident().entry_count(), 1u);
  EXPECT_EQ(device.resident().resident_bytes(), bytes);
  EXPECT_EQ(device.memory().in_use(), 2 * bytes);
  // Dropping the last handle frees the stale copy.
  held.reset();
  EXPECT_EQ(device.memory().in_use(), bytes);
  EXPECT_EQ(device.resident().resident_bytes(), bytes);
}

// A stale re-acquire while the first handle is still held (the roundtrip
// walk acquires once per argument occurrence, so a mutation notice from another
// thread can land between two acquires of one evaluation). The first
// handle's storage must survive untouched, and the pool's byte count must
// cover only the live entry.
TEST(ResidentPool, StaleReacquireWhileHeldKeepsTheHeldBuffer) {
  vcl::Device device(pool_spec(8192));
  device.resident().set_enabled(true);
  vcl::ProfilingLog log;
  vcl::CommandQueue queue(device, log);
  const std::vector<float> host = ramp(1000, 1.0f);
  const std::size_t bytes = host.size() * sizeof(float);

  const auto first = device.resident().acquire(queue, host, "u");
  ASSERT_NE(first, nullptr);
  const float* first_data = first->device_view().data();

  vcl::note_host_mutation(host.data());
  const auto second = device.resident().acquire(queue, host, "u");
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second, first);

  EXPECT_EQ(first->size(), host.size());
  EXPECT_EQ(first->device_view().data(), first_data);
  EXPECT_EQ(first->device_view()[999], 1000.0f);
  EXPECT_EQ(device.resident().entry_count(), 1u);
  EXPECT_EQ(device.resident().resident_bytes(), bytes);
  EXPECT_EQ(device.memory().in_use(), 2 * bytes);
}

// Scheduled allocation faults pass through the pool untouched: the pool's
// miss allocates through Device::allocate, so a fault plan fires on the
// same allocation whether the pool is on or off.
TEST(ResidentPool, ScheduledAllocFaultSurfacesWithThePoolOn) {
  Workload wl;
  for (const bool pool : {false, true}) {
    vcl::Device device(vcl::xeon_x5660_scaled());
    EngineOptions options;
    options.resident_pool = pool;
    Engine engine(device, options);
    wl.bind(engine);
    vcl::FaultPlan plan;
    plan.fail_alloc_index = 1;
    device.fault().arm(plan);
    EXPECT_THROW(engine.evaluate("r = u + 1.0"), DeviceOutOfMemory)
        << "pool " << (pool ? "on" : "off");
    EXPECT_EQ(device.resident().entry_count(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Engine integration: transfer elimination, report counters, coherence

TEST(ResidentEngine, WarmEvaluationSkipsEveryUploadBitExactly) {
  Workload wl;
  vcl::Device cold_device(vcl::xeon_x5660_scaled());
  Engine cold(cold_device);
  wl.bind(cold);
  const EvaluationReport baseline = cold.evaluate(expressions::kQCriterion);

  vcl::Device device(vcl::xeon_x5660_scaled());
  EngineOptions options;
  options.resident_pool = true;
  Engine engine(device, options);
  wl.bind(engine);

  const EvaluationReport first = engine.evaluate(expressions::kQCriterion);
  test::expect_bits_equal(first.values, baseline.values, "first pooled run");
  EXPECT_EQ(first.resident_hits, 0u);
  EXPECT_GT(first.resident_misses, 0u);
  EXPECT_EQ(first.dev_writes, baseline.dev_writes);

  const EvaluationReport second = engine.evaluate(expressions::kQCriterion);
  test::expect_bits_equal(second.values, baseline.values, "warm pooled run");
  EXPECT_GT(second.resident_hits, 0u);
  EXPECT_EQ(second.resident_misses, 0u);
  // Every input was warm: the warm run moved zero bytes host-to-device.
  EXPECT_EQ(second.dev_writes, 0u);
  EXPECT_EQ(second.resident_upload_bytes_saved,
            baseline.dev_writes > 0 ? second.resident_upload_bytes_saved : 0);
  EXPECT_GT(second.resident_upload_bytes_saved, 0u);
  EXPECT_LT(second.sim_seconds, first.sim_seconds);
}

TEST(ResidentEngine, DisabledPoolReportsZerosAndMatchesColdCounters) {
  Workload wl;
  vcl::Device cold_device(vcl::xeon_x5660_scaled());
  Engine cold(cold_device);
  wl.bind(cold);
  const EvaluationReport a = cold.evaluate(expressions::kVelocityMagnitude);
  const EvaluationReport b = cold.evaluate(expressions::kVelocityMagnitude);
  EXPECT_EQ(a.resident_hits + a.resident_misses, 0u);
  EXPECT_EQ(b.resident_hits + b.resident_misses, 0u);
  // Without the pool, re-evaluation re-uploads everything.
  EXPECT_EQ(a.dev_writes, b.dev_writes);
  EXPECT_GT(b.dev_writes, 0u);
}

TEST(ResidentEngine, UnannouncedMutationServesStaleBitsUntilInvalidated) {
  Workload wl;
  EngineOptions options;
  options.resident_pool = true;
  vcl::Device device(vcl::xeon_x5660_scaled());
  Engine engine(device, options);
  wl.bind(engine);

  const EvaluationReport before = engine.evaluate(expressions::kQCriterion);

  // Mutate u in place without telling anyone. The warm run must serve the
  // *stale* resident copy — the hard proof that its upload was eliminated.
  negate(wl.field.u);
  const EvaluationReport stale = engine.evaluate(expressions::kQCriterion);
  test::expect_bits_equal(stale.values, before.values,
                          "stale warm run (coherence contract)");
  EXPECT_GT(stale.resident_hits, 0u);

  // Announce the mutation: the next run drops the stale resident copy,
  // re-uploads and matches a cold engine over the mutated data bit for bit.
  engine.invalidate("u");
  const EvaluationReport fresh = engine.evaluate(expressions::kQCriterion);
  EXPECT_EQ(fresh.resident_invalidations, 1u);
  EXPECT_EQ(fresh.dev_writes, 1u);

  vcl::Device cold_device(vcl::xeon_x5660_scaled());
  Engine cold(cold_device);
  wl.bind(cold);
  const EvaluationReport want = cold.evaluate(expressions::kQCriterion);
  test::expect_bits_equal(fresh.values, want.values,
                          "post-invalidate re-upload");
}

// The paper's in-situ loop (examples/insitu_host.cpp): one engine binds
// its arrays once; before every step after the first the host steps some
// components in place and announces exactly those with invalidate(), then
// evaluates again. 12^3 ABC flow, Q-criterion.
struct InSituLoop {
  static constexpr float kTwoPi = 6.28318530717958647692f;

  InSituLoop()
      : mesh(mesh::RectilinearMesh::uniform({12, 12, 12}, kTwoPi, kTwoPi,
                                            kTwoPi)),
        field(mesh::abc_flow(mesh)) {}

  mesh::RectilinearMesh mesh;
  mesh::VectorField field;

  std::vector<float>& component(const std::string& name) {
    return name == "u" ? field.u : name == "v" ? field.v : field.w;
  }

  Engine make_engine(vcl::Device& device, bool pool) {
    EngineOptions options;
    options.resident_pool = pool;
    Engine engine(device, options);
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    return engine;
  }

  /// Deterministic in-place "simulation step" of the named components.
  void advance(std::size_t step, const std::vector<std::string>& names) {
    for (const std::string& name : names) {
      std::vector<float>& a = component(name);
      for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] += 0.01f * static_cast<float>(step) +
                0.001f * static_cast<float>(i % 7);
      }
    }
  }

  std::vector<EvaluationReport> run(Engine& engine, std::size_t steps,
                                    const std::vector<std::string>& mutated) {
    std::vector<EvaluationReport> reports;
    for (std::size_t t = 0; t < steps; ++t) {
      if (t > 0) {
        advance(t, mutated);
        for (const std::string& name : mutated) engine.invalidate(name);
      }
      reports.push_back(
          engine.evaluate(expressions::kOpQCriterion, mesh.cell_count()));
    }
    return reports;
  }
};

TEST(ResidentEngine, StepLoopReuploadsOnlyTheMutatedField) {
  InSituLoop loop;
  vcl::Device device(vcl::xeon_x5660());
  Engine engine = loop.make_engine(device, /*pool=*/true);
  const std::vector<EvaluationReport> steps = loop.run(engine, 4, {"u"});

  // Step 0 is cold: all seven inputs (u, v, w + the four mesh arrays)
  // upload, none hit the pool.
  EXPECT_EQ(steps[0].resident_hits, 0u);
  EXPECT_GE(steps[0].dev_writes, 7u);

  // Every later step re-uploads exactly the mutated field; the other six
  // inputs are pool hits and move zero bytes.
  for (std::size_t t = 1; t < steps.size(); ++t) {
    EXPECT_EQ(steps[t].dev_writes, 1u) << "step " << t;
    EXPECT_EQ(steps[t].resident_hits, 6u) << "step " << t;
    // invalidate() only bumps u's generation tag; the step's own acquire
    // drops the stale copy.
    EXPECT_EQ(steps[t].resident_invalidations, 1u) << "step " << t;
    EXPECT_GT(steps[t].resident_upload_bytes_saved, 0u) << "step " << t;
  }
}

TEST(ResidentEngine, StepLoopWithoutMutationUploadsNothingAfterStepZero) {
  InSituLoop loop;
  vcl::Device device(vcl::xeon_x5660());
  Engine engine = loop.make_engine(device, /*pool=*/true);
  const std::vector<EvaluationReport> steps = loop.run(engine, 3, {});
  for (std::size_t t = 1; t < steps.size(); ++t) {
    EXPECT_EQ(steps[t].dev_writes, 0u) << "step " << t;
    EXPECT_EQ(steps[t].resident_hits, 7u) << "step " << t;
  }
}

TEST(ResidentEngine, StepLoopIsBitExactVersusAColdEnginePerStep) {
  // The pooled loop and a fresh pool-off engine per step, fed the same
  // mutation schedule, agree bit for bit at every step: transfer
  // elimination may never change a value.
  InSituLoop pooled_loop;
  vcl::Device pooled_device(vcl::xeon_x5660());
  Engine pooled = pooled_loop.make_engine(pooled_device, /*pool=*/true);
  const std::vector<std::string> mutated = {"u", "w"};
  const std::vector<EvaluationReport> steps =
      pooled_loop.run(pooled, 4, mutated);

  InSituLoop cold_loop;
  for (std::size_t t = 0; t < steps.size(); ++t) {
    if (t > 0) cold_loop.advance(t, mutated);
    vcl::Device cold_device(vcl::xeon_x5660());
    Engine cold = cold_loop.make_engine(cold_device, /*pool=*/false);
    const EvaluationReport reference = cold.evaluate(
        expressions::kOpQCriterion, cold_loop.mesh.cell_count());
    test::expect_bits_equal(steps[t].values, reference.values,
                            "step " + std::to_string(t));
  }
}

// ---------------------------------------------------------------------------
// Differential property test: seeded schedules vs resident_pool = false

constexpr StrategyKind kAllStrategies[] = {
    StrategyKind::roundtrip, StrategyKind::staged, StrategyKind::fusion,
    StrategyKind::streamed};

/// Runs one seeded schedule of evaluate / mutate / evict / fault / clear
/// steps and returns every evaluation's values. All randomness comes from
/// the seed, and mutations are sign flips, so two arms replay identically.
std::vector<std::vector<float>> run_schedule(std::uint64_t seed,
                                             StrategyKind kind,
                                             bool resident_pool) {
  std::mt19937_64 rng(seed);
  Workload wl;
  // Small enough that LRU eviction happens mid-schedule: capacity 8x one
  // field (512 cells), watermark half of it.
  vcl::Device device(pool_spec(8 * 512));
  EngineOptions options;
  options.strategy = kind;
  options.resident_pool = resident_pool;
  options.fallback = runtime::FallbackPolicy::resilient();
  Engine engine(device, options);
  wl.bind(engine);

  const char* exprs[] = {expressions::kVelocityMagnitude,
                         "e = (u + v) * w - u / (abs(w) + 1)"};
  std::vector<float>* fields[] = {&wl.field.u, &wl.field.v, &wl.field.w};
  const char* names[] = {"u", "v", "w"};

  std::vector<std::vector<float>> results;
  for (int step = 0; step < 12; ++step) {
    switch (rng() % 5) {
      case 0:
      case 1: {  // evaluate
        results.push_back(
            engine.evaluate(exprs[rng() % 2]).values);
        break;
      }
      case 2: {  // mutate + announce
        const std::size_t f = rng() % 3;
        negate(*fields[f]);
        engine.invalidate(names[f]);
        break;
      }
      case 3: {  // evict one or all (no-op for the pool-off twin)
        device.resident().evict_lru_unpinned();
        if (rng() % 2 == 0) {
          while (device.resident().evict_lru_unpinned() != 0) {
          }
        }
        break;
      }
      case 4: {  // arm a transient fault for the next evaluation
        vcl::FaultPlan plan;
        plan.seed = static_cast<std::uint32_t>(rng());
        plan.fail_write_index = 1 + rng() % 3;
        plan.transient_count = 1;
        device.fault().arm(plan);
        results.push_back(engine.evaluate(exprs[rng() % 2]).values);
        device.fault().disarm();
        break;
      }
    }
  }
  return results;
}

TEST(ResidentDifferential, SeededSchedulesMatchPoolDisabledBitwise) {
  for (const StrategyKind kind : kAllStrategies) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const std::vector<std::vector<float>> with_pool =
          run_schedule(seed, kind, true);
      // The identical schedule down the cold path.
      const std::vector<std::vector<float>> without_pool =
          run_schedule(seed, kind, false);

      ASSERT_EQ(with_pool.size(), without_pool.size());
      for (std::size_t i = 0; i < with_pool.size(); ++i) {
        test::expect_bits_equal(
            with_pool[i], without_pool[i],
            std::string(runtime::strategy_name(kind)) + " seed " +
                std::to_string(seed) + " evaluation " + std::to_string(i));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Evaluation service: residency under concurrency and eviction

TEST(ResidentService, SnapshotMatchesDevicePoolStats) {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 8, 8});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  vcl::Device device(vcl::xeon_x5660_scaled());

  service::ServiceOptions options;
  options.resident_pool = true;
  options.coalescing = false;
  service::ServiceSnapshot snapshot;
  {
    service::EvalService svc({&device}, options);
    for (int i = 0; i < 3; ++i) {
      service::Request request;
      request.expression = expressions::kVelocityMagnitude;
      request.mesh = &mesh;
      request.fields = {{"u", field.u}, {"v", field.v}, {"w", field.w}};
      svc.submit(request).wait();
    }
    snapshot = svc.snapshot();
  }

  EXPECT_EQ(snapshot.failed_requests, 0u);
  EXPECT_GT(snapshot.resident_hits, 0u);
  const vcl::ResidentPool::Stats stats = device.resident().stats();
  EXPECT_EQ(snapshot.resident_hits, stats.hits);
  EXPECT_EQ(snapshot.resident_misses, stats.misses);
  EXPECT_EQ(snapshot.resident_evictions, stats.evictions);
  EXPECT_EQ(snapshot.resident_invalidations, stats.invalidations);
  EXPECT_EQ(snapshot.resident_upload_bytes_saved, stats.upload_bytes_saved);
}

TEST(ResidentService, ConcurrentTenantsUnderEvictionPressureComplete) {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 8, 8});
  const std::size_t cells = mesh.cell_count();

  // Per-tenant private copies of the flow: distinct pointers mean distinct
  // resident entries, so four tenants' arrays cannot all fit under the
  // watermark and the pool churns while the two workers race.
  mesh::VectorField shared_flow = mesh::rayleigh_taylor_flow(mesh);
  struct Tenant {
    std::string session;
    std::vector<float> u, v, w;
  };
  std::vector<Tenant> tenants;
  for (int t = 0; t < 4; ++t) {
    Tenant tenant;
    tenant.session = "tenant-" + std::to_string(t);
    tenant.u = shared_flow.u;
    tenant.v = shared_flow.v;
    tenant.w = shared_flow.w;
    negate(tenant.v);  // give tenants distinguishable data
    tenants.push_back(std::move(tenant));
  }

  // Capacity 16x one field; watermark 0.25 -> 4 fields resident at most,
  // while 4 tenants want 12 (plus mesh arrays): guaranteed eviction churn.
  vcl::Device device_a(pool_spec(16 * cells));
  vcl::Device device_b(pool_spec(16 * cells));
  device_a.resident().set_watermark_fraction(0.25);
  device_b.resident().set_watermark_fraction(0.25);

  service::ServiceOptions options;
  options.resident_pool = true;
  options.coalescing = false;
  options.max_queue_depth = 256;
  service::ServiceSnapshot snapshot;
  {
    service::EvalService svc({&device_a, &device_b}, options);
    std::vector<service::Ticket> tickets;
    for (int round = 0; round < 6; ++round) {
      for (const Tenant& tenant : tenants) {
        service::Request request;
        request.expression = expressions::kVelocityMagnitude;
        request.mesh = &mesh;
        request.fields = {
            {"u", tenant.u}, {"v", tenant.v}, {"w", tenant.w}};
        request.session = tenant.session;
        tickets.push_back(svc.submit(request));
      }
    }
    for (const service::Ticket& ticket : tickets) {
      EXPECT_EQ(ticket.wait().status, service::RequestStatus::completed);
    }
    svc.drain();
    snapshot = svc.snapshot();
  }

  EXPECT_EQ(snapshot.failed_requests, 0u);
  EXPECT_GT(snapshot.resident_misses, 0u);
  EXPECT_GT(snapshot.resident_evictions, 0u);
  // No use-after-evict: every request completed, and both devices closed
  // the run with their books balanced.
  EXPECT_LE(device_a.resident().resident_bytes(),
            device_a.resident().watermark_bytes());
  EXPECT_LE(device_b.resident().resident_bytes(),
            device_b.resident().watermark_bytes());
}

// The coherence contract under *concurrent* invalidation. One tenant's
// evaluations hold handles on the shared entries while another host thread
// hammers Engine::invalidate on the same arrays and evicts from the pool —
// the TSan hole this exercises is the generation table, the pool's entry
// map, the handles' reference counts and the MemoryTracker's accounting
// racing the worker. It must be data-race-free, every evaluation must
// complete, and — because the host bytes never actually change — every
// result must stay bit-identical to a cold run (an announced invalidation
// may only cost a re-upload, never correctness).
TEST(ResidentPoolService, ConcurrentInvalidateWhilePinnedIsCoherentAndSafe) {
  const mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 6, 4});
  const std::size_t cells = mesh.cell_count();
  mesh::VectorField flow = mesh::rayleigh_taylor_flow(mesh);

  std::vector<float> reference;
  {
    vcl::Device cold(pool_spec(64 * cells));
    Engine engine(cold);
    engine.bind_mesh(mesh);
    engine.bind("u", flow.u);
    engine.bind("v", flow.v);
    engine.bind("w", flow.w);
    reference = engine.evaluate(expressions::kVelocityMagnitude).values;
  }

  vcl::Device device(pool_spec(64 * cells));
  device.resident().set_watermark_fraction(0.5);

  // The invalidator engine shares the device and arrays but never
  // enqueues device work: invalidate() touches only the generation table —
  // what a host owner does when it announces a mutation of arrays another
  // session's in-flight evaluation holds.
  Engine invalidator(device);
  invalidator.bind_mesh(mesh);
  invalidator.bind("u", flow.u);
  invalidator.bind("v", flow.v);
  invalidator.bind("w", flow.w);

  service::ServiceOptions options;
  options.resident_pool = true;
  options.coalescing = false;
  options.max_queue_depth = 1024;
  {
    service::EvalService svc({&device}, options);
    std::atomic<bool> stop{false};
    std::thread hammer([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        invalidator.invalidate("u");
        invalidator.invalidate("v");
        invalidator.invalidate("w");
        device.resident().evict_lru_unpinned();
      }
    });
    std::vector<service::Ticket> tickets;
    for (int round = 0; round < 40; ++round) {
      service::Request request;
      request.expression = expressions::kVelocityMagnitude;
      request.mesh = &mesh;
      request.fields = {{"u", flow.u}, {"v", flow.v}, {"w", flow.w}};
      request.session = "pinned-tenant";
      tickets.push_back(svc.submit(request));
    }
    for (const service::Ticket& ticket : tickets) {
      const service::ServiceReport& report = ticket.wait();
      ASSERT_EQ(report.status, service::RequestStatus::completed)
          << report.error;
      dfg::test::expect_bits_equal(report.evaluation->values, reference,
                                   "concurrent invalidate storm");
    }
    stop.store(true, std::memory_order_relaxed);
    hammer.join();
    svc.drain();
  }
  // The storm over: held entries were never evicted mid-use, and the
  // books balance.
  EXPECT_LE(device.resident().resident_bytes(),
            device.resident().watermark_bytes());
}

}  // namespace
