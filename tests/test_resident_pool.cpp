// Resident device-buffer pool: cache-coherence test battery.
//
// The pool eliminates host-to-device transfers by keeping bound-array
// uploads resident across evaluations, keyed by (pointer, length,
// generation tag). Everything here is differential: pool-enabled runs must
// be bit-identical to cold runs (the NaN-class rule of tests/bitwise.hpp),
// transfer elimination must be visible in the profiling log and the report
// counters, and the explicit coherence contract must hold — a stale read
// after an unannounced host mutation is *demonstrated* (proving the
// transfers really were eliminated), and note_host_mutation / invalidate
// must restore freshness. The seeded property test drives random
// evaluate / mutate / evict / fault schedules through all four strategies
// against a resident_pool = false twin.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "mesh/generators.hpp"
#include "mesh/mesh.hpp"
#include "runtime/bindings.hpp"
#include "runtime/fallback.hpp"
#include "runtime/planner.hpp"
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

  const vcl::Buffer* first = device.resident().acquire(queue, host, "u");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(log.count(vcl::EventKind::host_to_device), 1u);
  EXPECT_TRUE(device.resident().would_hit(host));

  const vcl::Buffer* second = device.resident().acquire(queue, host, "u");
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
  const vcl::Buffer* fresh = device.resident().acquire(queue, host, "u");
  ASSERT_NE(fresh, nullptr);
  // The stale entry was dropped and the mutated array re-uploaded.
  EXPECT_EQ(log.count(vcl::EventKind::host_to_device), 2u);
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

  ASSERT_NE(device.resident().acquire(queue, all.subspan(0, 100), "a"),
            nullptr);
  ASSERT_NE(device.resident().acquire(queue, all, "b"), nullptr);
  EXPECT_EQ(device.resident().entry_count(), 2u);

  device.resident().invalidate(host.data());
  EXPECT_EQ(device.resident().entry_count(), 0u);
  EXPECT_EQ(device.resident().resident_bytes(), 0u);
  EXPECT_EQ(device.resident().stats().invalidations, 2u);
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
    vcl::ResidentPool::PinScope pins(device.resident());
    ASSERT_NE(device.resident().acquire(queue, a, "a"), nullptr);
    ASSERT_NE(device.resident().acquire(queue, b, "b"), nullptr);
    // Everything resident is pinned: the transient cannot make room.
    EXPECT_THROW(device.allocate(400), DeviceOutOfMemory);
    EXPECT_TRUE(device.resident().would_hit(a));
    EXPECT_TRUE(device.resident().would_hit(b));
  }
  // Scope closed: eviction works again and the allocation succeeds.
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

  {
    vcl::ResidentPool::PinScope pins(device.resident());
    ASSERT_NE(device.resident().acquire(queue, a, "a"), nullptr);
    device.resident().invalidate(a.data());
    // Doomed but pinned: it may not hit again, yet its buffer must stay
    // alive for the running evaluation.
    EXPECT_FALSE(device.resident().would_hit(a));
    EXPECT_EQ(device.resident().entry_count(), 1u);
  }
  EXPECT_EQ(device.resident().entry_count(), 0u);
  EXPECT_EQ(device.resident().resident_bytes(), 0u);
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

  // Announce the mutation: the resident copy is dropped, the next run
  // re-uploads and matches a cold engine over the mutated data bit for bit.
  engine.invalidate("u");
  const EvaluationReport fresh = engine.evaluate(expressions::kQCriterion);
  EXPECT_GE(fresh.resident_invalidations, 0u);  // dropped before evaluate
  EXPECT_GT(fresh.dev_writes, 0u);

  vcl::Device cold_device(vcl::xeon_x5660_scaled());
  Engine cold(cold_device);
  wl.bind(cold);
  const EvaluationReport want = cold.evaluate(expressions::kQCriterion);
  test::expect_bits_equal(fresh.values, want.values,
                          "post-invalidate re-upload");
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
      case 3: {  // evict (no-op for the pool-off twin)
        device.resident().evict_lru_unpinned();
        if (rng() % 2 == 0) device.resident().clear();
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
// Residency-aware planning

TEST(ResidentPlanner, ProbeReflectsTheDevicePoolState) {
  Workload wl;
  runtime::FieldBindings bindings;
  bindings.bind_mesh(wl.mesh);
  bindings.bind("u", wl.field.u);
  bindings.bind("v", wl.field.v);
  bindings.bind("w", wl.field.w);
  const dataflow::Network network(
      dataflow::build_network(expressions::kVelocityMagnitude));

  vcl::Device device(vcl::tesla_m2050_scaled());
  const runtime::Residency cold =
      runtime::Residency::probe(device, bindings, network);
  EXPECT_TRUE(cold.warm.empty());

  EngineOptions options;
  options.resident_pool = true;
  Engine engine(device, options);
  wl.bind(engine);
  engine.evaluate(expressions::kVelocityMagnitude);

  const runtime::Residency warm =
      runtime::Residency::probe(device, bindings, network);
  EXPECT_TRUE(warm.is_warm("u"));
  EXPECT_TRUE(warm.is_warm("v"));
  EXPECT_TRUE(warm.is_warm("w"));
}

TEST(ResidentPlanner, WarmEstimatesPriceTransfersAtZero) {
  Workload wl;
  runtime::FieldBindings bindings;
  bindings.bind_mesh(wl.mesh);
  bindings.bind("u", wl.field.u);
  bindings.bind("v", wl.field.v);
  bindings.bind("w", wl.field.w);
  const dataflow::Network network(
      dataflow::build_network(expressions::kVelocityMagnitude));
  const std::size_t elements = wl.mesh.cell_count();
  const vcl::DeviceSpec spec = vcl::tesla_m2050_scaled();

  runtime::Residency warm;
  warm.warm = {"u", "v", "w"};

  for (const StrategyKind kind :
       {StrategyKind::roundtrip, StrategyKind::staged, StrategyKind::fusion}) {
    EXPECT_LT(runtime::estimate_sim_seconds(network, bindings, elements, spec,
                                            kind, 0, &warm),
              runtime::estimate_sim_seconds(network, bindings, elements, spec,
                                            kind))
        << runtime::strategy_name(kind);
    // Warm working sets never exceed cold ones; the peak may coincide when
    // it is reached among intermediates (roundtrip/staged on this network).
    EXPECT_LE(runtime::estimate_high_water(network, bindings, elements, kind,
                                           0, &warm),
              runtime::estimate_high_water(network, bindings, elements, kind))
        << runtime::strategy_name(kind);
  }
  // Fusion's working set is inputs + output, so full warmth strictly
  // shrinks it to the output alone.
  EXPECT_LT(runtime::estimate_high_water(network, bindings, elements,
                                         StrategyKind::fusion, 0, &warm),
            runtime::estimate_high_water(network, bindings, elements,
                                         StrategyKind::fusion));
  // Streamed slices per chunk, so its estimates deliberately stay cold.
  EXPECT_EQ(runtime::estimate_sim_seconds(network, bindings, elements, spec,
                                          StrategyKind::streamed, 0, &warm),
            runtime::estimate_sim_seconds(network, bindings, elements, spec,
                                          StrategyKind::streamed));
}

TEST(ResidentPlanner, WarmCheapRungsBeatColdFusionOnTransferBoundDevices) {
  // The planning claim behind the pool: on a PCIe-bound device the warm
  // re-evaluation of a cheaper rung undercuts a cold fused first run,
  // because the cold run must pay the full input upload the warm one
  // skips. Roundtrip needs a shallow network for this (its intermediate
  // host round-trips are never warm); staged inverts even on a deep one.
  Workload wl;
  runtime::FieldBindings bindings;
  bindings.bind_mesh(wl.mesh);
  bindings.bind("u", wl.field.u);
  bindings.bind("v", wl.field.v);
  bindings.bind("w", wl.field.w);
  const std::size_t elements = wl.mesh.cell_count();

  vcl::DeviceSpec spec = vcl::tesla_m2050_scaled();
  spec.transfer_gbps = 0.05;  // starve the link: uploads dominate
  runtime::Residency warm;
  warm.warm = {"u", "v", "w", "x", "y", "z", "dims"};

  const dataflow::Network deep(
      dataflow::build_network(expressions::kVelocityMagnitude));
  EXPECT_LT(runtime::estimate_sim_seconds(deep, bindings, elements, spec,
                                          StrategyKind::staged, 0, &warm),
            runtime::estimate_sim_seconds(deep, bindings, elements, spec,
                                          StrategyKind::fusion));

  const dataflow::Network shallow(
      dataflow::build_network("s = (u + v) * w"));
  EXPECT_LT(runtime::estimate_sim_seconds(shallow, bindings, elements, spec,
                                          StrategyKind::roundtrip, 0, &warm),
            runtime::estimate_sim_seconds(shallow, bindings, elements, spec,
                                          StrategyKind::fusion));
}

TEST(ResidentPlanner, SelectFastestMatchesArgminOfFeasibleEstimates) {
  Workload wl;
  runtime::FieldBindings bindings;
  bindings.bind_mesh(wl.mesh);
  bindings.bind("u", wl.field.u);
  bindings.bind("v", wl.field.v);
  bindings.bind("w", wl.field.w);
  const dataflow::Network network(
      dataflow::build_network(expressions::kVelocityMagnitude));
  const std::size_t elements = wl.mesh.cell_count();
  vcl::Device device(vcl::tesla_m2050_scaled());

  // Cold, no residency: must agree with the static preference selector.
  EXPECT_EQ(runtime::select_fastest_strategy(network, bindings, elements,
                                             device),
            runtime::select_strategy(network, bindings, elements, device));

  runtime::Residency warm;
  warm.warm = {"u", "v", "w"};
  const StrategyKind picked = runtime::select_fastest_strategy(
      network, bindings, elements, device, &warm);
  // Differential: nothing feasible may beat the pick's warm estimate.
  const double picked_sim = runtime::estimate_sim_seconds(
      network, bindings, elements, device.spec(), picked, 0, &warm);
  for (const StrategyKind kind : kAllStrategies) {
    const std::size_t hw = runtime::estimate_high_water(
        network, bindings, elements, kind, 0, &warm);
    if (hw > device.effective_available()) continue;
    EXPECT_LE(picked_sim,
              runtime::estimate_sim_seconds(network, bindings, elements,
                                            device.spec(), kind, 0, &warm))
        << runtime::strategy_name(kind);
  }
}

TEST(ResidentPlanner, AutoStrategyEngineStaysBitExactAcrossWarmRuns) {
  Workload wl;
  vcl::Device cold_device(vcl::tesla_m2050_scaled());
  Engine cold(cold_device);
  wl.bind(cold);
  const EvaluationReport baseline =
      cold.evaluate(expressions::kVelocityMagnitude);

  EngineOptions options;
  options.resident_pool = true;
  options.auto_strategy = true;
  vcl::Device device(vcl::tesla_m2050_scaled());
  Engine engine(device, options);
  wl.bind(engine);
  const EvaluationReport first =
      engine.evaluate(expressions::kVelocityMagnitude);
  const EvaluationReport second =
      engine.evaluate(expressions::kVelocityMagnitude);
  test::expect_bits_equal(first.values, baseline.values, "auto cold");
  test::expect_bits_equal(second.values, baseline.values, "auto warm");
  EXPECT_GT(second.resident_hits, 0u);
  EXPECT_LT(second.sim_seconds, first.sim_seconds);
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

// Satellite of the sharding PR: the coherence contract under *concurrent*
// invalidation. One tenant's evaluations hold PinScopes on the shared
// entries while another host thread hammers Engine::invalidate on the
// same arrays — the historical TSan hole this exercises is the pool's
// entry map and the MemoryTracker's accounting racing the worker. With
// the internal locks this must be data-race-free, every evaluation must
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
  // enqueues device work: invalidate() touches only the generation table
  // and the pool — what a host owner does when it announces a mutation of
  // arrays another session's in-flight evaluation has pinned.
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
  // The storm over: pinned entries were never evicted mid-use, and the
  // books balance.
  EXPECT_LE(device.resident().resident_bytes(),
            device.resident().watermark_bytes());
}

}  // namespace
