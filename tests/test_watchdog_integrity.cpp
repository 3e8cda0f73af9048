// Watchdog + integrity tests: the deterministic defenses against the three
// new fault families. Slowdowns below the deadline complete (slowly),
// severe slowdowns and hangs are abandoned at the deadline as T-Out events
// and retried, bit-flipped transfers are caught by the end-to-end checksum
// before a corrupted value can propagate, and every defensive layer is a
// pure observer on a healthy device — fault-free runs must produce event
// streams byte-identical to a policy-off run (the paper's Table II counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "mesh/generators.hpp"
#include "runtime/fallback.hpp"
#include "runtime/strategy.hpp"
#include "support/checksum.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "vcl/catalog.hpp"
#include "vcl/trace.hpp"

namespace {

using namespace dfg;
using runtime::StrategyKind;

/// Writes `trace` under DFGEN_TRACE_DIR (when set) so CI can upload the
/// fault-injection traces as artifacts; a no-op for local runs.
void dump_trace_artifact(const std::string& name, const std::string& trace) {
  const std::string dir = support::env::get_string("DFGEN_TRACE_DIR", "");
  if (dir.empty()) return;
  std::filesystem::create_directories(dir);
  std::ofstream out(dir + "/" + name + ".trace.json");
  out << trace;
}

struct WatchdogFixture {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 8, 8});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  // Declared before `reference`: clean_reference() assigns it.
  double clean_sim_seconds = 0.0;
  std::vector<float> reference = clean_reference();

  std::vector<float> clean_reference() {
    vcl::Device device(vcl::xeon_x5660_scaled());
    EngineOptions options;
    options.strategy = StrategyKind::fusion;
    Engine engine(device, options);
    bind(engine);
    const EvaluationReport report = engine.evaluate(expressions::kQCriterion);
    clean_sim_seconds = report.sim_seconds;
    return report.values;
  }

  void bind(Engine& engine) {
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
  }

  Engine make(vcl::Device& device, EngineOptions options) {
    Engine engine(device, options);
    bind(engine);
    return engine;
  }

  EngineOptions resilient(StrategyKind kind = StrategyKind::fusion) {
    EngineOptions options;
    options.strategy = kind;
    options.fallback.enabled = true;
    return options;
  }
};

// ---------------------------------------------------------------- slowdown

TEST(Watchdog, MildSlowdownCompletesSlowlyWithoutTimeouts) {
  WatchdogFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.slow_command_index = 1;  // every command
  plan.slowdown_factor = 4.0;   // under the default deadline factor of 8
  device.fault().arm(plan);
  Engine engine = fx.make(device, fx.resilient());

  const EvaluationReport report = engine.evaluate(expressions::kQCriterion);
  EXPECT_EQ(report.command_timeouts, 0u);
  EXPECT_EQ(report.checksum_mismatches, 0u);
  EXPECT_TRUE(report.degradations.empty());
  EXPECT_EQ(report.values, fx.reference)
      << "a slow device must still compute the exact field";
  // Every command is charged 4x its estimate.
  EXPECT_NEAR(report.sim_seconds, 4.0 * fx.clean_sim_seconds,
              1e-9 * fx.clean_sim_seconds);
}

TEST(Watchdog, SevereSlowdownTimesOutEveryRungAndEscapes) {
  WatchdogFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.slow_command_index = 1;
  plan.slowdown_factor = 50.0;  // far past the deadline factor of 8
  device.fault().arm(plan);
  Engine engine = fx.make(device, fx.resilient());

  // The slowdown follows the device down the whole ladder, so even the
  // resilient policy cannot complete: DeviceTimeout escapes from every
  // rung. A slowdown is a device-wide condition, so the watchdog fails
  // fast instead of burning its retry budget — one bounded deadline
  // charge per rung, four in total.
  EXPECT_THROW(engine.evaluate(expressions::kQCriterion), DeviceTimeout);
  EXPECT_EQ(engine.log().count(vcl::EventKind::timeout), 4u);
  dump_trace_artifact("severe_slowdown", vcl::to_chrome_trace(engine.log()));
}

TEST(Watchdog, DisabledWatchdogLetsSlowCommandsFinish) {
  WatchdogFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.slow_command_index = 1;
  plan.slowdown_factor = 50.0;
  device.fault().arm(plan);
  EngineOptions options = fx.resilient();
  options.fallback.deadline_factor = 0.0;  // watchdog off
  Engine engine = fx.make(device, options);

  const EvaluationReport report = engine.evaluate(expressions::kQCriterion);
  EXPECT_EQ(report.command_timeouts, 0u);
  EXPECT_EQ(report.values, fx.reference);
  EXPECT_NEAR(report.sim_seconds, 50.0 * fx.clean_sim_seconds,
              1e-9 * fx.clean_sim_seconds);
}

// -------------------------------------------------------------------- hang

TEST(Watchdog, HangIsAbandonedAtTheDeadlineAndAbsorbedByOneRetry) {
  WatchdogFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.hang_command_index = 2;  // the second command never completes
  device.fault().arm(plan);
  Engine engine = fx.make(device, fx.resilient());

  const EvaluationReport report = engine.evaluate(expressions::kQCriterion);
  // The retry is a fresh command (index 3), so one timeout absorbs it.
  EXPECT_EQ(report.command_timeouts, 1u);
  EXPECT_TRUE(report.degradations.empty());
  EXPECT_EQ(report.values, fx.reference);
  // The deadline was charged to the timeline: the device was tied up.
  EXPECT_GT(report.sim_seconds, fx.clean_sim_seconds);
}

TEST(Watchdog, ExhaustedTimeoutsDegradeOneRung) {
  WatchdogFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.hang_command_index = 1;
  device.fault().arm(plan);
  EngineOptions options = fx.resilient();
  options.fallback.retry.max_attempts = 1;  // no second chance
  Engine engine = fx.make(device, options);

  const EvaluationReport report = engine.evaluate(expressions::kQCriterion);
  EXPECT_EQ(report.strategy, "streamed");
  ASSERT_EQ(report.degradations.size(), 1u);
  EXPECT_NE(report.degradations[0].reason.find("deadline"),
            std::string::npos);
  EXPECT_EQ(report.command_timeouts, 1u);
  EXPECT_EQ(report.values, fx.reference);
}

TEST(Watchdog, HangTimesOutEvenWithSlowdownDetectionDisabled) {
  WatchdogFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.hang_command_index = 2;
  device.fault().arm(plan);
  EngineOptions options = fx.resilient();
  options.fallback.deadline_factor = 0.0;
  Engine engine = fx.make(device, options);

  const EvaluationReport report = engine.evaluate(expressions::kQCriterion);
  EXPECT_EQ(report.command_timeouts, 1u);
  EXPECT_EQ(report.values, fx.reference);
}

// ---------------------------------------------------------------- bit-flip

TEST(Integrity, FlippedWriteIsDetectedAndReExecuted) {
  WatchdogFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.corrupt_write_index = 1;  // first upload corrupted once
  device.fault().arm(plan);
  Engine engine = fx.make(device, fx.resilient());

  const EvaluationReport report = engine.evaluate(expressions::kQCriterion);
  EXPECT_EQ(report.checksum_mismatches, 1u);
  EXPECT_GE(report.injected_faults, 1u);  // the bit-flip is a fault event
  EXPECT_TRUE(report.degradations.empty());
  EXPECT_EQ(report.values, fx.reference)
      << "the corrupted word must never reach the derived field";
  dump_trace_artifact("bit_flip_write", vcl::to_chrome_trace(engine.log()));
}

TEST(Integrity, FlippedReadbackIsDetectedAndReExecuted) {
  WatchdogFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.corrupt_read_index = 1;  // the result transfer corrupted once
  device.fault().arm(plan);
  Engine engine = fx.make(device, fx.resilient());

  const EvaluationReport report = engine.evaluate(expressions::kQCriterion);
  EXPECT_EQ(report.checksum_mismatches, 1u);
  EXPECT_EQ(report.values, fx.reference);
}

TEST(Integrity, PersistentCorruptionEscalatesAsDataCorruption) {
  WatchdogFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.corrupt_write_index = 1;
  plan.corrupt_count = 3;  // defeats the three-attempt budget
  device.fault().arm(plan);
  Engine engine = fx.make(device, fx.resilient());

  // Degrading cannot fix a corrupting link, so the fallback policy must
  // not mask it: the typed error reaches the caller.
  EXPECT_THROW(engine.evaluate(expressions::kQCriterion), DataCorruption);
  EXPECT_EQ(engine.log().count(vcl::EventKind::integrity), 3u);
}

TEST(Integrity, EveryWordOfEveryTransferIsCovered) {
  // The checksum covers every word, so any single flipped word — at any
  // extent — changes the digest. Spot-check a one-block buffer here; the
  // multi-block layout is checked below.
  std::vector<float> data(1000, 1.5f);
  const std::uint64_t clean = support::checksum_floats(data, 42);
  for (const std::size_t word : {0u, 1u, 499u, 998u, 999u}) {
    std::vector<float> flipped = data;
    flipped[word] = 1.5000001f;
    EXPECT_NE(support::checksum_floats(flipped, 42), clean)
        << "flip at word " << word << " went undetected";
  }
  // Truncation is not a collision either.
  EXPECT_NE(support::checksum_floats(
                std::span<const float>(data).first(999), 42),
            clean);
}

TEST(Integrity, MultiBlockChecksumCoversEveryWordAtAnyWorkerCount) {
  // Three full blocks and a 5-word tail: not a multiple of the lane count,
  // so the tail block holds a partial lane group.
  constexpr std::size_t kBlock = support::kChecksumBlockWords;
  constexpr std::size_t kWords = 3 * kBlock + 5;
  static_assert(kWords % support::kChecksumLanes != 0);
  std::vector<float> data(kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    data[i] = static_cast<float>(i % 977) * 0.25f;
  }
  const std::uint64_t clean = support::checksum_floats(data, 42);

  std::vector<std::size_t> words{0, kWords - 1};
  for (std::size_t b = 1; b <= 3; ++b) {
    words.push_back(b * kBlock - 1);  // last word of block b - 1
    words.push_back(b * kBlock);      // first word of block b
  }
  for (std::size_t lane = 0; lane < support::kChecksumLanes; ++lane) {
    words.push_back(kBlock + 8 * 100 + lane);  // one word per lane
  }
  for (const std::size_t word : words) {
    std::vector<float> flipped = data;
    std::uint32_t bits;
    std::memcpy(&bits, &flipped[word], sizeof(bits));
    bits ^= 1u << 3;
    std::memcpy(&flipped[word], &bits, sizeof(bits));
    EXPECT_NE(support::checksum_floats(flipped, 42), clean)
        << "flip at word " << word << " (block " << word / kBlock
        << ", lane " << word % support::kChecksumLanes
        << ") went undetected";
  }

  // Truncating exactly at a block boundary is not a collision.
  for (std::size_t b = 1; b <= 3; ++b) {
    EXPECT_NE(support::checksum_floats(
                  std::span<const float>(data).first(b * kBlock), 42),
              clean)
        << "truncation at block " << b;
  }

  // The empty span has one fixed digest.
  const std::uint64_t empty = support::checksum_floats({}, 42);
  EXPECT_EQ(support::checksum_floats(std::span<const float>(), 42), empty);
  EXPECT_NE(empty, clean);

  // The block size, not the worker count, fixes the digest.
  for (const std::size_t workers : {1u, 2u, 3u, 4u}) {
    support::set_worker_count(workers);
    EXPECT_EQ(support::checksum_floats(data, 42), clean)
        << "digest changed under " << workers << " workers";
    EXPECT_EQ(support::checksum_floats({}, 42), empty);
  }
  support::set_worker_count(0);
}

TEST(Integrity, CopyChecksumCopiesBitExactlyAndReturnsTheSourceDigest) {
  constexpr std::size_t kBlock = support::kChecksumBlockWords;
  for (const std::size_t words :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        kBlock - 1, kBlock, kBlock + 1, 3 * kBlock + 5}) {
    std::vector<float> from(words);
    for (std::size_t i = 0; i < words; ++i) {
      // Arbitrary bit patterns, NaN payloads included: the copy moves bits.
      const std::uint32_t bits =
          static_cast<std::uint32_t>(i * 2654435761u) ^ 0x7fc00000u;
      std::memcpy(&from[i], &bits, sizeof(bits));
    }
    const std::uint64_t expected = support::checksum_floats(from, 42);
    for (const std::size_t workers : {1u, 2u, 3u, 4u}) {
      support::set_worker_count(workers);
      // One word longer than the source: the tail must stay untouched.
      std::vector<float> to(words + 1, 0.0f);
      EXPECT_EQ(support::copy_checksum(from, to, 42), expected)
          << words << " words, " << workers << " workers";
      EXPECT_TRUE(std::equal(from.begin(), from.end(), to.begin(),
                             [](float a, float b) {
                               return std::bit_cast<std::uint32_t>(a) ==
                                      std::bit_cast<std::uint32_t>(b);
                             }))
          << words << " words, " << workers << " workers";
      EXPECT_EQ(to.back(), 0.0f) << "wrote past the source extent";
    }
  }
  support::set_worker_count(0);
  std::vector<float> from(8, 1.0f), shorter(7);
  EXPECT_THROW(support::copy_checksum(from, shorter), std::length_error);
}

// -------------------------------------------------- observability & traces

TEST(Watchdog, TimeoutAndIntegrityEventsAppearInChromeTrace) {
  WatchdogFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::FaultPlan plan;
  plan.hang_command_index = 2;
  plan.corrupt_write_index = 3;
  device.fault().arm(plan);
  Engine engine = fx.make(device, fx.resilient());
  engine.evaluate(expressions::kQCriterion);

  const std::string trace = vcl::to_chrome_trace(engine.log());
  EXPECT_NE(trace.find("\"timeouts\""), std::string::npos);
  EXPECT_NE(trace.find("timeout:"), std::string::npos);
  EXPECT_NE(trace.find("\"integrity\""), std::string::npos);
  EXPECT_NE(trace.find("checksum:"), std::string::npos);
  dump_trace_artifact("hang_and_flip", trace);

  // A clean run's trace carries neither track.
  vcl::Device clean_device(vcl::xeon_x5660_scaled());
  Engine clean = fx.make(clean_device, fx.resilient());
  clean.evaluate(expressions::kQCriterion);
  const std::string clean_trace = vcl::to_chrome_trace(clean.log());
  EXPECT_EQ(clean_trace.find("timeouts"), std::string::npos);
  EXPECT_EQ(clean_trace.find("integrity"), std::string::npos);
}

TEST(Watchdog, FaultedRunsAreDeterministic) {
  const auto run = [] {
    WatchdogFixture fx;
    vcl::Device device(vcl::xeon_x5660_scaled());
    vcl::FaultPlan plan;
    plan.seed = 11;
    plan.slow_command_index = 3;
    plan.slowdown_factor = 4.0;
    plan.hang_command_index = 5;
    plan.corrupt_read_index = 1;
    device.fault().arm(plan);
    Engine engine = fx.make(device, fx.resilient());
    return engine.evaluate(expressions::kQCriterion);
  };
  const EvaluationReport a = run();
  const EvaluationReport b = run();
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.command_timeouts, b.command_timeouts);
  EXPECT_EQ(a.checksum_mismatches, b.checksum_mismatches);
}

// ------------------------------------------- FaultPlan coverage (armed())

TEST(FaultPlanCoverage, ArmedConsidersEverySchedulingField) {
  EXPECT_FALSE(vcl::FaultPlan{}.armed());
  const auto armed_with = [](auto mutate) {
    vcl::FaultPlan plan;
    mutate(plan);
    return plan.armed();
  };
  // Every scheduling field must arm the plan on its own. fault.cpp pins
  // sizeof(FaultPlan), so adding a field without extending armed() — and
  // this list — fails the build or this test.
  EXPECT_TRUE(armed_with([](auto& p) { p.fail_alloc_index = 1; }));
  EXPECT_TRUE(armed_with([](auto& p) { p.synthetic_capacity_bytes = 1; }));
  EXPECT_TRUE(armed_with([](auto& p) { p.fail_write_index = 1; }));
  EXPECT_TRUE(armed_with([](auto& p) { p.fail_read_index = 1; }));
  EXPECT_TRUE(armed_with([](auto& p) { p.fail_kernel_index = 1; }));
  EXPECT_TRUE(armed_with([](auto& p) { p.lose_device_after = 1; }));
  EXPECT_TRUE(armed_with([](auto& p) { p.slow_command_index = 1; }));
  EXPECT_TRUE(armed_with([](auto& p) { p.hang_command_index = 1; }));
  EXPECT_TRUE(armed_with([](auto& p) { p.corrupt_write_index = 1; }));
  EXPECT_TRUE(armed_with([](auto& p) { p.corrupt_read_index = 1; }));
  // Modifier fields alone schedule nothing.
  EXPECT_FALSE(armed_with([](auto& p) { p.seed = 7; }));
  EXPECT_FALSE(armed_with([](auto& p) { p.transient_count = 5; }));
  EXPECT_FALSE(armed_with([](auto& p) { p.corrupt_count = 5; }));
  EXPECT_FALSE(armed_with([](auto& p) { p.slowdown_factor = 9.0; }));
}

// ------------------------------- no-false-positive property (Table II lock)

class NoFalsePositiveTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(NoFalsePositiveTest, CleanRunsAreByteIdenticalToPolicyOffRuns) {
  const StrategyKind kind = GetParam();
  WatchdogFixture fx;
  const std::vector<const char*> expressions = {
      expressions::kVelocityMagnitude, expressions::kVorticityMagnitude,
      expressions::kQCriterion, expressions::kDivergence};

  for (const char* expression : expressions) {
    // Policy off: the seed's exact command stream, no watchdog installed.
    vcl::Device plain_device(vcl::xeon_x5660_scaled());
    EngineOptions plain_options;
    plain_options.strategy = kind;
    Engine plain = fx.make(plain_device, plain_options);
    const EvaluationReport base = plain.evaluate(expression);

    // Full defensive stack armed (resilient policy, watchdog, integrity,
    // empty fault plan): must be a pure observer.
    vcl::Device device(vcl::xeon_x5660_scaled());
    device.fault().arm(vcl::FaultPlan{});
    Engine engine = fx.make(device, fx.resilient(kind));
    const EvaluationReport report = engine.evaluate(expression);

    EXPECT_EQ(report.command_timeouts, 0u) << expression;
    EXPECT_EQ(report.checksum_mismatches, 0u) << expression;
    EXPECT_EQ(report.injected_faults, 0u) << expression;
    EXPECT_EQ(report.command_retries, 0u) << expression;
    EXPECT_TRUE(report.degradations.empty()) << expression;

    // Table II counts and the full event stream, byte for byte.
    EXPECT_EQ(report.dev_writes, base.dev_writes) << expression;
    EXPECT_EQ(report.dev_reads, base.dev_reads) << expression;
    EXPECT_EQ(report.kernel_execs, base.kernel_execs) << expression;
    EXPECT_EQ(report.sim_seconds, base.sim_seconds) << expression;
    EXPECT_EQ(report.values, base.values) << expression;
    ASSERT_EQ(engine.log().events().size(), plain.log().events().size())
        << expression;
    for (std::size_t i = 0; i < engine.log().events().size(); ++i) {
      const vcl::Event& a = engine.log().events()[i];
      const vcl::Event& b = plain.log().events()[i];
      EXPECT_EQ(a.kind, b.kind) << expression << " event " << i;
      EXPECT_EQ(a.label, b.label) << expression << " event " << i;
      EXPECT_EQ(a.bytes, b.bytes) << expression << " event " << i;
      EXPECT_EQ(a.sim_seconds, b.sim_seconds) << expression << " event " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, NoFalsePositiveTest,
                         ::testing::Values(StrategyKind::roundtrip,
                                           StrategyKind::staged,
                                           StrategyKind::fusion,
                                           StrategyKind::streamed),
                         [](const auto& info) {
                           return std::string(
                               runtime::strategy_name(info.param));
                         });

}  // namespace
