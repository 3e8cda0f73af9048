// Unit tests for the virtual compute layer: memory tracking, buffers,
// queues, profiling events and the cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "runtime/walk.hpp"
#include "support/checksum.hpp"
#include "support/parallel.hpp"
#include "support/stopwatch.hpp"
#include "vcl/buffer.hpp"
#include "vcl/catalog.hpp"
#include "vcl/cost_model.hpp"
#include "vcl/device.hpp"
#include "vcl/fault.hpp"
#include "vcl/profiling.hpp"
#include "vcl/queue.hpp"

namespace {

using namespace dfg::vcl;

DeviceSpec tiny_device(std::size_t capacity_bytes) {
  DeviceSpec spec;
  spec.name = "tiny";
  spec.type = DeviceType::gpu;
  spec.global_mem_bytes = capacity_bytes;
  spec.transfer_gbps = 1.0;
  spec.global_mem_gbps = 10.0;
  spec.gflops = 100.0;
  return spec;
}

TEST(MemoryTracker, TracksInUseAndHighWater) {
  MemoryTracker tracker("dev", 1000);
  tracker.reserve(400);
  tracker.reserve(300);
  EXPECT_EQ(tracker.in_use(), 700u);
  EXPECT_EQ(tracker.high_water(), 700u);
  tracker.release(300);
  EXPECT_EQ(tracker.in_use(), 400u);
  EXPECT_EQ(tracker.high_water(), 700u);
  tracker.reserve(100);
  EXPECT_EQ(tracker.high_water(), 700u) << "high water must not drop";
  EXPECT_EQ(tracker.available(), 500u);
}

TEST(MemoryTracker, ReserveBeyondCapacityThrowsAndLeavesStateUnchanged) {
  MemoryTracker tracker("dev", 100);
  tracker.reserve(60);
  EXPECT_THROW(tracker.reserve(41), dfg::DeviceOutOfMemory);
  EXPECT_EQ(tracker.in_use(), 60u);
  EXPECT_EQ(tracker.high_water(), 60u);
  tracker.reserve(40);  // exactly fits
  EXPECT_EQ(tracker.in_use(), 100u);
}

TEST(MemoryTracker, ResetHighWaterClampsToCurrentUse) {
  MemoryTracker tracker("dev", 1000);
  tracker.reserve(500);
  tracker.release(400);
  tracker.reset_high_water();
  EXPECT_EQ(tracker.high_water(), 100u);
}

TEST(Buffer, AllocationAccountsAgainstDevice) {
  Device device(tiny_device(1024));
  {
    Buffer buffer = device.allocate(64);  // 256 bytes
    EXPECT_TRUE(buffer.valid());
    EXPECT_EQ(buffer.size(), 64u);
    EXPECT_EQ(buffer.bytes(), 256u);
    EXPECT_EQ(device.memory().in_use(), 256u);
  }
  EXPECT_EQ(device.memory().in_use(), 0u) << "destructor releases";
  EXPECT_EQ(device.memory().high_water(), 256u);
}

TEST(Buffer, OverCapacityAllocationThrows) {
  Device device(tiny_device(1024));
  EXPECT_THROW(device.allocate(1024), dfg::DeviceOutOfMemory);
  EXPECT_EQ(device.memory().in_use(), 0u);
}

TEST(Buffer, MoveTransfersOwnership) {
  Device device(tiny_device(4096));
  Buffer a = device.allocate(16);
  Buffer b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(device.memory().in_use(), 64u);
  Buffer c = device.allocate(8);
  c = std::move(b);  // move-assign releases c's old allocation
  EXPECT_EQ(device.memory().in_use(), 64u);
}

TEST(Buffer, ExplicitReleaseIsIdempotent) {
  Device device(tiny_device(4096));
  Buffer a = device.allocate(16);
  a.release();
  EXPECT_EQ(device.memory().in_use(), 0u);
  a.release();
  EXPECT_EQ(device.memory().in_use(), 0u);
  EXPECT_FALSE(a.valid());
}

TEST(Buffer, RecycledStorageIsZeroedBeforeReuse) {
  // One small block, and one that the fill splits into several 64 Ki-word
  // grains with a partial tail.
  for (const std::size_t words :
       {std::size_t{64}, 3 * dfg::support::kChecksumBlockWords + 5}) {
    SCOPED_TRACE(words);
    Device device(tiny_device(words * sizeof(float)));
    ProfilingLog log;
    CommandQueue queue(device, log);
    std::vector<float> pattern(words);
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = i % 2 == 0 ? std::numeric_limits<float>::quiet_NaN()
                              : static_cast<float>(i) + 0.5f;
    }
    {
      Buffer buffer = device.allocate(words);
      queue.write(buffer, pattern, "in");
    }
    ASSERT_EQ(device.spares().size(), 1u) << "release keeps the storage";
    Buffer again = device.allocate(words);
    EXPECT_EQ(device.spares().size(), 0u) << "the spare block is reused";
    std::vector<float> back(words, -1.0f);
    queue.read(again, back, "out");
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < back.size(); ++i) {
      std::uint32_t word = 1;
      std::memcpy(&word, &back[i], sizeof(word));
      if (word != 0u) {
        ADD_FAILURE() << "word " << i;
        if (++nonzero == 8) break;
      }
    }
  }
}

TEST(Buffer, UploadsTakeRecycledStorageUnfilledAndOverwriteIt) {
  for (const std::size_t words :
       {std::size_t{64}, 3 * kTransferBlockWords + 5}) {
    for (const bool pooled : {false, true}) {
      SCOPED_TRACE(std::to_string(words) + (pooled ? " words, pool miss"
                                                   : " words, cold path"));
      Device device(tiny_device(4 * words * sizeof(float)));
      device.resident().set_enabled(pooled);
      ProfilingLog log;
      {
        // A released buffer leaves a NaN pattern in the spare list.
        CommandQueue queue(device, log);
        Buffer stale = device.allocate(words);
        queue.write(stale,
                    std::vector<float>(
                        words, std::numeric_limits<float>::quiet_NaN()),
                    "stale");
      }
      ASSERT_EQ(device.spares().size(), 1u);

      std::vector<float> host(words);
      for (std::size_t i = 0; i < words; ++i) {
        host[i] = static_cast<float>(i) * 0.25f;
      }
      dfg::runtime::DeviceTarget target(device, log);
      const dfg::runtime::DeviceTarget::Value uploaded =
          target.upload(host, "in", pooled);
      EXPECT_EQ(device.spares().size(), 0u) << "the upload takes the spare";
      EXPECT_EQ(device.resident().entry_count(), pooled ? 1u : 0u);
      const std::vector<float> back = target.read(uploaded, "out").owned;
      ASSERT_EQ(back.size(), words);
      EXPECT_EQ(std::memcmp(back.data(), host.data(), words * sizeof(float)),
                0);
    }
  }
}

TEST(Buffer, RecyclingIsBoundedAndThreadSafe) {
  {
    // Recycling moves no accounting: allocate N, release, allocate N peaks
    // at one buffer's bytes, as it did before storage was recycled.
    Device device(tiny_device(4096));
    device.allocate(256).release();
    const Buffer buffer = device.allocate(256);
    EXPECT_EQ(device.memory().in_use(), 1024u);
    EXPECT_EQ(device.memory().high_water(), 1024u);
  }
  // Four threads allocate and release 16 distinct sizes on one device; a
  // resident handle can be dropped on any thread, so the spare list must
  // stay consistent and bounded under contention. Every buffer, recycled
  // or not, starts zeroed.
  Device device(tiny_device(std::size_t{1} << 24));
  std::atomic<std::size_t> most_spares{0};
  std::atomic<std::size_t> dirty_buffers{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < 1000; ++round) {
        const std::size_t elements = 32 + 8 * ((round + 5 * t) % 16);
        Buffer buffer = device.allocate(elements);
        const std::span<float> view = buffer.device_view();
        if (std::any_of(view.begin(), view.end(),
                        [](float x) { return x != 0.0f; })) {
          ++dirty_buffers;
        }
        std::fill(view.begin(), view.end(), static_cast<float>(round + 1));
        buffer.release();
        const std::size_t spares = device.spares().size();
        std::size_t seen = most_spares.load();
        while (spares > seen &&
               !most_spares.compare_exchange_weak(seen, spares)) {
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(device.memory().in_use(), 0u);
  EXPECT_EQ(dirty_buffers.load(), 0u);
  EXPECT_GT(most_spares.load(), 0u);
  EXPECT_LE(most_spares.load(), SpareBlocks::kMaxBlocks);
}

#if defined(__SANITIZE_ADDRESS__)
// Built only under AddressSanitizer: a spare block is poisoned while it
// waits, so a stale view of a released buffer still reports, as it would
// if the storage had been freed.
TEST(BufferDeathTest, ReadThroughAReleasedViewIsCaught) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Device device(tiny_device(4096));
  Buffer buffer = device.allocate(64);
  const std::span<const float> stale = buffer.device_view();
  buffer.release();
  ASSERT_EQ(device.spares().size(), 1u);
  EXPECT_DEATH(
      {
        const volatile float word = stale[3];
        (void)word;
      },
      "use-after-poison");
}
#endif

TEST(CostModel, TransferIsLatencyPlusBandwidth) {
  DeviceSpec spec = tiny_device(1 << 20);
  spec.transfer_gbps = 2.0;
  spec.transfer_latency_us = 10.0;
  const CostModel model(spec);
  // 2e9 bytes at 2 GB/s = 1 s, plus 10 us.
  EXPECT_NEAR(model.transfer_seconds(2'000'000'000), 1.0 + 10e-6, 1e-9);
  EXPECT_NEAR(model.transfer_seconds(0), 10e-6, 1e-12);
}

TEST(CostModel, KernelRooflineTakesMaxOfComputeAndMemory) {
  DeviceSpec spec = tiny_device(1 << 20);
  spec.gflops = 1.0;  // 1e9 flops/s peak
  spec.global_mem_gbps = 1.0;
  spec.launch_overhead_us = 0.0;
  const CostModel model(spec);
  const double eff = CostModel::kComputeEfficiency;
  // Compute-bound: many flops, few bytes.
  EXPECT_NEAR(model.kernel_seconds(1'000'000'000, 1000, 8), 1.0 / eff, 1e-6);
  // Memory-bound: few flops, many bytes.
  EXPECT_NEAR(model.kernel_seconds(10, 1'000'000'000, 8), 1.0, 1e-6);
}

TEST(CostModel, RegisterSpillAddsBandwidthSurcharge) {
  DeviceSpec spec = tiny_device(1 << 20);
  spec.register_budget = 8;
  spec.global_mem_gbps = 1.0;
  spec.gflops = 1000.0;
  spec.launch_overhead_us = 0.0;
  const CostModel model(spec);
  const double fits = model.kernel_seconds(0, 4'000'000, 8);
  const double spills = model.kernel_seconds(0, 4'000'000, 10);
  EXPECT_GT(spills, fits);
}

TEST(CostModel, LaunchOverheadCharged) {
  DeviceSpec spec = tiny_device(1 << 20);
  spec.launch_overhead_us = 50.0;
  const CostModel model(spec);
  EXPECT_NEAR(model.kernel_seconds(0, 0, 0), 50e-6, 1e-12);
}

TEST(ProfilingLog, CategorisesEvents) {
  ProfilingLog log;
  log.record(Event{EventKind::host_to_device, "u", 100, 0, 0.5, 0.1});
  log.record(Event{EventKind::host_to_device, "v", 50, 0, 0.25, 0.1});
  log.record(Event{EventKind::kernel_exec, "add", 32, 77, 0.125, 0.1});
  log.record(Event{EventKind::device_to_host, "out", 100, 0, 0.5, 0.1});
  EXPECT_EQ(log.count(EventKind::host_to_device), 2u);
  EXPECT_EQ(log.count(EventKind::device_to_host), 1u);
  EXPECT_EQ(log.count(EventKind::kernel_exec), 1u);
  EXPECT_EQ(log.events().size(), 4u);
  EXPECT_DOUBLE_EQ(log.sim_seconds(EventKind::host_to_device), 0.75);
  EXPECT_DOUBLE_EQ(log.total_sim_seconds(), 1.375);
  EXPECT_NEAR(log.total_wall_seconds(), 0.4, 1e-12);
  EXPECT_EQ(log.bytes(EventKind::host_to_device), 150u);
  EXPECT_EQ(log.total_flops(), 77u);
  log.clear();
  EXPECT_EQ(log.events().size(), 0u);
  EXPECT_DOUBLE_EQ(log.total_sim_seconds(), 0.0);
}

TEST(EventKindNames, MatchTable2Headers) {
  EXPECT_STREQ(event_kind_name(EventKind::host_to_device), "Dev-W");
  EXPECT_STREQ(event_kind_name(EventKind::device_to_host), "Dev-R");
  EXPECT_STREQ(event_kind_name(EventKind::kernel_exec), "K-Exe");
}

TEST(CommandQueue, WriteReadRoundTripRecordsEvents) {
  Device device(tiny_device(4096));
  ProfilingLog log;
  CommandQueue queue(device, log);
  Buffer buffer = device.allocate(4);
  const std::vector<float> host{1.0f, 2.0f, 3.0f, 4.0f};
  queue.write(buffer, host, "in");
  std::vector<float> back(4, 0.0f);
  queue.read(buffer, back, "out");
  EXPECT_EQ(back, host);
  EXPECT_EQ(log.count(EventKind::host_to_device), 1u);
  EXPECT_EQ(log.count(EventKind::device_to_host), 1u);
  EXPECT_EQ(log.bytes(EventKind::host_to_device), 16u);
  EXPECT_GT(log.total_sim_seconds(), 0.0);
}

TEST(CommandQueue, WriteWallTimeCoversTheIntegrityCheck) {
  // 16 MB: one pass dwarfs the timer resolution.
  constexpr std::size_t kCount = std::size_t{1} << 22;
  static_assert(kCount % kTransferBlockWords == 0);
  Device device(tiny_device(2 * kCount * sizeof(float)));
  ProfilingLog log;
  CommandQueue queue(device, log);
  Buffer buffer = device.allocate(kCount);
  std::vector<float> host(kCount);
  for (std::size_t i = 0; i < kCount; ++i) host[i] = static_cast<float>(i);
  queue.write(buffer, host, "in");
  ASSERT_EQ(log.events().size(), 1u);
  const double recorded = log.events().front().wall_seconds;

  // The same blocks copied on the worker team with no comparison, best of
  // three, so scheduling noise cannot inflate the reference.
  std::vector<float> copy(kCount);
  double one_copy = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 3; ++i) {
    dfg::support::Stopwatch watch;
    dfg::support::parallel_for(
        kCount / kTransferBlockWords,
        [&](std::size_t begin, std::size_t end) {
          std::memcpy(copy.data() + begin * kTransferBlockWords,
                      host.data() + begin * kTransferBlockWords,
                      (end - begin) * kTransferBlockWords * sizeof(float));
        },
        /*grain=*/1);
    one_copy = std::min(one_copy, watch.seconds());
  }
  // The write copies its source and then compares the copy with it.
  EXPECT_GE(recorded, one_copy);
}

/// Word index of the bit-flip the injector recorded in `log`
/// ("fault:bit-flip:<site>:<label>@<word>").
std::size_t flipped_word(const ProfilingLog& log) {
  for (const Event& event : log.events()) {
    if (event.kind != EventKind::fault) continue;
    const std::size_t at = event.label.rfind('@');
    if (at != std::string::npos) return std::stoul(event.label.substr(at + 1));
  }
  ADD_FAILURE() << "no bit-flip fault event in the log";
  return 0;
}

TEST(CommandQueue, CorruptionDeepInALargeTransferIsCaught) {
  // Three checksum blocks plus a 5-word tail; plan seed 11 puts the
  // flipped word in the third block.
  constexpr std::size_t kBlock = dfg::support::kChecksumBlockWords;
  std::vector<float> host(3 * kBlock + 5);
  for (std::size_t i = 0; i < host.size(); ++i) {
    host[i] = static_cast<float>(i) * 0.5f;
  }
  for (const bool on_write : {true, false}) {
    SCOPED_TRACE(on_write ? "corrupt_write_index" : "corrupt_read_index");
    FaultPlan plan;
    plan.seed = 11;
    (on_write ? plan.corrupt_write_index : plan.corrupt_read_index) = 1;
    Device device(tiny_device(2 * host.size() * sizeof(float)));
    device.fault().arm(plan);
    ProfilingLog log;
    CommandQueue queue(device, log);
    Buffer buffer = device.allocate(host.size());
    queue.write(buffer, host, "in");
    std::vector<float> back(host.size(), 0.0f);
    queue.read(buffer, back, "out");

    EXPECT_GE(flipped_word(log), 2 * kBlock) << "flip not deep enough";
    EXPECT_EQ(log.count(EventKind::integrity), 1u);
    // One re-execution: the corrupted attempt is the Chksum event, and the
    // transfer then completes once at each site.
    EXPECT_EQ(log.count(EventKind::host_to_device), 1u);
    EXPECT_EQ(log.count(EventKind::device_to_host), 1u);
    EXPECT_EQ(std::memcmp(back.data(), host.data(),
                          host.size() * sizeof(float)),
              0)
        << "the round trip must be bit-exact";
  }
}

TEST(CommandQueue, OversizedWriteThrows) {
  Device device(tiny_device(4096));
  ProfilingLog log;
  CommandQueue queue(device, log);
  Buffer buffer = device.allocate(2);
  const std::vector<float> host(3, 1.0f);
  EXPECT_THROW(queue.write(buffer, host, "in"), dfg::KernelError);
}

TEST(CommandQueue, UndersizedReadThrows) {
  Device device(tiny_device(4096));
  ProfilingLog log;
  CommandQueue queue(device, log);
  Buffer buffer = device.allocate(4);
  std::vector<float> host(2, 0.0f);
  EXPECT_THROW(queue.read(buffer, host, "out"), dfg::KernelError);
}

TEST(CommandQueue, LaunchRunsBodyOverNDRangeAndRecordsKernelEvent) {
  Device device(tiny_device(4096));
  ProfilingLog log;
  CommandQueue queue(device, log);
  std::vector<float> data(100, 0.0f);
  KernelLaunch launch;
  launch.label = "fill";
  launch.ndrange = data.size();
  launch.flops = 100;
  launch.global_bytes = 400;
  launch.body = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) data[i] = 1.0f;
  };
  queue.launch(launch);
  for (const float v : data) EXPECT_EQ(v, 1.0f);
  EXPECT_EQ(log.count(EventKind::kernel_exec), 1u);
  EXPECT_EQ(log.events().back().flops, 100u);
}

TEST(CommandQueue, LaunchWithoutBodyThrows) {
  Device device(tiny_device(4096));
  ProfilingLog log;
  CommandQueue queue(device, log);
  KernelLaunch launch;
  launch.label = "empty";
  launch.ndrange = 10;
  EXPECT_THROW(queue.launch(launch), dfg::KernelError);
}

TEST(Catalog, FullSizeDevicesMatchEdgeHardware) {
  const DeviceSpec cpu = xeon_x5660();
  EXPECT_EQ(cpu.type, DeviceType::cpu);
  EXPECT_EQ(cpu.global_mem_bytes, std::size_t(96) << 30);
  const DeviceSpec gpu = tesla_m2050();
  EXPECT_EQ(gpu.type, DeviceType::gpu);
  // 3 GiB GDDR5 minus the 12.5% Fermi ECC reservation (Edge runs ECC on).
  EXPECT_EQ(gpu.global_mem_bytes, (std::size_t(3) << 30) / 8 * 7);
  EXPECT_GT(gpu.gflops, cpu.gflops);
  EXPECT_GT(gpu.global_mem_gbps, cpu.global_mem_gbps);
  // PCIe gen2 and a host-side memcpy land in the same few-GB/s regime.
  EXPECT_NEAR(gpu.transfer_gbps, cpu.transfer_gbps, 2.0);
}

TEST(Catalog, ScaledDevicesKeepPerformanceShrinkCapacity) {
  const DeviceSpec gpu = tesla_m2050();
  const DeviceSpec scaled = tesla_m2050_scaled();
  EXPECT_EQ(scaled.global_mem_bytes, gpu.global_mem_bytes / 64);
  EXPECT_DOUBLE_EQ(scaled.gflops, gpu.gflops);
  EXPECT_DOUBLE_EQ(scaled.transfer_gbps, gpu.transfer_gbps);
}

}  // namespace
