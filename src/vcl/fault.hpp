// Virtual compute layer: deterministic fault injection.
//
// The paper's GPU evaluation is defined as much by its failures as its
// wins: staged and fusion runs abort when the working set crosses the
// M2050's 3 GB capacity. This module makes such failures — and a wider
// family the paper could not synthesize on real hardware — reproducible on
// demand, so the engine's degradation and retry machinery can be tested
// deterministically. A FaultPlan is armed on a Device and injects failures
// at named sites:
//   * buffer allocation — DeviceOutOfMemory on the Nth allocation, or once
//     usage would cross a synthetic capacity below the real one,
//   * transfer / kernel enqueue — transient DeviceError on the Nth enqueue
//     of each site, for a configurable number of consecutive attempts,
//   * whole-device loss — DeviceLost once K commands have completed, and on
//     every command after that,
//   * slowdown — every command from the Nth onward is charged `factor`
//     times its cost-model duration (a thermally-throttled or contended
//     device; the queue's watchdog converts severe cases to DeviceTimeout),
//   * hang — the Nth command never completes (the watchdog abandons it at
//     the deadline),
//   * bit-flip — one word of the Nth host-to-device or device-to-host
//     transfer is corrupted in flight (caught by the queue's end-to-end
//     checksum).
// Every injected fault is recorded in the attached ProfilingLog as an
// EventKind::fault event (and therefore in the Chrome trace), so
// degradation decisions are observable. All behaviour is a pure function of
// the plan (counters plus a seeded RNG for retry backoff): two runs with
// the same plan inject exactly the same faults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <utility>

#include "vcl/event.hpp"

namespace dfg::vcl {

class ProfilingLog;

/// Deterministic fault schedule. All indices are 1-based and count from the
/// start of a run (Engine::evaluate resets them; the DistributedEngine
/// counts across a whole evaluation so one block fails, not every block).
/// A zero value disables that site. The default-constructed plan is empty:
/// arming it injects nothing and perturbs nothing.
struct FaultPlan {
  /// Seeds the backoff jitter; two plans with equal seeds produce equal
  /// retry timing.
  std::uint32_t seed = 0;

  /// Throw DeviceOutOfMemory on exactly the Nth buffer allocation.
  std::size_t fail_alloc_index = 0;
  /// Cap usable device memory below the hardware capacity: any allocation
  /// that would push usage past this many bytes throws DeviceOutOfMemory.
  /// This is how a capacity cliff (the paper's failed GPU cells) is
  /// synthesized on an otherwise roomy device.
  std::size_t synthetic_capacity_bytes = 0;

  /// Throw transient DeviceError on the Nth host-to-device enqueue…
  std::size_t fail_write_index = 0;
  /// …the Nth device-to-host enqueue…
  std::size_t fail_read_index = 0;
  /// …the Nth kernel-launch enqueue.
  std::size_t fail_kernel_index = 0;
  /// How many consecutive enqueue attempts at a scheduled site fail before
  /// the site recovers (1 = a single retry succeeds).
  int transient_count = 1;

  /// Lose the device after this many commands have completed: the next
  /// enqueue, and every one after it, throws DeviceLost.
  std::size_t lose_device_after = 0;

  /// Slowdown: every command (any site) from the Nth enqueue onward is
  /// charged slowdown_factor times its cost-model duration. Models a
  /// straggling device — throttled, contended, or failing slowly.
  std::size_t slow_command_index = 0;
  /// Duration multiplier applied by the slowdown family (values <= 1 make
  /// slow_command_index a no-op).
  double slowdown_factor = 1.0;

  /// Hang: the Nth command (any site) never completes. The queue's
  /// watchdog abandons it at the deadline and charges the deadline to the
  /// timeline; the retry (a fresh command) proceeds normally.
  std::size_t hang_command_index = 0;

  /// Bit-flip: corrupt one word of the Nth host-to-device transfer…
  std::size_t corrupt_write_index = 0;
  /// …or the Nth device-to-host transfer, for `corrupt_count` consecutive
  /// transfers at that site.
  std::size_t corrupt_read_index = 0;
  /// How many consecutive transfers at a scheduled corruption site are
  /// corrupted (1 = a single re-execution reads clean data).
  int corrupt_count = 1;

  /// True when any fault family is scheduled. Must consider every
  /// scheduling member above; fault.cpp pins sizeof(FaultPlan) with a
  /// static_assert so a new member cannot be added without revisiting this
  /// function, and test_fault_injection enumerates every member.
  bool armed() const {
    return fail_alloc_index != 0 || synthetic_capacity_bytes != 0 ||
           fail_write_index != 0 || fail_read_index != 0 ||
           fail_kernel_index != 0 || lose_device_after != 0 ||
           slow_command_index != 0 || hang_command_index != 0 ||
           corrupt_write_index != 0 || corrupt_read_index != 0;
  }
};

/// Bounded retry behaviour for transient command failures, applied by the
/// CommandQueue. Backoff is simulated (charged to the profiling timeline as
/// a Fault event), never slept, and jittered deterministically from the
/// FaultPlan's seed.
struct RetryPolicy {
  /// Total enqueue attempts per command, including the first.
  int max_attempts = 3;
  /// First backoff duration (microseconds of simulated time).
  double backoff_base_us = 50.0;
  /// Exponential growth factor between attempts.
  double backoff_multiplier = 2.0;
  /// Uniform jitter fraction: each backoff is scaled by 1 + jitter * u with
  /// u drawn from the plan-seeded RNG.
  double backoff_jitter = 0.5;
};

/// How the injector perturbs one accepted command, returned by on_enqueue.
/// A default-constructed value (scale 1, no hang, no corruption) leaves the
/// command untouched — the only value an unarmed injector produces.
struct CommandPerturbation {
  /// Multiplier on the command's cost-model duration.
  double time_scale = 1.0;
  /// The command never completes: the queue's watchdog must abandon it.
  bool hang = false;
  /// One word of this transfer's destination is flipped after the copy.
  bool corrupt = false;
};

/// Owned by a Device; consulted by the allocator and the command queue.
/// With no plan armed every hook is a no-op, so a fault-free run's command
/// stream is byte-identical to a build without this layer.
class FaultInjector {
 public:
  explicit FaultInjector(std::string device_name)
      : device_name_(std::move(device_name)) {}

  /// Installs a plan and resets all counters (including a prior device
  /// loss — arming models swapping in a fresh board).
  void arm(FaultPlan plan);
  void disarm() { arm(FaultPlan{}); }
  bool armed() const { return armed_; }

  /// Resets the per-run indices so a plan fires the same way on every
  /// evaluation. Device loss is sticky: a lost device stays lost.
  void begin_run();

  /// Records injected faults into `sink` for this object's lifetime, then
  /// restores the previous sink; scopes nest. Each CommandQueue holds one
  /// for its log, so a sink never outlives its owner. The injector must
  /// outlive the scope.
  class SinkScope {
   public:
    SinkScope(FaultInjector& injector, ProfilingLog* sink)
        : injector_(injector),
          previous_(std::exchange(injector.sink_, sink)) {}
    ~SinkScope() { injector_.sink_ = previous_; }
    SinkScope(const SinkScope&) = delete;
    SinkScope& operator=(const SinkScope&) = delete;

   private:
    FaultInjector& injector_;
    ProfilingLog* previous_;
  };

  /// Allocation site: called before the MemoryTracker reserves. Throws
  /// DeviceOutOfMemory (scheduled or synthetic-capacity) or DeviceLost.
  void on_alloc(std::size_t bytes, std::size_t in_use, std::size_t capacity);

  /// Enqueue site: called before a transfer or launch executes. `site` is
  /// one of host_to_device / device_to_host / kernel_exec. Throws
  /// DeviceError (transient, scheduled) or DeviceLost. For a command that
  /// is accepted, returns how it must be perturbed (slowdown, hang,
  /// bit-flip); every attempt — including a retry — counts as a fresh
  /// command, so a hang is absorbed by one retry while a slowdown
  /// persists.
  CommandPerturbation on_enqueue(EventKind site, const std::string& label);

  /// Flips one word of `data` in place (deterministically chosen from the
  /// plan seed and the extent) and records the injection. The queue calls
  /// this when on_enqueue scheduled a corruption for the transfer.
  void corrupt_word(EventKind site, const std::string& label,
                    std::span<float> data);

  /// A command completed; advances the device-loss countdown.
  void note_complete() { ++completed_commands_; }

  /// Deterministic backoff duration (seconds) before retry `attempt`
  /// (1-based), drawn from the plan-seeded RNG.
  double backoff_seconds(int attempt, const RetryPolicy& policy);

  bool device_lost() const { return lost_; }

  /// Bytes still allocatable under the synthetic capacity (SIZE_MAX when
  /// the plan does not cap memory). The streamed auto-sizer and the planner
  /// consult this so degradation targets fit the *effective* device.
  std::size_t synthetic_available(std::size_t in_use) const;

 private:
  void record(const std::string& label);

  std::string device_name_;
  FaultPlan plan_;
  bool armed_ = false;
  bool lost_ = false;
  ProfilingLog* sink_ = nullptr;
  std::mt19937 rng_;

  std::size_t alloc_index_ = 0;
  std::size_t write_index_ = 0;
  std::size_t read_index_ = 0;
  std::size_t kernel_index_ = 0;
  std::size_t command_index_ = 0;  ///< all enqueue attempts, any site
  std::size_t completed_commands_ = 0;
  bool slowdown_recorded_ = false;
};

}  // namespace dfg::vcl
