#include "vcl/fault.hpp"

#include <limits>
#include <utility>

#include "support/error.hpp"
#include "vcl/profiling.hpp"

namespace dfg::vcl {

// Pin the plan's layout so a new fault family cannot be added without
// revisiting FaultPlan::armed() (and the coverage test in
// test_fault_injection). If this assert fires you added/removed a member:
// update armed(), the begin_run() counters if needed, and this size.
#if defined(__x86_64__) || defined(__aarch64__)
static_assert(sizeof(FaultPlan) == 112,
              "FaultPlan changed: update FaultPlan::armed() and the "
              "coverage test, then adjust this size");
#endif

void FaultInjector::arm(FaultPlan plan) {
  plan_ = plan;
  armed_ = plan_.armed();
  lost_ = false;
  rng_.seed(plan_.seed);
  begin_run();
}

void FaultInjector::begin_run() {
  alloc_index_ = 0;
  write_index_ = 0;
  read_index_ = 0;
  kernel_index_ = 0;
  command_index_ = 0;
  completed_commands_ = 0;
  slowdown_recorded_ = false;
}

void FaultInjector::record(const std::string& label) {
  if (sink_ != nullptr) {
    sink_->record(Event{EventKind::fault, label, 0, 0, 0.0, 0.0});
  }
}

void FaultInjector::on_alloc(std::size_t bytes, std::size_t in_use,
                             std::size_t capacity) {
  if (!armed_) return;
  if (lost_) {
    record("fault:lost:alloc");
    throw DeviceLost(device_name_);
  }
  ++alloc_index_;
  if (plan_.fail_alloc_index != 0 && alloc_index_ == plan_.fail_alloc_index) {
    record("fault:alloc#" + std::to_string(alloc_index_));
    throw DeviceOutOfMemory(device_name_, bytes, in_use, capacity);
  }
  const std::size_t cap = plan_.synthetic_capacity_bytes;
  if (cap != 0 && (bytes > cap || in_use > cap - bytes)) {
    record("fault:capacity");
    throw DeviceOutOfMemory(device_name_, bytes, in_use, cap);
  }
}

CommandPerturbation FaultInjector::on_enqueue(EventKind site,
                                              const std::string& label) {
  if (!armed_) return {};
  const char* site_name = event_kind_name(site);
  if (lost_) {
    record(std::string("fault:lost:") + site_name + ":" + label);
    throw DeviceLost(device_name_);
  }
  if (plan_.lose_device_after != 0 &&
      completed_commands_ >= plan_.lose_device_after) {
    lost_ = true;
    record(std::string("fault:device-lost:") + site_name + ":" + label);
    throw DeviceLost(device_name_);
  }

  std::size_t* index = nullptr;
  std::size_t fail_at = 0;
  std::size_t corrupt_at = 0;
  switch (site) {
    case EventKind::host_to_device:
      index = &write_index_;
      fail_at = plan_.fail_write_index;
      corrupt_at = plan_.corrupt_write_index;
      break;
    case EventKind::device_to_host:
      index = &read_index_;
      fail_at = plan_.fail_read_index;
      corrupt_at = plan_.corrupt_read_index;
      break;
    case EventKind::kernel_exec:
      index = &kernel_index_;
      fail_at = plan_.fail_kernel_index;
      break;
    default:
      return {};  // not an enqueue site
  }
  const std::size_t i = ++(*index);
  const std::size_t command = ++command_index_;
  const std::size_t window =
      static_cast<std::size_t>(plan_.transient_count > 0
                                   ? plan_.transient_count
                                   : 1);
  if (fail_at != 0 && i >= fail_at && i < fail_at + window) {
    record(std::string("fault:") + site_name + ":" + label);
    throw DeviceError(device_name_, site_name, label);
  }

  CommandPerturbation perturbation;
  if (plan_.hang_command_index != 0 &&
      command == plan_.hang_command_index) {
    record(std::string("fault:hang:") + site_name + ":" + label);
    perturbation.hang = true;
  }
  if (plan_.slow_command_index != 0 && plan_.slowdown_factor > 1.0 &&
      command >= plan_.slow_command_index) {
    perturbation.time_scale = plan_.slowdown_factor;
    // One fault event marks the onset; recording every slowed command
    // would swamp the log (the slowdown itself is visible as inflated or
    // timed-out command durations).
    if (!slowdown_recorded_) {
      slowdown_recorded_ = true;
      record("fault:slowdown:x" + std::to_string(plan_.slowdown_factor));
    }
  }
  const std::size_t corrupt_window = static_cast<std::size_t>(
      plan_.corrupt_count > 0 ? plan_.corrupt_count : 1);
  if (corrupt_at != 0 && i >= corrupt_at && i < corrupt_at + corrupt_window) {
    perturbation.corrupt = true;
  }
  return perturbation;
}

BitFlip FaultInjector::corrupt_word(EventKind site, const std::string& label,
                                    std::size_t extent) {
  // Deterministic target: word and bit derived from the plan seed and the
  // extent. The flipped bit lands in the mantissa, so the corrupted value
  // stays ordinary — exactly the silent kind of corruption the integrity
  // check exists to catch.
  const BitFlip flip{
      (static_cast<std::size_t>(plan_.seed) * 2654435761u + extent) % extent,
      1u << (plan_.seed % 23u)};
  record(std::string("fault:bit-flip:") + event_kind_name(site) + ":" +
         label + "@" + std::to_string(flip.word));
  return flip;
}

double FaultInjector::backoff_seconds(int attempt, const RetryPolicy& policy) {
  double us = policy.backoff_base_us;
  for (int a = 1; a < attempt; ++a) us *= policy.backoff_multiplier;
  std::uniform_real_distribution<double> jitter(0.0, 1.0);
  us *= 1.0 + policy.backoff_jitter * jitter(rng_);
  return us * 1.0e-6;
}

std::size_t FaultInjector::synthetic_available(std::size_t in_use) const {
  const std::size_t cap = armed_ ? plan_.synthetic_capacity_bytes : 0;
  if (cap == 0) return std::numeric_limits<std::size_t>::max();
  return cap > in_use ? cap - in_use : 0;
}

}  // namespace dfg::vcl
