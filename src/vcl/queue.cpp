#include "vcl/queue.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "obs/span.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/stopwatch.hpp"

namespace dfg::vcl {

bool copy_verified(std::span<const float> from, std::span<float> to,
                   std::optional<BitFlip> flip) {
  if (to.size() < from.size()) {
    throw std::length_error("copy_verified: destination of " +
                            std::to_string(to.size()) + " words, source of " +
                            std::to_string(from.size()));
  }
  const std::size_t n = from.size();
  const auto block_intact = [&](std::size_t first) {
    const std::size_t words = std::min(kTransferBlockWords, n - first);
    std::memcpy(to.data() + first, from.data() + first, words * sizeof(float));
    if (flip && flip->word - first < words) {
      float& word = to[flip->word];
      word = std::bit_cast<float>(std::bit_cast<std::uint32_t>(word) ^
                                  flip->mask);
    }
    return std::memcmp(to.data() + first, from.data() + first,
                       words * sizeof(float)) == 0;
  };
  if (n <= kTransferBlockWords) return n == 0 || block_intact(0);
  std::atomic<bool> intact{true};
  support::parallel_for(
      (n + kTransferBlockWords - 1) / kTransferBlockWords,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) {
          if (!block_intact(b * kTransferBlockWords)) {
            intact.store(false, std::memory_order_relaxed);
          }
        }
      },
      /*grain=*/1);
  return intact.load(std::memory_order_relaxed);
}

void CommandQueue::run_command(
    EventKind site, const std::string& label, std::size_t bytes,
    std::uint64_t flops, double estimate_seconds, std::size_t extent,
    const std::function<bool(std::optional<BitFlip>)>& execute) {
  FaultInjector& fault = device_->fault();
  const bool armed = fault.armed();
  const RetryPolicy& policy = device_->retry_policy();
  const char* site_name = event_kind_name(site);
  // One command = one span, covering every retry attempt. The simulated
  // time attributed to it is the sum of everything charged to the device
  // timeline on its behalf (backoffs, burnt deadlines, re-executions).
  obs::Span span(std::string(site_name) + ":" + label, "command");

  for (int attempt = 1;; ++attempt) {
    CommandPerturbation perturbation;
    if (armed) {
      try {
        perturbation = fault.on_enqueue(site, label);
      } catch (const DeviceError&) {
        // Transient: back off (simulated, seeded) and re-enqueue until the
        // attempt budget is spent; then let the error reach the fallback
        // layer, which degrades the strategy instead.
        if (attempt >= policy.max_attempts) throw;
        const double backoff = fault.backoff_seconds(attempt, policy);
        log_->record(Event{EventKind::fault,
                           std::string(kRetryLabelPrefix) + site_name + ":" +
                               label,
                           0, 0, backoff, 0.0});
        span.add_sim_seconds(backoff);
        continue;
      }
    }

    // Watchdog: simulated timing is deterministic, so the charged duration
    // is known before the command runs and an over-deadline command is
    // abandoned up front — the virtual analogue of a watchdog killing a
    // wedged or crawling command at the deadline. The deadline itself is
    // charged to the timeline: the device *was* tied up that long.
    const double factor = device_->watchdog_factor();
    const double charged = estimate_seconds * perturbation.time_scale;
    const bool over_deadline =
        factor > 0.0 && charged > factor * estimate_seconds;
    if (perturbation.hang || over_deadline) {
      const double deadline =
          factor > 0.0 ? factor * estimate_seconds : estimate_seconds;
      log_->record(Event{EventKind::timeout,
                         "timeout:" + std::string(site_name) + ":" + label,
                         bytes, 0, deadline, 0.0});
      span.add_sim_seconds(deadline);
      // A hang is one wedged command: a fresh attempt probes the device
      // and is absorbed by the retry budget. An over-deadline slowdown is
      // a device-wide condition — the deadline charge already proved the
      // device slow, so re-probing would only burn another deadline;
      // escalate immediately and let the fallback ladder move the work.
      if (!perturbation.hang || attempt >= policy.max_attempts) {
        throw DeviceTimeout(device_->spec().name, site_name, label,
                            estimate_seconds, deadline);
      }
      continue;
    }

    // The wall time covers the integrity work too: comparing each block
    // with its source is host time the command costs.
    support::Stopwatch watch;
    std::optional<BitFlip> flip;
    if (armed && perturbation.corrupt && extent != 0) {
      flip = fault.corrupt_word(site, label, extent);
    }
    const bool intact = execute(flip);
    const double wall = watch.seconds();

    if (!intact) {
      // End-to-end integrity: the destination must mirror the source bit
      // for bit. A mismatch re-executes the transfer (charged — the
      // corrupted transfer consumed device time) until the retry budget is
      // spent, then escalates as DataCorruption.
      log_->record(Event{EventKind::integrity,
                         "checksum:" + std::string(site_name) + ":" + label,
                         bytes, 0, charged, wall});
      span.add_sim_seconds(charged);
      if (attempt >= policy.max_attempts) {
        throw DataCorruption(device_->spec().name, site_name, label);
      }
      continue;
    }

    log_->record(Event{site, label, bytes, flops, charged, wall});
    span.add_sim_seconds(charged);
    complete();
    return;
  }
}

void CommandQueue::complete() {
  FaultInjector& fault = device_->fault();
  if (fault.armed()) fault.note_complete();
}

void CommandQueue::write(Buffer& buffer, std::span<const float> host,
                         const std::string& label) {
  if (host.size() > buffer.size()) {
    throw KernelError("write of " + std::to_string(host.size()) +
                      " elements exceeds buffer '" + label + "' extent " +
                      std::to_string(buffer.size()));
  }
  const std::size_t bytes = host.size() * sizeof(float);
  run_command(EventKind::host_to_device, label, bytes, 0,
              cost_.transfer_seconds(bytes), host.size(),
              [&](std::optional<BitFlip> flip) {
                return copy_verified(host, buffer.device_view(), flip);
              });
}

void CommandQueue::read(const Buffer& buffer, std::span<float> host,
                        const std::string& label) {
  if (host.size() < buffer.size()) {
    throw KernelError("read into " + std::to_string(host.size()) +
                      " elements from larger buffer '" + label + "' of " +
                      std::to_string(buffer.size()));
  }
  const std::size_t bytes = buffer.bytes();
  run_command(EventKind::device_to_host, label, bytes, 0,
              cost_.transfer_seconds(bytes), buffer.size(),
              [&](std::optional<BitFlip> flip) {
                return copy_verified(buffer.device_view(), host, flip);
              });
}

void CommandQueue::launch(const KernelLaunch& launch) {
  if (!launch.body) {
    throw KernelError("kernel '" + launch.label + "' has no body");
  }
  run_command(
      EventKind::kernel_exec, launch.label, launch.global_bytes,
      launch.flops,
      cost_.kernel_seconds(launch.flops, launch.global_bytes,
                           launch.registers_used, launch.compute_efficiency),
      0, [&](std::optional<BitFlip>) {
        support::parallel_for(launch.ndrange, launch.body, launch.grain);
        // Kernel output integrity is covered by the readback.
        return true;
      });
}

}  // namespace dfg::vcl
