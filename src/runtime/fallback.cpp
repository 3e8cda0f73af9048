#include "runtime/fallback.hpp"

#include <span>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runtime/walk.hpp"
#include "support/error.hpp"

namespace dfg::runtime {

namespace {

constexpr std::size_t kLadderLength =
    sizeof(kMemoryLadder) / sizeof(kMemoryLadder[0]);

/// Records one finished rung attempt: the per-strategy simulated-latency
/// histogram, bucketed by how the attempt ended ("ok", "degraded" — the
/// ladder moved on — or "error" — the exception escaped the ladder).
void observe_attempt(const char* strategy, const char* outcome,
                     double sim_delta_seconds) {
  obs::MetricsRegistry& reg = obs::metrics();
  reg.observe(reg.histogram("dfgen_strategy_sim_nanos",
                            {{"strategy", strategy}, {"outcome", outcome}}),
              obs::sim_nanos(sim_delta_seconds));
}

/// Publishes one device's dfgen_vcl_* series from `events`, the commands
/// one execute_with_fallback call appended to its log, so every series
/// equals the log it came from. Each event's nanoseconds are rounded on
/// their own, as the histogram sees them. The counters of every kind but
/// `fault` are added even at zero, so fault-free snapshots list them.
void publish_events(const std::string& device,
                    std::span<const vcl::Event> events) {
  obs::MetricsRegistry& reg = obs::metrics();
  std::uint64_t flops = 0;
  for (int k = 0; k < vcl::kEventKindCount; ++k) {
    const auto kind = static_cast<vcl::EventKind>(k);
    const obs::Labels labels{{"device", device},
                             {"kind", vcl::event_kind_slug(kind)}};
    std::uint64_t count = 0, bytes = 0, nanos = 0;
    obs::MetricId histogram = 0;
    for (const vcl::Event& event : events) {
      if (event.kind != kind) continue;
      if (count++ == 0) {
        histogram = reg.histogram("dfgen_vcl_command_sim_nanos", labels);
      }
      const std::uint64_t event_nanos = obs::sim_nanos(event.sim_seconds);
      reg.observe(histogram, event_nanos);
      nanos += event_nanos;
      bytes += event.bytes;
      flops += event.flops;
    }
    if (count == 0 && kind == vcl::EventKind::fault) continue;
    reg.add(reg.counter("dfgen_vcl_events_total", labels), count);
    if (count == 0) continue;
    reg.add(reg.counter("dfgen_vcl_bytes_total", labels), bytes);
    reg.add(reg.counter("dfgen_vcl_sim_nanos_total", labels), nanos);
  }
  const obs::Labels on_device{{"device", device}};
  if (flops != 0) {
    reg.add(reg.counter("dfgen_vcl_flops_total", on_device), flops);
  }
  const vcl::EventTally tally = vcl::tally(events);
  reg.add(reg.counter("dfgen_vcl_command_retries_total", on_device),
          tally.retries);
  reg.add(reg.counter("dfgen_vcl_faults_injected_total", on_device),
          tally.injected_faults);
}

FallbackOutcome run_ladder(const dataflow::Network& network,
                           const FieldBindings& bindings,
                           std::size_t elements, vcl::Device& device,
                           vcl::ProfilingLog& log, StrategyKind requested,
                           const FallbackPolicy& policy,
                           std::size_t streamed_chunk_cells) {
  device.set_retry_policy(policy.retry);
  device.set_watchdog_factor(policy.deadline_factor);
  obs::MetricsRegistry& reg = obs::metrics();
  FallbackOutcome outcome;
  for (std::size_t pos = ladder_position(requested); pos < kLadderLength;
       ++pos) {
    const StrategyKind kind = kMemoryLadder[pos];
    const char* kind_name = strategy_name(kind);
    const bool last_rung = pos + 1 >= kLadderLength;
    const double sim_before = log.total_sim_seconds();
    reg.add(reg.counter("dfgen_strategy_attempts_total",
                        {{"strategy", kind_name}}));
    obs::Span span(std::string("strategy:") + kind_name, "attempt");
    const auto finish_attempt = [&](const char* result) {
      const double sim_delta = log.total_sim_seconds() - sim_before;
      span.add_sim_seconds(sim_delta);
      observe_attempt(kind_name, result, sim_delta);
    };
    const auto degrade = [&](const char* category, const std::string& what) {
      reg.add(reg.counter(
          "dfgen_strategy_degradations_total",
          {{"from", kind_name}, {"to", strategy_name(kMemoryLadder[pos + 1])}}));
      finish_attempt("degraded");
      outcome.degradations.push_back(
          {kind, kMemoryLadder[pos + 1], std::string(category) + ": " + what});
    };
    try {
      // A throw below unwinds the walk's RAII buffers, releasing all
      // partially-written device state before the next rung re-plans.
      DeviceTarget target(device, log);
      Walked<DeviceTarget> walked = walk(kind, network, bindings, elements,
                                         streamed_chunk_cells, target);
      outcome.values = std::move(walked.result);
      outcome.executed = kind;
      outcome.pipeline = std::move(walked.pipeline);
      finish_attempt("ok");
      return outcome;
    } catch (const DeviceOutOfMemory& err) {
      if (!policy.enabled || last_rung) {
        finish_attempt("error");
        throw;
      }
      degrade("device out of memory", err.what());
    } catch (const DeviceTimeout& err) {
      // DeviceTimeout derives from Error, not DeviceError; the watchdog's
      // bounded retries are already spent. A lower rung moves less data
      // per command, so a marginal device may still finish it.
      if (!policy.enabled || last_rung) {
        finish_attempt("error");
        throw;
      }
      degrade("command deadline exceeded", err.what());
    } catch (const DeviceError& err) {
      // The queue's bounded retries are already spent by the time the
      // error reaches this layer.
      if (!policy.enabled || last_rung) {
        finish_attempt("error");
        throw;
      }
      degrade("transient device error", err.what());
    } catch (const KernelError& err) {
      if (!policy.enabled || kind == requested || last_rung) {
        finish_attempt("error");
        throw;
      }
      degrade("strategy unsupported for this network", err.what());
    }
  }
  throw Error("fallback ladder exhausted");  // unreachable
}

}  // namespace

std::size_t ladder_position(StrategyKind kind) {
  for (std::size_t i = 0; i < kLadderLength; ++i) {
    if (kMemoryLadder[i] == kind) return i;
  }
  throw Error("strategy kind is not on the memory ladder");
}

FallbackOutcome execute_with_fallback(const dataflow::Network& network,
                                      const FieldBindings& bindings,
                                      std::size_t elements,
                                      vcl::Device& device,
                                      vcl::ProfilingLog& log,
                                      StrategyKind requested,
                                      const FallbackPolicy& policy,
                                      std::size_t streamed_chunk_cells) {
  const std::size_t first = log.events().size();
  const auto publish = [&] {
    publish_events(device.spec().name, std::span(log.events()).subspan(first));
  };
  try {
    FallbackOutcome outcome = run_ladder(network, bindings, elements, device,
                                         log, requested, policy,
                                         streamed_chunk_cells);
    publish();
    return outcome;
  } catch (...) {
    publish();
    throw;
  }
}

}  // namespace dfg::runtime
