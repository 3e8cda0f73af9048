#include "runtime/fallback.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
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
      const auto strategy = make_strategy(kind, streamed_chunk_cells);
      // A throw below unwinds the strategy's RAII buffers, releasing all
      // partially-written device state before the next rung re-plans.
      outcome.values =
          strategy->execute(network, bindings, elements, device, log);
      outcome.executed = kind;
      outcome.pipeline = strategy->executed_pipeline();
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

}  // namespace dfg::runtime
