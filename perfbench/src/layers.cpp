// Layer probes of the traced run. Each probe calls one layer's public
// function directly, on the workload's own expressions and fields, with a
// span around the call; the figure reported is the median over repeats.
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "expr/parser.hpp"
#include "kernels/backend.hpp"
#include "kernels/program_cache.hpp"
#include "kernels/source_printer.hpp"
#include "kernels/vm.hpp"
#include "obs/span.hpp"
#include "runtime/bindings.hpp"
#include "runtime/strategy.hpp"
#include "service/admission.hpp"
#include "service/service.hpp"
#include "support/checksum.hpp"
#include "support/parallel.hpp"
#include "vcl/buffer.hpp"
#include "vcl/queue.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kRepeats = 5;
/// Cold compiles cost ~0.25 s each; fewer repeats keep the probe short.
constexpr int kCompileRepeats = 3;

/// Runs `fn` inside a span and returns its wall time in ms.
template <typename Fn>
double timed(const char* name, const char* layer, Fn&& fn) {
  dfg::obs::Span span(name, layer);
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now()) * 1e3;
}

}  // namespace

std::vector<Metric> probe_layers(const ProbeInputs& in) {
  using dfg::kernels::ProgramCache;
  dfg::runtime::FieldBindings bindings;
  bindings.bind_mesh(*in.mesh);
  for (const dfg::service::FieldRef& field : in.fields) {
    bindings.bind(field.name, field.values);
  }
  const std::size_t n = in.mesh->cell_count();
  const std::shared_ptr<dfg::kernels::ExecutionBackend> backend =
      dfg::kernels::backend_for(dfg::kernels::BackendKind::auto_select);

  std::vector<double> parse, build, codegen, compile, exec, instructions;
  std::vector<double> evaluate, report, strategy, plan, gap;
  for (const std::string& text : in.expressions) {
    dfg::obs::Span expression_span("probe_expression", "bench");
    dfg::expr::Script script;
    for (int r = 0; r < kRepeats; ++r) {
      parse.push_back(timed("expr::parse", "expr",
                            [&] { script = dfg::expr::parse(text); }));
    }
    std::unique_ptr<dfg::dataflow::Network> network;
    for (int r = 0; r < kRepeats; ++r) {
      build.push_back(timed("dataflow::build_network", "dataflow", [&] {
        network = std::make_unique<dfg::dataflow::Network>(
            dfg::dataflow::build_network(script));
      }));
    }

    // Misses: the cache is emptied so codegen and the compile both run.
    std::shared_ptr<const dfg::kernels::FusedPipeline> pipeline;
    std::vector<std::shared_ptr<const dfg::kernels::CompiledKernel>> kernels;
    for (int r = 0; r < kCompileRepeats; ++r) {
      ProgramCache::instance().clear();
      codegen.push_back(
          timed("ProgramCache::fused_pipeline", "kernels", [&] {
            pipeline = ProgramCache::instance().fused_pipeline(*network);
          }));
      kernels.clear();
      compile.push_back(
          timed("ExecutionBackend::prepare", "kernels", [&] {
            for (const auto& stage : pipeline->stages) {
              kernels.push_back(backend->prepare(stage.program));
            }
          }));
    }
    double count = 0.0;
    for (const auto& stage : pipeline->stages) {
      count += static_cast<double>(stage.program.code().size());
    }
    instructions.push_back(count);

    // The kernel alone over the whole grid, outside the queue: the ceiling.
    const dfg::kernels::Program& program = pipeline->stages.back().program;
    bool bound = !pipeline->partitioned();
    std::vector<dfg::kernels::BufferBinding> inputs;
    for (const dfg::kernels::BufferParam& param : program.params()) {
      if (!bindings.has(param.name)) {
        bound = false;
        break;
      }
      const std::span<const float> view = bindings.get(param.name);
      inputs.push_back({view.data(), view.size()});
    }
    if (bound) {
      std::vector<float> out(n * program.out_stride());
      for (int r = 0; r < kRepeats; ++r) {
        exec.push_back(timed("CompiledKernel::run", "kernels", [&] {
          dfg::support::parallel_for(
              n,
              [&](std::size_t begin, std::size_t end) {
                kernels.back()->run(program, inputs, out.data(), out.size(),
                                    begin, end);
              },
              dfg::kernels::kTileSize);
        }));
      }
    }

    dfg::vcl::Device device(device_spec("probe"));
    dfg::EngineOptions options;
    options.resident_pool = in.resident_pool;
    options.backend = dfg::kernels::BackendKind::auto_select;
    dfg::Engine engine(device, options);
    engine.bind_mesh(*in.mesh);
    for (const dfg::service::FieldRef& field : in.fields) {
      engine.bind(field.name, field.values);
    }
    engine.evaluate_network(*network, n);  // warm: compiled, resident
    const auto fusion =
        dfg::runtime::make_strategy(dfg::runtime::StrategyKind::fusion);
    // Outlives every queue the strategy opens on `device` (a queue makes
    // its log the device's fault sink).
    dfg::vcl::ProfilingLog log;
    for (int r = 0; r < kRepeats; ++r) {
      dfg::EvaluationReport result;
      const double ms = timed("Engine::evaluate_network", "core", [&] {
        result = engine.evaluate_network(*network, n);
      });
      evaluate.push_back(ms);
      gap.push_back(ms - result.wall_seconds * 1e3);
      report.push_back(timed("report_assembly", "core", [&] {
        std::string text = network->spec().to_script();
        for (const auto& stage : pipeline->stages) {
          text += dfg::kernels::to_opencl_source(stage.program);
        }
      }));
      strategy.push_back(timed("Strategy::execute", "runtime", [&] {
        fusion->execute(*network, bindings, n, device, log);
      }));
      plan.push_back(timed("projected_floor_bytes", "runtime", [&] {
        dfg::service::projected_floor_bytes(
            *network, bindings, n, dfg::runtime::StrategyKind::fusion, true);
      }));
    }
  }

  // Transfers, integrity hashing and thread start-up at the field size.
  const std::span<const float> field = in.fields.front().values;
  const double field_mib =
      static_cast<double>(field.size_bytes()) / kMiB;
  std::vector<double> upload, download, checksum, parallel;
  {
    dfg::vcl::Device device(device_spec("probe"));
    dfg::vcl::ProfilingLog log;
    dfg::vcl::CommandQueue queue(device, log);
    dfg::vcl::Buffer buffer = device.allocate(field.size());
    std::vector<float> back(field.size());
    for (int r = 0; r < kRepeats; ++r) {
      upload.push_back(timed("CommandQueue::write", "vcl", [&] {
        queue.write(buffer, field, "probe");
      }) / field_mib);
      download.push_back(timed("CommandQueue::read", "vcl", [&] {
        queue.read(buffer, back, "probe");
      }) / field_mib);
    }
  }
  volatile std::uint64_t sink = 0;
  for (int r = 0; r < kRepeats; ++r) {
    checksum.push_back(timed("checksum_floats", "support", [&] {
      sink = sink + dfg::support::checksum_floats(field);
    }) / field_mib);
  }
  for (int r = 0; r < 4 * kRepeats; ++r) {
    parallel.push_back(1e3 * timed("parallel_for", "support", [&] {
      dfg::support::parallel_for(
          n, [](std::size_t, std::size_t) {}, dfg::kernels::kTileSize);
    }));
  }

  const double exec_ms = median(exec);
  const double evaluate_ms = median(evaluate);
  const double strategy_ms = median(strategy);
  const double report_ms = median(report);
  return {
      {"expr.parse_ms", median(parse), "ms"},
      {"dataflow.build_ms", median(build), "ms"},
      {"kernels.codegen_ms", median(codegen), "ms"},
      {"kernels.jit_compile_ms", median(compile), "ms"},
      {"kernels.exec_ms", exec_ms, "ms"},
      {"kernels.exec_cells_per_s",
       exec_ms > 0.0 ? static_cast<double>(n) / (exec_ms * 1e-3) : 0.0, "1/s"},
      {"kernels.fused_instructions", median(instructions), "count"},
      {"support.checksum_ms_per_mb", median(checksum), "ms/MB"},
      {"support.parallel_for_us", median(parallel), "us"},
      {"vcl.upload_ms_per_mb", median(upload), "ms/MB"},
      {"vcl.download_ms_per_mb", median(download), "ms/MB"},
      {"runtime.strategy_ms", strategy_ms, "ms"},
      {"runtime.plan_ms", median(plan), "ms"},
      {"core.evaluate_ms", evaluate_ms, "ms"},
      {"core.report_ms", report_ms, "ms"},
      {"core.unattributed_ms", evaluate_ms - strategy_ms - report_ms, "ms"},
      {"core.wall_seconds_gap_ms", median(gap), "ms"},
  };
}

std::vector<Metric> service_metrics(const dfg::service::ServiceSnapshot& before,
                                    const dfg::service::ServiceSnapshot& after,
                                    const std::vector<double>& submit_ms,
                                    const std::vector<double>& queue_wait_ms) {
  const auto delta = [](std::size_t a, std::size_t b) {
    return static_cast<double>(b - a);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double submitted = delta(before.submitted, after.submitted);
  const double completed =
      delta(before.completed_requests, after.completed_requests);
  const double memo_hits = delta(before.memo_hits, after.memo_hits);
  const double memo_lookups =
      memo_hits + delta(before.memo_misses, after.memo_misses);
  return {
      {"service.submit_ms_p50", rank_percentile(submit_ms, 0.5), "ms"},
      {"service.submit_ms_p99", rank_percentile(submit_ms, 0.99), "ms"},
      {"service.queue_wait_ms_p50", rank_percentile(queue_wait_ms, 0.5), "ms"},
      {"service.queue_wait_ms_p99", rank_percentile(queue_wait_ms, 0.99), "ms"},
      {"service.evals_per_request",
       ratio(delta(before.executed_evaluations, after.executed_evaluations),
             submitted),
       "ratio"},
      {"service.coalesce_ratio",
       ratio(delta(before.coalesced_requests, after.coalesced_requests),
             completed),
       "ratio"},
      {"service.rejections",
       delta(before.rejected_queue_full + before.rejected_projection +
                 before.rejected_quota,
             after.rejected_queue_full + after.rejected_projection +
                 after.rejected_quota),
       "count"},
      {"memo.hit_ratio", ratio(memo_hits, memo_lookups), "ratio"},
      {"memo.bytes_saved_mb",
       delta(before.memo_bytes_saved, after.memo_bytes_saved) / kMiB, "MB"},
      {"memo.admits", delta(before.memo_admits, after.memo_admits), "count"},
  };
}

std::vector<Metric> probe_service(const ProbeInputs& in) {
  constexpr int kRequests = 16;
  dfg::vcl::Device device(device_spec("probe-service"));
  dfg::service::ServiceOptions options;
  options.resident_pool = true;
  options.memo = true;
  options.backend = dfg::kernels::BackendKind::auto_select;
  dfg::service::EvalService service({&device}, options);
  const dfg::service::ServiceSnapshot before = service.snapshot();
  std::vector<double> submit_ms, queue_wait_ms;
  for (int i = 0; i < kRequests; ++i) {
    dfg::service::Request request;
    request.expression = in.expressions[static_cast<std::size_t>(i) %
                                        in.expressions.size()];
    request.mesh = in.mesh;
    request.fields = in.fields;
    request.session = "probe-" + std::to_string(i % 2);
    dfg::service::Ticket ticket;
    submit_ms.push_back(timed("EvalService::submit", "service",
                              [&] { ticket = service.submit(request); }));
    dfg::obs::Span wait("Ticket::wait", "service");
    queue_wait_ms.push_back(ticket.wait().queue_wait_seconds * 1e3);
  }
  return service_metrics(before, service.snapshot(), submit_ms, queue_wait_ms);
}

}  // namespace perfbench
