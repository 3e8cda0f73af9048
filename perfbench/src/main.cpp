// dfgen wall-clock benchmark program.
//
//   perfbench --workload <insitu_step|oneshot_explore|service_mix>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// Prints a context record and an info line, then, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the span trace goes to --trace-file. Exits non-zero
// on a mismatch against the scalar backend or a JIT fallback.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<insitu_step|oneshot_explore|service_mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>]\n",
               why);
  return 2;
}

std::string metrics_object(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + perfbench::json_escape(metrics[i].name) + "\": " + value;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for an option");
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && config.seconds > 0.0;
    } else if (arg == "--trace") {
      have_trace = std::string_view(value) == "0" ||
                   std::string_view(value) == "1";
      config.trace = std::string_view(value) == "1";
    } else if (arg == "--trace-file") {
      config.trace_file = value;
    } else {
      return usage("unknown option");
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  // End-to-end figures are measured with tracing off: dfgen's spans,
  // gauges and histograms stay off (its counters always run) until the
  // traced half of a --trace 1 run turns them on.
  dfg::obs::metrics().set_enabled(false);

  perfbench::RunResult result;
  try {
    if (workload == "insitu_step") {
      result = perfbench::run_insitu_step(config);
    } else if (workload == "oneshot_explore") {
      result = perfbench::run_oneshot_explore(config);
    } else if (workload == "service_mix") {
      result = perfbench::run_service_mix(config);
    } else {
      return usage("unknown workload");
    }
    std::printf("{\"context\": %s}\n", result.context.c_str());
    std::printf("{\"info\": %s}\n", metrics_object(result.extra).c_str());
    std::printf("%s\n",
                perfbench::result_json(result.correct, result.attempted,
                                       result.failed, result.metrics)
                    .c_str());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
