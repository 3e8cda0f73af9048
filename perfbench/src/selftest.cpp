// Self-tests for the benchmark's own helpers: the percentile rule, the
// seeded generators' determinism, the metric-name check and the trace
// writer. Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentile_rule() {
  using perfbench::percentile;
  // p50 of 1..20: rank 10, ten samples beyond it.
  check(percentile(ramp(20), 0.5) == 10.0, "p50 of 20 samples is reported");
  check(!percentile(ramp(19), 0.5), "p50 of 19 samples is omitted");
  // p90 needs 100 samples, p99 needs 1000.
  check(percentile(ramp(100), 0.9) == 90.0, "p90 of 100 samples");
  check(!percentile(ramp(99), 0.9), "p90 of 99 samples is omitted");
  check(percentile(ramp(1000), 0.99) == 990.0, "p99 of 1000 samples");
  check(!percentile(ramp(999), 0.99), "p99 of 999 samples is omitted");
  check(!percentile({}, 0.5), "no samples, no percentile");
  check(perfbench::rank_percentile(ramp(5), 0.99) == 5.0,
        "rank_percentile has no ten-beyond rule");
  check(perfbench::median({3.0, 1.0, 2.0, 4.0}) == 2.5, "even median");
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  check(valid_metric_name("latency_p50_ms"), "plain name");
  check(valid_metric_name("kernels.jit-compile_ms"), "dots and dashes");
  check(valid_metric_name("9lives"), "leading digit");
  check(!valid_metric_name(""), "empty name");
  check(!valid_metric_name("_hidden"), "leading underscore");
  check(!valid_metric_name(".dot"), "leading dot");
  check(!valid_metric_name("has space"), "space");
  check(!valid_metric_name("quote\""), "quote");
  check(!valid_metric_name("slash/ms"), "slash");
  check(!valid_metric_name(std::string(65, 'a')), "too long");
  check(valid_metric_name(std::string(64, 'a')), "64 characters");

  bool threw = false;
  try {
    perfbench::result_json(true, 1, 0, {{"bad name", 1.0, "ms"}});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "result_json refuses an invalid name");
  threw = false;
  try {
    perfbench::result_json(true, 1, 0, {{"a", 1.0, "ms"}, {"a", 2.0, "ms"}});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "result_json refuses a repeated name");
  check(perfbench::result_json(true, 3, 1, {{"x_ms", 1.5, "ms"}}) ==
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, "
            "\"metrics\": {\"x_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}",
        "result line layout");
}

void test_composer() {
  perfbench::ExpressionComposer a(42);
  perfbench::ExpressionComposer b(42);
  perfbench::ExpressionComposer c(43);
  std::set<std::uint64_t> fingerprints;
  bool same = true;
  bool differs = false;
  for (int i = 0; i < 200; ++i) {
    const std::string ea = a.next();
    same = same && ea == b.next();
    differs = differs || ea != c.next();
    fingerprints.insert(perfbench::fingerprint_of(ea));
  }
  check(same, "same seed gives the same expressions");
  check(differs, "another seed gives other expressions");
  check(fingerprints.size() == 200, "every fingerprint is new");

  // A reserved fingerprint is never produced.
  const std::uint64_t taken =
      perfbench::fingerprint_of(perfbench::ExpressionComposer(42).next());
  perfbench::ExpressionComposer d(42);
  d.reserve(taken);
  for (int i = 0; i < 10; ++i) {
    check(perfbench::fingerprint_of(d.next()) != taken,
          "reserved fingerprint is skipped");
  }
}

void test_schedule() {
  const auto a = perfbench::service_schedule(7, 50.0, 4.0, 4);
  const auto b = perfbench::service_schedule(7, 50.0, 4.0, 4);
  const auto c = perfbench::service_schedule(8, 50.0, 4.0, 4);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].at_seconds == b[i].at_seconds && a[i].tenant == b[i].tenant &&
           a[i].expression == b[i].expression;
  }
  check(same, "same seed gives the same schedule");
  bool differs = false;
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at_seconds != c[i].at_seconds;
  }
  check(differs, "another seed gives another schedule");
  check(a.size() == 200 && c.size() == 200, "rate * seconds arrivals");
  bool ordered = true;
  std::vector<int> per_expression(perfbench::service_expressions().size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ordered = ordered && (i == 0 || a[i].at_seconds >= a[i - 1].at_seconds);
    ordered = ordered && a[i].at_seconds < 4.0;
    ordered = ordered && a[i].tenant >= 0 && a[i].tenant < 4;
    ++per_expression.at(static_cast<std::size_t>(a[i].expression));
  }
  check(ordered, "arrivals are ordered, in range, with valid tenants");
  check(per_expression.front() > per_expression.back() * 3,
        "popularity follows the Zipf ranking");
}

void test_first_mismatch() {
  const float nan_a = std::nanf("1");
  const float nan_b = std::nanf("2");
  check(perfbench::first_mismatch({1.0f, nan_a}, {1.0f, nan_b}) ==
            static_cast<std::size_t>(-1),
        "NaN meets NaN whatever the payload");
  check(perfbench::first_mismatch({0.0f}, {-0.0f}) == 0,
        "signed zeros differ");
  check(perfbench::first_mismatch({1.0f, 2.0f}, {1.0f, nan_a}) == 1,
        "NaN does not meet a number");
  check(perfbench::first_mismatch({1.0f}, {1.0f, 2.0f}) == 0,
        "sizes must agree");
}

void test_chrome_trace() {
  dfg::obs::metrics().set_enabled(false);
  perfbench::trace_counts("untraced", {{"n", 1.0}});
  check(perfbench::trace_count_records() == 0,
        "counts are not kept while tracing is off");
  dfg::obs::metrics().set_enabled(true);
  {
    dfg::obs::Span span("outer", "bench");
    perfbench::trace_counts("step", {{"n", 2.0}, {"skipped", NAN}});
  }
  check(perfbench::trace_count_records() == 1, "counts kept while tracing");
  const std::string trace = perfbench::chrome_trace("{\"seed\": 1}");
  const auto has = [&](const char* text) {
    return trace.find(text) != std::string::npos;
  };
  check(has("\"name\":\"outer\",\"cat\":\"bench\",\"ph\":\"X\""),
        "spans come from obs::SpanTracer");
  check(has("{\"name\":\"step\",\"ph\":\"C\",\"pid\":1,\"ts\":"),
        "counts are counter events");
  check(has("\"args\":{\"n\":2}}"), "non-finite counts are left out");
  check(trace.ends_with("\n],\"otherData\":{\"seed\": 1}}\n"),
        "metadata closes the trace");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_metric_names();
  test_composer();
  test_schedule();
  test_first_mismatch();
  test_chrome_trace();
  if (failures != 0) {
    std::fprintf(stderr, "%d self-test checks failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
