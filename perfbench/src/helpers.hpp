// Helpers shared by the benchmark program and its self-tests: seeded input
// generators, the percentile rule, metric naming and output, bit-exact
// comparison and the counts kept beside the span trace.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline constexpr double kMiB = 1024.0 * 1024.0;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64: the only source of randomness, so a seed fixes every input.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n); n must be positive.
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Nearest-rank percentile (q in (0, 1]) of `samples`, reported only when at
/// least ten samples lie beyond it; nullopt otherwise.
std::optional<double> percentile(std::vector<double> samples, double q);

/// Nearest-rank percentile without the ten-beyond rule (layer figures,
/// where a sparse tail is still worth a number). 0 for no samples.
double rank_percentile(std::vector<double> samples, double q);

double median(std::vector<double> samples);

/// Metric names are `[A-Za-z0-9_.-]+`, starting with a letter or digit,
/// at most 64 characters.
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}. Throws
/// std::invalid_argument on an invalid or repeated metric name.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

std::string json_escape(std::string_view text);

/// Index of the first element where `got` and `want` differ bit-for-bit,
/// with any NaN matching any NaN (payloads of NaN-NaN arithmetic are
/// unspecified); SIZE_MAX when they agree. A size difference reports 0.
std::size_t first_mismatch(const std::vector<float>& got,
                           const std::vector<float>& want);

/// The oneshot_explore stream: distinct expression scripts built from the
/// paper expressions, the CFD builtins, arithmetic and random constants.
/// Every script's network fingerprint differs from every earlier one (and
/// from any reserved fingerprint); a collision is regenerated.
class ExpressionComposer {
 public:
  explicit ExpressionComposer(std::uint64_t seed) : rng_(seed) {}
  std::string next();
  /// Marks a fingerprint as taken (e.g. a warm-up expression's).
  void reserve(std::uint64_t fingerprint) { seen_.insert(fingerprint); }
  std::size_t regenerations() const { return regenerations_; }

 private:
  std::string candidate();
  std::string atom(std::string& prefix);
  std::string constant();

  Rng rng_;
  std::set<std::uint64_t> seen_;
  std::size_t regenerations_ = 0;
};

/// Network fingerprint of an expression script (dataflow::Network).
std::uint64_t fingerprint_of(std::string_view script);

/// The service_mix expression set: the three paper expressions plus
/// divergence, helicity, enstrophy, lambda2 and curl_z.
const std::vector<std::string>& service_expressions();

/// One request of the service_mix open-loop schedule.
struct Arrival {
  double at_seconds = 0.0;  ///< due time after the start of sending
  int tenant = 0;
  int expression = 0;       ///< index into service_expressions()
};

/// `rate * seconds` Poisson arrivals over `seconds`, each from one of
/// `tenants` tenants (uniform) asking for an expression drawn from a Zipf
/// (s = 1) popularity over service_expressions(), in their listed order.
std::vector<Arrival> service_schedule(std::uint64_t seed, double rate,
                                      double seconds, int tenants);

/// Records counts taken at a span boundary of the traced run, next to the
/// spans dfgen's own tracer (obs::SpanTracer) keeps. Like those spans, the
/// counts are kept only while the metrics registry is enabled. Thread-safe.
void trace_counts(std::string name,
                  std::vector<std::pair<std::string, double>> counts);

/// Number of count records kept so far.
std::size_t trace_count_records();

/// obs::SpanTracer's Chrome trace, with the counts added as counter ("C")
/// events and `metadata` (a JSON object) as "otherData".
std::string chrome_trace(const std::string& metadata);

}  // namespace perfbench
