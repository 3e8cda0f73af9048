#include "helpers.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <stdexcept>

#include "core/expressions.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(next() % n);
}

namespace {

/// 1-based nearest rank of quantile q among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

std::optional<double> percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const std::size_t rank = nearest_rank(n, q);
  if (n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double rank_percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("metric value is not finite");
  }
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

}  // namespace

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::set<std::string> names;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name)) {
      throw std::invalid_argument("invalid metric name: " + m.name);
    }
    if (!names.insert(m.name).second) {
      throw std::invalid_argument("repeated metric name: " + m.name);
    }
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

std::size_t first_mismatch(const std::vector<float>& got,
                           const std::vector<float>& want) {
  if (got.size() != want.size()) return 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    if (std::bit_cast<std::uint32_t>(got[i]) !=
        std::bit_cast<std::uint32_t>(want[i])) {
      return i;
    }
  }
  return static_cast<std::size_t>(-1);
}

std::uint64_t fingerprint_of(std::string_view script) {
  return dfg::dataflow::Network(dfg::dataflow::build_network(script))
      .fingerprint();
}

namespace {

constexpr const char* kVelocityArgs = "(u, v, w, dims, x, y, z)";

/// Paper scripts usable as a prefix, with the name each defines last.
struct PaperScript {
  const char* script;
  const char* output;
};
constexpr PaperScript kPaperScripts[] = {
    {dfg::expressions::kVelocityMagnitude, "v_mag"},
    {dfg::expressions::kVorticityMagnitude, "w_mag"},
    {dfg::expressions::kQCriterion, "q"},
};

constexpr const char* kScalarBuiltins[] = {
    "divergence", "vorticity_mag", "enstrophy", "helicity", "qcriterion",
    "lambda2",
};

constexpr const char* kUnary[] = {"sin", "cos", "tanh"};
constexpr const char* kBinary[] = {" + ", " - ", " * "};

}  // namespace

std::string ExpressionComposer::constant() {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", 0.125 + 3.875 * rng_.uniform());
  return buf;
}

std::string ExpressionComposer::atom(std::string& prefix) {
  switch (rng_.below(4)) {
    case 0:
      return std::string(1, "uvw"[rng_.below(3)]);
    case 1: {
      // One paper script per candidate: they share intermediate names.
      if (!prefix.empty()) break;
      const PaperScript& paper = kPaperScripts[rng_.below(3)];
      prefix = paper.script;
      prefix += "\n";
      return paper.output;
    }
    case 2:
      return "curl" + std::string(kVelocityArgs) + "[" +
             std::to_string(rng_.below(3)) + "]";
    default:
      break;
  }
  return std::string(kScalarBuiltins[rng_.below(std::size(kScalarBuiltins))]) +
         kVelocityArgs;
}

std::string ExpressionComposer::candidate() {
  std::string prefix;
  const std::size_t terms = 2 + rng_.below(3);
  std::string body;
  for (std::size_t t = 0; t < terms; ++t) {
    if (t > 0) body += kBinary[rng_.below(std::size(kBinary))];
    const std::string a = atom(prefix);
    switch (rng_.below(4)) {
      case 0:
        body += constant() + " * " + a;
        break;
      case 1:
        body += "(" + a + " + " + constant() + ")";
        break;
      case 2:
        body += std::string(kUnary[rng_.below(std::size(kUnary))]) + "(" + a +
                ")";
        break;
      default:
        body += a + " * " + atom(prefix);
        break;
    }
  }
  if (rng_.below(2) == 0) {
    return prefix + "t1 = " + body + "\nr = t1 * " + constant() + " - " +
           atom(prefix) + "\n";
  }
  return prefix + "r = " + body + "\n";
}

std::string ExpressionComposer::next() {
  for (;;) {
    std::string script = candidate();
    if (seen_.insert(fingerprint_of(script)).second) return script;
    ++regenerations_;
  }
}

const std::vector<std::string>& service_expressions() {
  static const std::vector<std::string> expressions = {
      dfg::expressions::kVelocityMagnitude,
      dfg::expressions::kVorticityMagnitude,
      dfg::expressions::kQCriterion,
      dfg::expressions::kOpDivergence,
      dfg::expressions::kOpHelicity,
      dfg::expressions::kOpEnstrophy,
      dfg::expressions::kOpLambda2,
      dfg::expressions::kOpCurlZ,
  };
  return expressions;
}

std::vector<Arrival> service_schedule(std::uint64_t seed, double rate,
                                      double seconds, int tenants) {
  Rng rng(seed);
  const std::size_t kinds = service_expressions().size();
  std::vector<double> cdf(kinds);
  double total = 0.0;
  for (std::size_t k = 0; k < kinds; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[k] = total;
  }

  // A Poisson process with a fixed count: its arrival times are sorted
  // uniform draws, so every seed offers exactly rate * seconds requests.
  const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<Arrival> arrivals(count);
  for (Arrival& arrival : arrivals) {
    arrival.at_seconds = seconds * rng.uniform();
    arrival.tenant =
        static_cast<int>(rng.below(static_cast<std::size_t>(tenants)));
    const double pick = rng.uniform() * total;
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), pick) - cdf.begin());
    arrival.expression = static_cast<int>(std::min(rank, kinds - 1));
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.at_seconds < b.at_seconds;
            });
  return arrivals;
}

namespace {

struct CountRecord {
  std::string name;
  double wall = 0.0;  ///< seconds on obs::SpanTracer's steady clock
  std::vector<std::pair<std::string, double>> counts;
};

std::mutex g_counts_mutex;
std::vector<CountRecord> g_counts;  // guarded by g_counts_mutex

}  // namespace

void trace_counts(std::string name,
                  std::vector<std::pair<std::string, double>> counts) {
  if (!dfg::obs::metrics().enabled()) return;
  CountRecord record{
      std::move(name),
      std::chrono::duration<double>(Clock::now().time_since_epoch()).count(),
      std::move(counts)};
  std::scoped_lock lock(g_counts_mutex);
  g_counts.push_back(std::move(record));
}

std::size_t trace_count_records() {
  std::scoped_lock lock(g_counts_mutex);
  return g_counts.size();
}

std::string chrome_trace(const std::string& metadata) {
  const dfg::obs::SpanTracer& tracer = dfg::obs::SpanTracer::instance();
  // to_chrome_trace times its events from the earliest span start.
  const std::vector<dfg::obs::SpanRecord> spans = tracer.records();
  double origin = 0.0;
  for (const dfg::obs::SpanRecord& span : spans) {
    if (origin == 0.0 || span.start_wall < origin) origin = span.start_wall;
  }
  std::string out = tracer.to_chrome_trace();
  out.resize(out.rfind(']'));  // reopen the event list
  bool first = spans.empty();
  std::scoped_lock lock(g_counts_mutex);
  for (const CountRecord& record : g_counts) {
    char ts[32];
    std::snprintf(ts, sizeof ts, "%.3f", (record.wall - origin) * 1e6);
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += "{\"name\":\"" + json_escape(record.name) +
           "\",\"ph\":\"C\",\"pid\":1,\"ts\":" + ts + ",\"args\":{";
    bool first_count = true;
    for (const auto& [name, value] : record.counts) {
      if (!std::isfinite(value)) continue;
      out += first_count ? "\"" : ",\"";
      first_count = false;
      out += json_escape(name) + "\":" + number(value);
    }
    out += "}}";
  }
  out += "\n],\"otherData\":" + metadata + "}\n";
  return out;
}

}  // namespace perfbench
