#include "obs/span.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/string_util.hpp"

namespace dfg::obs {

namespace {

struct OpenSpan {
  std::uint64_t id = 0;
  std::string name;
  std::string category;
  double start_wall = 0.0;
};

// Deliberately leaked: the DFGEN_METRICS_OUT atexit flush reads the
// records during process teardown, after function-local statics in other
// translation units may already be gone.
std::mutex& record_mutex() {
  static std::mutex* mutex = new std::mutex;
  return *mutex;
}
std::vector<SpanRecord>& finished_records() {
  static std::vector<SpanRecord>* records = new std::vector<SpanRecord>;
  return *records;
}
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_next_thread{1};

thread_local std::vector<OpenSpan> t_stack;
thread_local std::uint64_t t_thread_index = 0;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t thread_index() {
  if (t_thread_index == 0) {
    t_thread_index = g_next_thread.fetch_add(1, std::memory_order_relaxed);
  }
  return t_thread_index;
}

}  // namespace

SpanTracer& SpanTracer::instance() {
  static SpanTracer tracer;
  return tracer;
}

std::uint64_t SpanTracer::begin(std::string name, std::string category) {
  if (!metrics().enabled()) return 0;
  const std::uint64_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  t_stack.push_back(
      OpenSpan{id, std::move(name), std::move(category), wall_now()});
  return id;
}

void SpanTracer::end(std::uint64_t token, double sim_seconds) {
  if (token == 0) return;
  // RAII gives strict LIFO per thread; scan from the back anyway so a
  // leaked inner span cannot wedge every outer one.
  for (std::size_t i = t_stack.size(); i > 0; --i) {
    OpenSpan& open = t_stack[i - 1];
    if (open.id != token) continue;
    SpanRecord record;
    record.id = open.id;
    record.parent = i >= 2 ? t_stack[i - 2].id : 0;
    record.name = std::move(open.name);
    record.category = std::move(open.category);
    record.start_wall = open.start_wall;
    record.dur_wall = wall_now() - open.start_wall;
    record.sim_seconds = sim_seconds;
    record.thread = thread_index();
    t_stack.erase(t_stack.begin() + static_cast<std::ptrdiff_t>(i - 1));
    {
      std::scoped_lock lock(record_mutex());
      if (finished_records().size() < kMaxRecords) {
        finished_records().push_back(std::move(record));
        return;
      }
    }
    MetricsRegistry& reg = metrics();
    reg.add(reg.counter("dfgen_span_records_dropped_total"));
    return;
  }
}

std::uint64_t SpanTracer::current() const {
  return t_stack.empty() ? 0 : t_stack.back().id;
}

std::vector<SpanRecord> SpanTracer::records() const {
  std::scoped_lock lock(record_mutex());
  return finished_records();
}

void SpanTracer::clear() {
  std::scoped_lock lock(record_mutex());
  finished_records().clear();
}

std::string SpanTracer::to_chrome_trace() const {
  std::vector<SpanRecord> records = this->records();
  std::sort(records.begin(), records.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.thread != b.thread) return a.thread < b.thread;
              if (a.start_wall != b.start_wall) {
                return a.start_wall < b.start_wall;
              }
              return a.id < b.id;
            });
  double origin = 0.0;
  for (const SpanRecord& record : records) {
    if (origin == 0.0 || record.start_wall < origin) {
      origin = record.start_wall;
    }
  }
  std::string out = "{\"traceEvents\":[";
  char buf[256];  // numeric fields only; names are appended unbounded
  bool first = true;
  for (const SpanRecord& record : records) {
    out += first ? "\n  {\"name\":\"" : ",\n  {\"name\":\"";
    out += support::json_escape(record.name);
    out += "\",\"cat\":\"";
    out += support::json_escape(record.category);
    std::snprintf(
        buf, sizeof buf,
        "\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
        "\"args\":{\"id\":%llu,\"parent\":%llu,\"sim_seconds\":%.9f}}",
        static_cast<unsigned long long>(record.thread),
        (record.start_wall - origin) * 1e6, record.dur_wall * 1e6,
        static_cast<unsigned long long>(record.id),
        static_cast<unsigned long long>(record.parent),
        record.sim_seconds);
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

Span::Span(std::string name, std::string category)
    : token_(
          SpanTracer::instance().begin(std::move(name), std::move(category))) {
}

Span::~Span() { SpanTracer::instance().end(token_, sim_seconds_); }

void write_span_trace(const std::string& path) {
  const std::string text = SpanTracer::instance().to_chrome_trace();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw Error("cannot open span trace file '" + path + "'");
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    throw Error("short write to span trace file '" + path + "'");
  }
}

}  // namespace dfg::obs
