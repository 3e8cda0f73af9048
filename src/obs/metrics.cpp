#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdlib>

#include "obs/span.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/string_util.hpp"

namespace dfg::obs {

namespace {

using support::json_escape;

std::atomic<std::uint64_t> g_next_uid{1};
std::atomic<MetricsRegistry*> g_current{nullptr};

/// One canonical string per (name, labels) series, used as the dedupe key.
/// \x1f / \x1e cannot appear in metric names or label text.
std::string series_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  key += '\x1f';
  for (const auto& [k, v] : labels) {
    key += k;
    key += '\x1e';
    key += v;
    key += '\x1f';
  }
  return key;
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string prom_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

std::string labels_text(const Labels& labels, bool json) {
  std::string out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ",";
    if (json) {
      out += "\"" + json_escape(labels[i].first) +
             "\":\"" + json_escape(labels[i].second) + "\"";
    } else {
      out += labels[i].first + "=\"" + prom_escape(labels[i].second) + "\"";
    }
  }
  return out;
}

std::uint32_t bucket_index(std::uint64_t nanos) {
  if (nanos == 0) return 0;
  const std::uint32_t width = static_cast<std::uint32_t>(std::bit_width(nanos));
  return std::min(width - 1, kHistogramBuckets - 1);
}

void at_exit_flush() {
  const std::string path =
      support::env::get_string("DFGEN_METRICS_OUT", "");
  if (path.empty()) return;
  try {
    write_metrics_file(path);
    write_span_trace(path + ".trace.json");
  } catch (const std::exception& err) {
    std::fprintf(stderr, "dfgen: DFGEN_METRICS_OUT write failed: %s\n",
                 err.what());
  }
}

}  // namespace

std::uint64_t sim_nanos(double sim_seconds) {
  if (!(sim_seconds > 0.0)) return 0;
  return static_cast<std::uint64_t>(std::llround(sim_seconds * 1e9));
}

MetricsRegistry::Shard::~Shard() {
  for (std::atomic<Block*>& block : blocks) {
    delete block.load(std::memory_order_relaxed);
  }
}

std::atomic<std::uint64_t>* MetricsRegistry::Shard::slot(std::uint32_t index,
                                                         bool create) {
  const std::uint32_t block_index = index / kBlockSlots;
  std::atomic<Block*>& entry = blocks[block_index];
  Block* block = entry.load(std::memory_order_acquire);
  if (block == nullptr) {
    if (!create) return nullptr;
    // Only the owning thread creates blocks in its shard, so there is no
    // allocation race; the release store publishes the zeroed block to
    // scrapers.
    block = new Block();
    entry.store(block, std::memory_order_release);
  }
  return &block->slots[index % kBlockSlots];
}

MetricsRegistry::MetricsRegistry()
    : uid_(g_next_uid.fetch_add(1, std::memory_order_relaxed)),
      enabled_(support::env::get_flag("DFGEN_METRICS", true)) {
  support::env::register_known("DFGEN_METRICS");
  support::env::register_known("DFGEN_METRICS_OUT");
}

MetricsRegistry::~MetricsRegistry() = default;

MetricId MetricsRegistry::register_metric(MetricKind kind,
                                          const std::string& name,
                                          Labels labels,
                                          std::uint32_t slots) {
  std::sort(labels.begin(), labels.end());
  const std::string key = series_key(name, labels);
  std::scoped_lock lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    const Meta& existing = metas_[it->second];
    if (existing.kind != kind) {
      throw Error("metric '" + name + "' re-registered as a different kind");
    }
    return existing.id;
  }
  MetricId id = 0;
  if (kind == MetricKind::gauge) {
    if (next_gauge_ >= kMaxGauges) {
      throw Error("metrics registry gauge capacity exhausted");
    }
    id = next_gauge_++;
  } else {
    if (next_slot_ + slots > kMaxBlocks * kBlockSlots) {
      throw Error("metrics registry slot capacity exhausted");
    }
    id = next_slot_;
    next_slot_ += slots;
  }
  index_[key] = metas_.size();
  metas_.push_back(Meta{kind, name, std::move(labels), id});
  return id;
}

MetricId MetricsRegistry::counter(const std::string& name, Labels labels) {
  return register_metric(MetricKind::counter, name, std::move(labels), 1);
}

MetricId MetricsRegistry::gauge(const std::string& name, Labels labels) {
  return register_metric(MetricKind::gauge, name, std::move(labels), 0);
}

MetricId MetricsRegistry::histogram(const std::string& name, Labels labels) {
  return register_metric(MetricKind::histogram, name, std::move(labels),
                         kHistogramBuckets + 2);
}

MetricsRegistry::Shard& MetricsRegistry::this_thread_shard() const {
  // Cache entries are keyed by the registry's process-unique uid, never by
  // its address: a destroyed registry's address can be reused, its uid
  // cannot, so stale entries are unreachable rather than dangling.
  thread_local std::vector<std::pair<std::uint64_t, Shard*>> cache;
  for (const auto& [uid, shard] : cache) {
    if (uid == uid_) return *shard;
  }
  std::scoped_lock lock(mutex_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  cache.emplace_back(uid_, shard);
  return *shard;
}

void MetricsRegistry::add(MetricId id, std::uint64_t delta) {
  this_thread_shard().slot(id, true)->fetch_add(delta,
                                                std::memory_order_relaxed);
}

void MetricsRegistry::gauge_set(MetricId id, std::uint64_t value) {
  if (!enabled()) return;
  gauges_[id].store(value, std::memory_order_relaxed);
}

void MetricsRegistry::gauge_max(MetricId id, std::uint64_t value) {
  if (!enabled()) return;
  std::uint64_t current = gauges_[id].load(std::memory_order_relaxed);
  while (value > current &&
         !gauges_[id].compare_exchange_weak(current, value,
                                            std::memory_order_relaxed)) {
  }
}

void MetricsRegistry::observe(MetricId id, std::uint64_t nanos) {
  if (!enabled()) return;
  Shard& shard = this_thread_shard();
  shard.slot(id, true)->fetch_add(1, std::memory_order_relaxed);
  shard.slot(id + 1, true)->fetch_add(nanos, std::memory_order_relaxed);
  shard.slot(id + 2 + bucket_index(nanos), true)
      ->fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t MetricsRegistry::merged_slot(std::uint32_t slot) const {
  // Callers hold mutex_ (shards_ is a deque; growth happens under it).
  std::uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (const auto* s = shard->slot(slot, false)) {
      total += s->load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::uint64_t MetricsRegistry::counter_value(MetricId id) const {
  std::scoped_lock lock(mutex_);
  return merged_slot(id);
}

std::uint64_t MetricsRegistry::thread_counter_value(MetricId id) const {
  const auto* slot = this_thread_shard().slot(id, false);
  return slot == nullptr ? 0 : slot->load(std::memory_order_relaxed);
}

std::uint64_t MetricsRegistry::gauge_value(MetricId id) const {
  return gauges_[id].load(std::memory_order_relaxed);
}

void MetricsRegistry::reset_values() {
  std::scoped_lock lock(mutex_);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (std::atomic<Block*>& entry : shard->blocks) {
      Block* block = entry.load(std::memory_order_acquire);
      if (block == nullptr) continue;
      for (std::atomic<std::uint64_t>& slot : block->slots) {
        slot.store(0, std::memory_order_relaxed);
      }
    }
  }
  for (std::atomic<std::uint64_t>& gauge : gauges_) {
    gauge.store(0, std::memory_order_relaxed);
  }
}

std::vector<MetricsRegistry::Meta> MetricsRegistry::sorted_metas() const {
  // Callers hold mutex_.
  std::vector<Meta> metas = metas_;
  std::sort(metas.begin(), metas.end(), [](const Meta& a, const Meta& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  });
  return metas;
}

std::string MetricsRegistry::to_json() const {
  std::scoped_lock lock(mutex_);
  const std::vector<Meta> metas = sorted_metas();
  // The snapshot's logical timestamp: total simulated nanoseconds charged
  // across every device — deterministic, unlike any wall clock.
  std::uint64_t clock = 0;
  for (const Meta& meta : metas) {
    if (meta.kind == MetricKind::counter &&
        meta.name == "dfgen_vcl_sim_nanos_total") {
      clock += merged_slot(meta.id);
    }
  }
  std::string out = "{\n  \"schema\": \"dfgen-metrics-v1\",\n"
                    "  \"clock\": \"sim\",\n";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%" PRIu64, clock);
  out += std::string("  \"sim_nanos\": ") + buf + ",\n  \"metrics\": [";
  bool first = true;
  for (const Meta& meta : metas) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\":\"" + json_escape(meta.name) + "\",\"labels\":{" +
           labels_text(meta.labels, /*json=*/true) + "},";
    switch (meta.kind) {
      case MetricKind::counter:
        std::snprintf(buf, sizeof buf, "%" PRIu64, merged_slot(meta.id));
        out += std::string("\"type\":\"counter\",\"value\":") + buf + "}";
        break;
      case MetricKind::gauge:
        std::snprintf(buf, sizeof buf, "%" PRIu64,
                      gauges_[meta.id].load(std::memory_order_relaxed));
        out += std::string("\"type\":\"gauge\",\"value\":") + buf + "}";
        break;
      case MetricKind::histogram: {
        out += "\"type\":\"histogram\",\"count\":";
        std::snprintf(buf, sizeof buf, "%" PRIu64, merged_slot(meta.id));
        out += buf;
        std::snprintf(buf, sizeof buf, "%" PRIu64, merged_slot(meta.id + 1));
        out += std::string(",\"sum_nanos\":") + buf + ",\"buckets\":[";
        bool first_bucket = true;
        for (std::uint32_t b = 0; b < kHistogramBuckets; ++b) {
          const std::uint64_t count = merged_slot(meta.id + 2 + b);
          if (count == 0) continue;
          std::snprintf(buf, sizeof buf, "[%u,%" PRIu64 "]", b, count);
          out += first_bucket ? "" : ",";
          out += buf;
          first_bucket = false;
        }
        out += "]}";
        break;
      }
    }
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string MetricsRegistry::to_prometheus() const {
  std::scoped_lock lock(mutex_);
  const std::vector<Meta> metas = sorted_metas();
  std::string out;
  char buf[64];
  std::string last_name;
  for (const Meta& meta : metas) {
    if (meta.name != last_name) {
      const char* type = meta.kind == MetricKind::counter   ? "counter"
                         : meta.kind == MetricKind::gauge   ? "gauge"
                                                            : "histogram";
      out += "# TYPE " + meta.name + " " + type + "\n";
      last_name = meta.name;
    }
    const std::string labels = labels_text(meta.labels, /*json=*/false);
    if (meta.kind == MetricKind::histogram) {
      std::uint64_t cumulative = 0;
      for (std::uint32_t b = 0; b < kHistogramBuckets; ++b) {
        cumulative += merged_slot(meta.id + 2 + b);
        if (cumulative == 0) continue;  // skip the leading empty buckets
        std::snprintf(buf, sizeof buf, "%llu",
                      1ULL << std::min(b + 1, 63u));
        out += meta.name + "_bucket{" + labels + (labels.empty() ? "" : ",") +
               "le=\"" + buf + "\"} ";
        std::snprintf(buf, sizeof buf, "%" PRIu64, cumulative);
        out += std::string(buf) + "\n";
      }
      std::snprintf(buf, sizeof buf, "%" PRIu64, merged_slot(meta.id));
      out += meta.name + "_bucket{" + labels + (labels.empty() ? "" : ",") +
             "le=\"+Inf\"} " + buf + "\n";
      out += meta.name + "_count{" + labels + "} " + buf + "\n";
      std::snprintf(buf, sizeof buf, "%" PRIu64, merged_slot(meta.id + 1));
      out += meta.name + "_sum{" + labels + "} " + buf + "\n";
      continue;
    }
    const std::uint64_t value =
        meta.kind == MetricKind::counter
            ? merged_slot(meta.id)
            : gauges_[meta.id].load(std::memory_order_relaxed);
    std::snprintf(buf, sizeof buf, "%" PRIu64, value);
    out += meta.name + (labels.empty() ? "" : "{" + labels + "}") + " " +
           buf + "\n";
  }
  return out;
}

void MetricsRegistry::dump(std::FILE* out) const {
  std::scoped_lock lock(mutex_);
  const std::vector<Meta> metas = sorted_metas();
  std::fprintf(out, "=== dfgen metrics (%zu series) ===\n", metas.size());
  for (const Meta& meta : metas) {
    std::string series = meta.name;
    if (!meta.labels.empty()) {
      series += "{" + labels_text(meta.labels, /*json=*/false) + "}";
    }
    switch (meta.kind) {
      case MetricKind::counter:
        std::fprintf(out, "%-72s %12" PRIu64 "\n", series.c_str(),
                     merged_slot(meta.id));
        break;
      case MetricKind::gauge:
        std::fprintf(out, "%-72s %12" PRIu64 "  (gauge)\n", series.c_str(),
                     gauges_[meta.id].load(std::memory_order_relaxed));
        break;
      case MetricKind::histogram: {
        const std::uint64_t count = merged_slot(meta.id);
        const std::uint64_t sum = merged_slot(meta.id + 1);
        std::fprintf(out,
                     "%-72s %12" PRIu64 "  (histogram, sum %" PRIu64
                     " ns, mean %.0f ns)\n",
                     series.c_str(), count, sum,
                     count == 0 ? 0.0
                                : static_cast<double>(sum) /
                                      static_cast<double>(count));
        break;
      }
    }
  }
}

MetricsRegistry& metrics() {
  MetricsRegistry* current = g_current.load(std::memory_order_acquire);
  if (current != nullptr) return *current;
  static MetricsRegistry default_registry;
  // Registered only after default_registry (and the env statics its
  // constructor touches) finished constructing: atexit handlers and static
  // destructors run in reverse registration order, so the flush sees them
  // all still alive.
  static std::once_flag flush_once;
  std::call_once(flush_once, [] { std::atexit(at_exit_flush); });
  return default_registry;
}

ScopedMetricsRegistry::ScopedMetricsRegistry()
    : prev_(g_current.exchange(&mine_, std::memory_order_acq_rel)) {}

ScopedMetricsRegistry::~ScopedMetricsRegistry() {
  g_current.store(prev_, std::memory_order_release);
}

void dump_metrics(std::FILE* out) { metrics().dump(out); }

void write_metrics_file(const std::string& path) {
  const bool json = path.size() >= 5 &&
                    path.compare(path.size() - 5, 5, ".json") == 0;
  const std::string text =
      json ? metrics().to_json() : metrics().to_prometheus();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw Error("cannot open metrics output file '" + path + "'");
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    throw Error("short write to metrics output file '" + path + "'");
  }
}

}  // namespace dfg::obs
