#include "kernels/program_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <utility>

#include "kernels/primitives.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/checksum.hpp"
#include "support/error.hpp"

namespace dfg::kernels {

namespace {

// Per-thread attribution lives in the metrics registry's thread shards
// (one series per cache/result pair), not in a second thread_local mirror:
// the counters are monotonic and never reset, so a worker thread reused
// across two sessions always attributes each evaluation's traffic by
// before/after deltas with no reset point to race on.
obs::MetricId requests_counter(const char* cache, const char* result) {
  obs::MetricsRegistry& reg = obs::metrics();
  return reg.counter("dfgen_cache_requests_total",
                     {{"cache", cache}, {"result", result}});
}

void count_request(const char* cache, const char* result) {
  obs::metrics().add(requests_counter(cache, result));
}

void count_evictions(const char* cache, std::size_t dropped) {
  if (dropped == 0) return;
  obs::MetricsRegistry& reg = obs::metrics();
  reg.add(reg.counter("dfgen_cache_evictions_total", {{"cache", cache}}),
          dropped);
}

// Flat (unlabeled) jit counters — the engine registers the full set
// eagerly so metrics goldens stay schema-complete even for runs that never
// touch the jit backend.
void count_jit(const char* name, std::uint64_t delta = 1) {
  if (delta == 0) return;
  obs::MetricsRegistry& reg = obs::metrics();
  reg.add(reg.counter(name), delta);
}

/// Module-cache key: flipping DFGEN_JIT_CC must both invalidate modules
/// built by another toolchain and retry negative-cached failures from a
/// broken one.
std::uint64_t jit_key(const Program& program, const std::string& cc) {
  return program.fingerprint() ^ support::fnv1a(cc.data(), cc.size());
}

}  // namespace

ProgramCache& ProgramCache::instance() {
  static ProgramCache cache;
  return cache;
}

ProgramCache::ProgramCache() {
  // The background compiler counts into the metrics registry and records
  // spans. Constructing both first makes them outlive this cache (statics
  // are destroyed in reverse order), so the destructor joins the compiler
  // before anything it touches is gone.
  obs::metrics();
  obs::SpanTracer::instance();
}

ProgramCache::~ProgramCache() {
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  compile_wake_.notify_all();
  if (compiler_.joinable()) compiler_.join();
  for (CompileJob& job : compile_queue_) job.promise.set_value(nullptr);
}

std::shared_ptr<const FusedPipeline> ProgramCache::fused_pipeline(
    const dataflow::Network& network, const std::string& kernel_name) {
  std::unique_lock lock(mutex_);
  const PipelineKey key{network.fingerprint(), kernel_name};
  const auto it = pipelines_.find(key);
  if (it != pipelines_.end()) {
    it->second.last_use = ++tick_;
    ++stats_.pipeline_hits;
    count_request("pipeline", "hit");
    return it->second.pipeline;
  }
  ++stats_.pipeline_misses;
  count_request("pipeline", "miss");
  // Generation can be slow; run it outside the lock (a racing thread may
  // generate the same pipeline — both results are identical, last wins).
  lock.unlock();
  auto pipeline = std::make_shared<const FusedPipeline>(
      generate_fused_pipeline(network, kernel_name));
  lock.lock();
  pipelines_[key] = PipelineSlot{pipeline, ++tick_};
  if (pipelines_.size() > kPipelineCapacity) {
    // Callers hold the shared_ptr they were handed, so dropping the entry
    // never frees a pipeline in use.
    pipelines_.erase(std::min_element(
        pipelines_.begin(), pipelines_.end(),
        [](const auto& a, const auto& b) {
          return a.second.last_use < b.second.last_use;
        }));
    count_evictions("pipeline", 1);
  }
  return pipeline;
}

std::shared_ptr<const FusedPipeline> ProgramCache::fused_single(
    const dataflow::Network& network, const std::string& kernel_name) {
  std::shared_ptr<const FusedPipeline> pipeline =
      fused_pipeline(network, kernel_name);
  if (pipeline->partitioned()) {
    throw single_kernel_error(network,
                              *materialization_barriers(network).begin());
  }
  return pipeline;
}

std::shared_ptr<const Program> ProgramCache::standalone(
    const std::string& kind, int component, float value) {
  std::unique_lock lock(mutex_);
  const StandaloneKey key{kind, component, std::bit_cast<std::uint32_t>(value)};
  const auto it = standalones_.find(key);
  if (it != standalones_.end()) {
    ++stats_.standalone_hits;
    count_request("standalone", "hit");
    return it->second;
  }
  ++stats_.standalone_misses;
  count_request("standalone", "miss");
  lock.unlock();
  auto program = std::make_shared<const Program>(
      make_standalone_program(kind, component, value));
  lock.lock();
  standalones_[key] = program;
  return program;
}

std::shared_ptr<const jit::Module> ProgramCache::jit_module(
    const Program& program) {
  const std::string cc = jit::compiler_command();
  const std::uint64_t key = jit_key(program, cc);

  std::unique_lock lock(mutex_);
  const auto it = jit_modules_.find(key);
  if (it != jit_modules_.end()) {
    it->second.last_use = ++tick_;
    ++jit_stats_.hits;
    count_jit("dfgen_jit_cache_hits_total");
    // Another thread may still be compiling this slot; get() blocks until
    // it publishes. Copy the future out so the wait happens unlocked.
    const auto ready = it->second.ready;
    lock.unlock();
    return ready.get();
  }
  ModulePromise promise = open_slot_locked(key);
  lock.unlock();
  return compile_into(program, cc, promise);
}

std::optional<std::shared_ptr<const jit::Module>>
ProgramCache::tiered_jit_module(const Program& program) {
  std::string cc = jit::compiler_command();
  const std::uint64_t key = jit_key(program, cc);

  std::unique_lock lock(mutex_);
  const auto it = jit_modules_.find(key);
  if (it != jit_modules_.end()) {
    it->second.last_use = ++tick_;
    ++jit_stats_.hits;
    count_jit("dfgen_jit_cache_hits_total");
    if (it->second.in_flight()) return std::nullopt;
    return it->second.ready.get();
  }
  // A program launched once is not worth a compile: most never come back,
  // and their compiles would only crowd out the ones that do.
  const auto seen_end =
      seen_.begin() + static_cast<std::ptrdiff_t>(
                          std::min(seen_count_, seen_.size()));
  if (std::find(seen_.begin(), seen_end, key) == seen_end) {
    seen_[seen_count_++ % seen_.size()] = key;
    return std::nullopt;
  }
  compile_queue_.push_back(
      CompileJob{program, std::move(cc), open_slot_locked(key)});
  if (!compiler_.joinable()) {
    compiler_ = std::thread([this] { compile_loop(); });
  }
  lock.unlock();
  compile_wake_.notify_one();
  return std::nullopt;
}

ProgramCache::ModulePromise ProgramCache::open_slot_locked(
    std::uint64_t key) {
  ++jit_stats_.misses;
  count_jit("dfgen_jit_cache_misses_total");
  ModulePromise promise;
  JitSlot& slot = jit_modules_[key];
  slot.ready = promise.get_future().share();
  slot.last_use = ++tick_;
  return promise;
}

std::shared_ptr<const jit::Module> ProgramCache::compile_into(
    const Program& program, const std::string& cc, ModulePromise& promise) {
  std::call_once(reaped_, [] { jit::reap_stale_artifacts(); });
  // The toolchain invocation runs outside the lock (it dominates any
  // cache operation by orders of magnitude); the in-flight slot already in
  // the map makes racing requests join this compile instead of starting
  // their own. Charged as a one-time span so traces show compile latency
  // separated from launch time.
  std::shared_ptr<const jit::Module> module;
  std::string failure;
  {
    obs::Span span("jit_compile:" + program.name(), "compile");
    try {
      module = jit::compile(program, cc);
    } catch (const std::exception& e) {
      failure = e.what();
    }
  }

  // Published under the lock, so a slot is never seen ready before its
  // compile is counted.
  std::unique_lock lock(mutex_);
  promise.set_value(module);
  ++jit_stats_.compiles;
  count_jit("dfgen_jit_compiles_total");
  if (module == nullptr) {
    ++jit_stats_.compile_failures;
    count_jit("dfgen_jit_compile_failures_total");
  }
  evict_jit_locked();
  lock.unlock();

  if (!failure.empty()) {
    std::fprintf(stderr, "[dfgen] %s\n", failure.c_str());
  }
  return module;
}

void ProgramCache::compile_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    compile_wake_.wait(
        lock, [this] { return stopping_ || !compile_queue_.empty(); });
    if (stopping_) return;
    CompileJob job = std::move(compile_queue_.front());
    compile_queue_.pop_front();
    lock.unlock();
    compile_into(job.program, job.cc, job.promise);
    lock.lock();
  }
}

std::size_t ProgramCache::jit_capacity() const {
  std::scoped_lock lock(mutex_);
  return jit_capacity_;
}

void ProgramCache::set_jit_capacity(std::size_t capacity) {
  std::scoped_lock lock(mutex_);
  jit_capacity_ = capacity;
  evict_jit_locked();
}

JitCacheStats ProgramCache::jit_stats() const {
  std::scoped_lock lock(mutex_);
  return jit_stats_;
}

void ProgramCache::evict_jit_locked() {
  while (jit_modules_.size() > jit_capacity_) {
    auto victim = jit_modules_.end();
    for (auto it = jit_modules_.begin(); it != jit_modules_.end(); ++it) {
      if (it->second.in_flight()) continue;
      if (victim == jit_modules_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == jit_modules_.end()) break;  // every slot is compiling
    jit_modules_.erase(victim);
    ++jit_stats_.evictions;
    count_jit("dfgen_jit_cache_evictions_total");
  }
}

ProgramCacheStats ProgramCache::stats() const {
  std::scoped_lock lock(mutex_);
  return stats_;
}

ProgramCacheStats ProgramCache::thread_stats() const {
  // Reads the calling thread's metrics shard: no lock, no other thread
  // ever writes those slots.
  obs::MetricsRegistry& reg = obs::metrics();
  ProgramCacheStats stats;
  stats.pipeline_hits =
      reg.thread_counter_value(requests_counter("pipeline", "hit"));
  stats.pipeline_misses =
      reg.thread_counter_value(requests_counter("pipeline", "miss"));
  stats.standalone_hits =
      reg.thread_counter_value(requests_counter("standalone", "hit"));
  stats.standalone_misses =
      reg.thread_counter_value(requests_counter("standalone", "miss"));
  return stats;
}

void ProgramCache::reset_stats() {
  std::scoped_lock lock(mutex_);
  stats_ = ProgramCacheStats{};
}

void ProgramCache::clear() {
  std::scoped_lock lock(mutex_);
  count_evictions("pipeline", pipelines_.size());
  count_evictions("standalone", standalones_.size());
  pipelines_.clear();
  standalones_.clear();
  seen_count_ = 0;
  // Jit modules are dropped too (kernels holding a module keep it loaded
  // until they finish); in-flight slots stay — erasing one would detach a
  // queued or running compile that is about to publish into it.
  std::size_t dropped = 0;
  for (auto it = jit_modules_.begin(); it != jit_modules_.end();) {
    if (it->second.in_flight()) {
      ++it;
    } else {
      it = jit_modules_.erase(it);
      ++dropped;
    }
  }
  jit_stats_.evictions += dropped;
  count_jit("dfgen_jit_cache_evictions_total", dropped);
}

}  // namespace dfg::kernels
