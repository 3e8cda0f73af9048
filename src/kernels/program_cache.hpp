// Kernel layer: process-wide fused-program cache.
//
// Kernel generation (and optimisation) is pure: the same network structure
// always yields the same programs. The cache memoises generate_fused_pipeline
// results keyed by the network's identity bytes, so repeated
// Engine::evaluate calls, the planner's estimate walks, and every block of
// a distributed run generate each pipeline once while it stays among the
// kPipelineCapacity most recently used. Standalone primitive programs (used
// by the staged and roundtrip strategies) are memoised the same way, keyed
// by primitive kind / component / constant bits.
//
// The cache also owns the process's compiled jit modules (jit_module):
// shared objects are expensive to produce (a full toolchain invocation),
// so they are memoised by program content + compiler command with LRU
// eviction over a bounded capacity (64 modules; set_jit_capacity changes
// it) — compile-once, run-many. The auto backend's tiered lookup
// (tiered_jit_module) never blocks: it hands a program launched a second
// time to the cache's one background compiler thread.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>

#include "dataflow/network.hpp"
#include "kernels/generator.hpp"
#include "kernels/jit.hpp"
#include "kernels/program.hpp"

namespace dfg::kernels {

/// Monotonic hit/miss counters (a "miss" is any request that ran the
/// generator).
struct ProgramCacheStats {
  std::uint64_t pipeline_hits = 0;
  std::uint64_t pipeline_misses = 0;
  std::uint64_t standalone_hits = 0;
  std::uint64_t standalone_misses = 0;

  /// Both caches together, as the reports count them.
  std::uint64_t hits() const { return pipeline_hits + standalone_hits; }
  std::uint64_t misses() const { return pipeline_misses + standalone_misses; }
};

/// Monotonic totals for the jit module cache (process-wide; the same
/// figures feed the dfgen_jit_* metrics counters). A "hit" includes finding
/// a compile still in flight and re-reading a negative-cached failure; a
/// "miss" starts or queues a compile; "compiles" counts finished toolchain
/// invocations, so misses == compiles once no compile is in flight.
struct JitCacheStats {
  std::uint64_t compiles = 0;
  std::uint64_t compile_failures = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

class ProgramCache {
 public:
  /// Fused pipelines held at once; one more evicts the least recently used.
  static constexpr std::size_t kPipelineCapacity = 256;
  /// Keys of programs the tiered lookup has seen launched once.
  static constexpr std::size_t kSeenCapacity = 1024;

  /// The process-wide instance. All methods are thread-safe.
  static ProgramCache& instance();

  /// Stops the background compiler: a compile already running finishes,
  /// queued ones are dropped (their slots resolve to nullptr).
  ~ProgramCache();

  /// The fused pipeline for `network`, generated on first request. The
  /// returned pointer stays valid for as long as the caller holds it:
  /// eviction (LRU beyond kPipelineCapacity) and clear() only detach
  /// entries from the cache.
  std::shared_ptr<const FusedPipeline> fused_pipeline(
      const dataflow::Network& network,
      const std::string& kernel_name = "fused_expression");

  /// fused_pipeline for a non-partitioned network: its only stage is the
  /// single fused kernel. Throws KernelError with generate_fused's guidance
  /// when the network requires partitioning (the streamed path cannot
  /// execute pipelines).
  std::shared_ptr<const FusedPipeline> fused_single(
      const dataflow::Network& network,
      const std::string& kernel_name = "fused_expression");

  /// A standalone primitive program (make_standalone_program memoised).
  /// `value` is only meaningful for constant-fill programs, `component`
  /// for decompose. Standalone programs are never optimized: they are
  /// single-primitive bodies with nothing to fold.
  std::shared_ptr<const Program> standalone(const std::string& kind,
                                            int component = 0,
                                            float value = 0.0f);

  /// The compiled jit module for `program`, or nullptr when compilation
  /// failed (failures are negative-cached, so a broken toolchain costs one
  /// compiler invocation per program, not one per launch). Entries are
  /// keyed by the program's content and the compiler command, found by
  /// Program::fingerprint() and compared on every hit: changing
  /// DFGEN_JIT_CC both invalidates stale successes and retries past
  /// failures. Concurrent requests for the same key join one
  /// in-flight compile (it runs outside the cache lock; joiners block on a
  /// shared future and count as hits). At most jit_capacity() modules stay
  /// resident — least-recently-used entries are evicted first, and an
  /// evicted module's shared object is unloaded once the last outstanding
  /// kernel drops its reference. The first compile also reaps artifacts
  /// abandoned by dead processes (jit::reap_stale_artifacts).
  std::shared_ptr<const jit::Module> jit_module(const Program& program);

  /// jit_module for the auto backend, which never waits for a compiler.
  /// nullopt means no module is ready yet and the launch runs on the VM:
  /// the first request for a key only marks it seen (in a ring of
  /// kSeenCapacity keys, so one-shot programs never displace a module),
  /// the second queues its compile on the background compiler thread, and
  /// requests while that compile is in flight keep returning nullopt.
  /// Afterwards it returns what jit_module would: the module, or nullptr
  /// for a negative-cached failure. The slot is the one jit_module uses,
  /// so a jit-backend request for a queued key joins the same compile.
  std::optional<std::shared_ptr<const jit::Module>> tiered_jit_module(
      const Program& program);

  std::size_t jit_capacity() const;
  /// Shrinking below the resident count evicts immediately (LRU first).
  void set_jit_capacity(std::size_t capacity);
  JitCacheStats jit_stats() const;

  ProgramCacheStats stats() const;

  /// Stats accumulated by requests issued from the *calling thread* only
  /// (monotonic per thread, never reset — reset_stats() deliberately does
  /// not touch them, so a before/after delta can never straddle a reset).
  /// Concurrent evaluations attribute cache traffic to their own report by
  /// taking before/after deltas of this instead of the process-wide
  /// totals, which race under concurrency: a delta of stats() spanning
  /// another engine's evaluation charges this report with that engine's
  /// hits and misses. Every cache request an evaluation makes (strategies,
  /// planner walks, the engine's source dump) happens on the evaluating
  /// thread, so thread deltas are exact — including for a service worker
  /// thread reused across sessions, where each evaluation's delta window
  /// opens after the previous session's traffic is already in the base
  /// snapshot. Backed by the obs::MetricsRegistry thread shards
  /// (dfgen_cache_requests_total), not a separate thread_local mirror.
  ProgramCacheStats thread_stats() const;

  void reset_stats();
  /// Drops all cached entries and the seen-once marks (outstanding
  /// shared_ptrs stay valid; queued and running compiles still publish).
  void clear();

 private:
  ProgramCache();

  using StandaloneKey = std::tuple<std::string, int, std::uint32_t>;
  using ModulePromise = std::promise<std::shared_ptr<const jit::Module>>;

  struct PipelineSlot {
    std::string identity;  ///< dataflow::Network::identity()
    std::string kernel_name;
    std::shared_ptr<const FusedPipeline> pipeline;
    std::uint64_t last_use = 0;
  };

  /// One jit cache slot. `ready` resolves to the module (nullptr for a
  /// negative-cached failure); while the compile is queued or running the
  /// slot is already in the map so racing requests dedup onto the same
  /// future.
  struct JitSlot {
    std::shared_future<std::shared_ptr<const jit::Module>> ready;
    std::uint64_t last_use = 0;
    /// Compared on every hit; shared with the CompileJob that builds it.
    std::shared_ptr<const Program> program;
    std::string cc;
    /// The compile is queued or running: `ready` has no value yet.
    bool in_flight() const {
      return ready.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready;
    }
  };

  /// A compile queued for the background thread: the slot's program and
  /// a copy of the compiler command taken when it was queued.
  struct CompileJob {
    std::shared_ptr<const Program> program;
    std::string cc;
    ModulePromise promise;
  };

  /// The slot of exactly `program` and `cc`, or end(). Requires mutex_.
  std::multimap<std::uint64_t, JitSlot>::iterator find_jit_locked(
      const Program& program, const std::string& cc);
  /// Counts a miss and inserts an in-flight slot for `program`; the
  /// returned promise publishes into it. Requires mutex_ held.
  ModulePromise open_slot_locked(std::shared_ptr<const Program> program,
                                 std::string cc);
  /// Runs the toolchain and publishes the result through `promise`.
  /// Called without mutex_ held.
  std::shared_ptr<const jit::Module> compile_into(const Program& program,
                                                  const std::string& cc,
                                                  ModulePromise& promise);
  /// The background compiler thread's body: serves compile_queue_ in FIFO
  /// order until the destructor sets stopping_.
  void compile_loop();

  /// Evicts LRU jit slots until at most jit_capacity_ remain. In-flight
  /// slots are pinned (evicting one would recompile what is already being
  /// compiled). Requires mutex_ held.
  void evict_jit_locked();

  mutable std::mutex mutex_;
  std::multimap<std::uint64_t, PipelineSlot> pipelines_;
  std::map<StandaloneKey, std::shared_ptr<const Program>> standalones_;
  std::multimap<std::uint64_t, JitSlot> jit_modules_;
  std::uint64_t tick_ = 0;
  std::size_t jit_capacity_ = 64;
  std::once_flag reaped_;
  /// Ring of hashes of programs launched once under the tiered lookup
  /// (fingerprint xor the compiler command's hash); seen_count_ is the
  /// number of marks ever written since the last clear().
  std::array<std::uint64_t, kSeenCapacity> seen_{};
  std::size_t seen_count_ = 0;
  std::deque<CompileJob> compile_queue_;
  std::condition_variable compile_wake_;
  std::thread compiler_;
  bool stopping_ = false;
  ProgramCacheStats stats_;
  JitCacheStats jit_stats_;
};

}  // namespace dfg::kernels
