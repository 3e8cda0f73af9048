// Virtual compute layer: content-identity resident-buffer pool.
//
// The paper's host interface re-uploads every bound array on every
// evaluation, even when consecutive evaluations bind the exact same host
// arrays — the common case for repeated-workload traffic (a visualization
// client re-deriving fields from one time step, the evaluation service
// re-running a tenant's expression). This pool keeps those uploads
// *resident* on their device across evaluations, keyed by content
// identity:
//
//     (host pointer, length in floats, generation tag)
//
// A strategy that is about to upload a bound array first asks the pool;
// a hit reuses the device buffer from a previous evaluation and the
// transfer is eliminated entirely (no Dev-W event, no simulated transfer
// time). A miss uploads through the normal profiled path and the buffer
// stays in the pool afterwards.
//
// Coherence is explicit, like OpenCL's: the framework never copies bound
// arrays (the in-situ contract, paper §III-D), so it cannot observe host
// mutation. A caller that mutates — or frees and re-creates — a bound
// array must bump its generation tag with note_host_mutation() (or
// Engine::invalidate). The pool compares the tag recorded at upload time
// with the current tag on every acquire; a mismatch drops the stale entry
// and re-uploads. FieldBindings bumps tags for arrays it owns when they
// are destroyed, so short-lived owned arrays can never produce a stale
// hit through pointer reuse. Transient intermediates (roundtrip host
// values, slab dims arrays) are never pooled at all.
//
// Capacity cooperation:
//   * residents are charged to the device's MemoryTracker like any buffer,
//     but with the AllocationHook suspended — session quotas bound each
//     evaluation's *transient* working set, while residents are
//     device-level state shared across sessions;
//   * the pool keeps itself under a watermark fraction of device capacity
//     with LRU eviction, and Device::allocate evicts unpinned residents
//     one by one when a transient allocation hits the capacity wall, so a
//     full pool degrades to exactly the cold-path behaviour instead of
//     causing spurious DeviceOutOfMemory;
//   * entries acquired under a PinScope are pinned until the scope closes
//     (the engine opens one per evaluation, slab execution one per chunk),
//     so eviction can never free a buffer a running kernel still reads.
//
// Thread safety: the pool is internally synchronized. Strategies acquire
// from the device's evaluating thread, but invalidation arrives from
// wherever the host mutates data — Engine::invalidate on another session's
// thread, the service's bind teardown — and Device::allocate's evict-retry
// may run concurrently with either. All public methods lock one pool
// mutex; the only state readable without it is the atomic counters and the
// enabled flag. Pinned entries are never freed by a concurrent
// invalidation: they are doomed and erased at the last unpin, so an
// in-flight evaluation keeps its buffers while losing the race only for
// *future* hits.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "vcl/buffer.hpp"

namespace dfg::vcl {

class Device;
class CommandQueue;

/// Current generation tag of a host allocation (0 until first mutation).
/// Process-wide and thread-safe: the evaluation service's workers consult
/// it concurrently.
std::uint64_t host_generation(const void* ptr);

/// Bumps the generation tag of a host allocation. Call after mutating a
/// bound array in place, or after freeing it (so a new array that reuses
/// the address can never stale-hit). Engine::invalidate and FieldBindings'
/// owned-array teardown call this; hosts mutating their own arrays call it
/// directly (or through Engine::invalidate).
void note_host_mutation(const void* ptr);

class ResidentPool {
 public:
  /// Cumulative traffic counters. Atomic so snapshot readers on other
  /// threads (the service) race-freely observe a device they do not drive.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t upload_bytes_saved = 0;
  };

  /// Pins every entry acquired while it is the innermost open scope, and
  /// unpins them on destruction. Strategies hold buffers only inside the
  /// evaluation (or, for slab execution, inside one chunk), so scopes give
  /// eviction an exact definition of "in use".
  class PinScope {
   public:
    explicit PinScope(ResidentPool& pool);
    ~PinScope();
    PinScope(const PinScope&) = delete;
    PinScope& operator=(const PinScope&) = delete;

   private:
    friend class ResidentPool;
    ResidentPool* pool_;
    PinScope* parent_;
    /// Keys pinned under this scope (an entry acquired twice is recorded
    /// twice and unpinned twice — pin counts balance exactly).
    std::vector<std::pair<const void*, std::size_t>> keys_;
  };

  explicit ResidentPool(Device& device);
  ~ResidentPool();
  ResidentPool(const ResidentPool&) = delete;
  ResidentPool& operator=(const ResidentPool&) = delete;

  /// Gate consulted on every acquire. Disabled (the default), acquire
  /// returns nullptr without touching any state, so the cold upload path
  /// is byte-identical to a build without the pool. Entries survive a
  /// disable: re-enabling sees the old residents (generation checks keep
  /// them honest).
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Fraction of device capacity the pool may occupy (LRU-evicted back
  /// under it on insert; 0.5 by default). Clamped to [0, 1].
  void set_watermark_fraction(double fraction);
  double watermark_fraction() const;

  /// Returns a resident device buffer holding `host`, or nullptr when the
  /// caller must take the cold path (pool disabled, array larger than the
  /// watermark, or no room and nothing evictable). On a hit no transfer
  /// happens; on a miss the array is uploaded through `queue` under
  /// `label` — the same profiled write the cold path would issue — and
  /// stays resident. `generation_key` identifies the allocation whose
  /// generation tag governs this span; defaults to host.data() and is
  /// overridden by slab execution, whose sub-range uploads must follow the
  /// *base* array's tag.
  const Buffer* acquire(CommandQueue& queue, std::span<const float> host,
                        const std::string& label,
                        const void* generation_key = nullptr);

  /// True when acquire() would hit right now (no state is touched). The
  /// planner's residency probe prices warm inputs with this.
  bool would_hit(std::span<const float> host,
                 const void* generation_key = nullptr) const;

  /// Drops every entry whose host pointer is `ptr` (all lengths).
  void invalidate(const void* ptr);

  /// Drops every entry.
  void clear();

  /// Evicts the least-recently-used unpinned entry; returns the bytes
  /// freed (0 when nothing is evictable). Device::allocate calls this to
  /// make room for transient allocations.
  std::size_t evict_lru_unpinned();

  std::size_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  std::size_t entry_count() const;
  std::size_t watermark_bytes() const;

  Stats stats() const;

 private:
  struct Key {
    const void* ptr = nullptr;
    std::size_t len = 0;
    bool operator<(const Key& other) const {
      return ptr != other.ptr ? ptr < other.ptr : len < other.len;
    }
  };
  struct Entry {
    Buffer buffer;
    std::uint64_t generation = 0;
    std::uint64_t last_use = 0;
    int pins = 0;
    /// Invalidated while pinned: never hits again, erased at unpin.
    bool doomed = false;
  };
  using EntryMap = std::map<Key, Entry>;

  // The *_locked helpers assume mutex_ is held by the caller.
  void pin_locked(EntryMap::iterator it);
  void end_scope(PinScope& scope);
  std::size_t evict_lru_unpinned_locked();
  std::size_t watermark_bytes_locked() const;
  /// Erases an entry (hook suspended) and keeps resident_bytes_ exact.
  void erase_entry_locked(EntryMap::iterator it);
  /// Invalidation path: erase now, or doom until unpinned.
  void drop_entry_locked(EntryMap::iterator it);
  void count(std::uint64_t Stats::*member, const char* counter,
             std::uint64_t delta = 1);
  void publish_gauge();

  Device* device_;
  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{false};
  double watermark_fraction_ = 0.5;
  EntryMap entries_;
  std::uint64_t tick_ = 0;
  PinScope* active_scope_ = nullptr;
  std::atomic<std::size_t> resident_bytes_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> upload_bytes_saved_{0};
};

}  // namespace dfg::vcl
