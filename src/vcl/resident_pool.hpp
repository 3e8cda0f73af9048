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
// Engine::invalidate). That tag is the only coherence signal: the pool
// compares the tag recorded at upload time with the current tag on every
// acquire, and a mismatch drops the stale entry and re-uploads.
// FieldBindings bumps tags for arrays it owns when they are destroyed, so
// short-lived owned arrays can never produce a stale hit through pointer
// reuse. Transient intermediates (roundtrip host values, slab dims
// arrays) are never pooled at all.
//
// Ownership is the pin. acquire() hands out a shared handle to the
// entry's buffer; an entry is in use exactly when someone besides the pool
// holds its handle, and eviction skips such entries. A stale or replaced
// entry leaves the map at once, but its holder keeps the bytes until it
// drops the handle, so no evaluation can lose a buffer it still reads.
//
// Capacity cooperation:
//   * residents are charged to the device's MemoryTracker like any buffer;
//   * the pool keeps itself under a watermark fraction of device capacity
//     with LRU eviction of unheld entries;
//   * a miss allocates through Device::allocate, the cold path's allocator:
//     at the capacity wall it evicts unheld residents one by one, and a
//     scheduled allocation fault surfaces unchanged, pool on or off.
//
// Thread safety: the pool is internally synchronized. Acquires come from
// the thread evaluating on the device; would_hit (the service's
// residency-aware dispatch), eviction and handle release may come from any
// thread. All public methods lock one pool mutex. A miss releases it while
// it allocates and uploads, because Device::allocate may call back into
// evict_lru_unpinned(). The only state readable without the mutex is the
// atomic counters and the enabled flag.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>

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

  explicit ResidentPool(Device& device);
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

  /// Returns a handle to a resident device buffer holding `host`, or null
  /// when the caller must take the cold path (pool disabled, array larger
  /// than the watermark, or no room and nothing evictable). On a hit no
  /// transfer happens; on a miss the array is uploaded through `queue`
  /// under `label` — the same allocation and profiled write the cold path
  /// would issue, faults included — and stays resident. Holding the handle
  /// keeps the entry from eviction. `generation_key` identifies the
  /// allocation whose generation tag governs this span; defaults to
  /// host.data() and is overridden by slab execution, whose sub-range
  /// uploads must follow the *base* array's tag.
  std::shared_ptr<const Buffer> acquire(CommandQueue& queue,
                                        std::span<const float> host,
                                        const std::string& label,
                                        const void* generation_key = nullptr);

  /// True when acquire() would hit right now (no state is touched).
  /// EvalService::pop_locked uses it to hand an idle worker the oldest
  /// request whose fields are all warm on that worker's device.
  bool would_hit(std::span<const float> host,
                 const void* generation_key = nullptr) const;

  /// Evicts the least-recently-used entry that no caller holds; returns
  /// the bytes freed (0 when nothing is evictable). Device::allocate calls
  /// this to make room at the capacity wall.
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
    /// Held elsewhere (use_count() > 1, read under mutex_) means in use.
    std::shared_ptr<const Buffer> buffer;
    std::uint64_t generation = 0;
    std::uint64_t last_use = 0;
  };
  using EntryMap = std::map<Key, Entry>;

  // The *_locked helpers assume mutex_ is held by the caller.
  std::size_t evict_lru_unpinned_locked();
  std::size_t watermark_bytes_locked() const;
  /// Removes an entry from the map and keeps resident_bytes_ exact; the
  /// buffer is freed here unless a caller still holds it.
  void erase_entry_locked(EntryMap::iterator it);
  void count(std::atomic<std::uint64_t>& stat, const char* counter,
             std::uint64_t delta = 1);
  void publish_gauge();

  Device* device_;
  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{false};
  double watermark_fraction_ = 0.5;
  EntryMap entries_;
  std::uint64_t tick_ = 0;
  std::atomic<std::size_t> resident_bytes_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> upload_bytes_saved_{0};
};

}  // namespace dfg::vcl
