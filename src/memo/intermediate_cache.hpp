// Memo layer: the materialized-intermediate cache.
//
// Holds the materialized outputs of memoized subtrees — one float per
// element, host-canonical — keyed by the candidate identity bytes (found by
// their hash, compared on a hit). Device residency is not duplicated here:
// a consumer binds the entry's host array like any other field, so the
// per-device ResidentPool keeps it resident with its usual content-
// identity discipline, pin scopes and watermark — and drops it on device
// loss like every other resident. What the cache adds is the cross-device
// canonical value plus the policies the pool cannot provide:
//
//   * Coherence: each entry records the generation tag of every host
//     array its value derives from (vcl::host_generation at
//     materialization). Every lookup re-checks them; a mutation of any
//     dependency (note_host_mutation / Engine::invalidate) drops the
//     entry — dependent intermediates can never be served stale.
//   * LRU-with-cost eviction: when over capacity, the entry with the
//     least estimated recompute-seconds-saved per byte goes first
//     (recompute × (1 + hits) / bytes), LRU among equals. Cheap, cold
//     intermediates make room for expensive, hot ones.
//   * Pin-scoped safety: entries are handed out as shared_ptrs; an
//     eviction concurrent with an in-flight read frees nothing until the
//     reader drops its reference. The evicted storage's generation tag is
//     bumped on the way out, so device-resident copies keyed by its
//     address can never stale-hit after the memory is reused.
//
// Thread safety: internally synchronized; entries are immutable after
// admission (hit counters mutate under the cache lock only).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dfg::memo {

class IntermediateCache {
 public:
  struct Options {
    /// Total bytes of materialized values kept (host-canonical mirror;
    /// the device copies live in each device's ResidentPool under its own
    /// watermark).
    std::size_t capacity_bytes = 64ull << 20;
  };

  /// Cumulative traffic since construction (unit-test visibility; the
  /// service mirrors these into dfgen_memo_* registry counters).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t admits = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
  };

  struct Entry {
    std::string key;
    std::vector<float> values;
    /// Planner-estimated sim-seconds to recompute this subtree (backend-
    /// efficiency-aware); drives eviction scoring and the bench's
    /// recompute-saved accounting.
    double recompute_seconds = 0.0;
    /// (host array, generation at materialization) for every dependency.
    std::vector<std::pair<const void*, std::uint64_t>> deps;
    std::uint64_t hits = 0;
    std::uint64_t last_use = 0;

    std::size_t bytes() const { return values.size() * sizeof(float); }
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  IntermediateCache();
  explicit IntermediateCache(Options options);
  /// Bumps every remaining entry's storage generation (see drop path).
  ~IntermediateCache();
  IntermediateCache(const IntermediateCache&) = delete;
  IntermediateCache& operator=(const IntermediateCache&) = delete;

  /// Coherent lookup: null on miss. An entry whose recorded dependency
  /// generations no longer match the live tags is dropped (counted as an
  /// invalidation) and reported as a miss.
  EntryPtr lookup(std::string_view key);

  /// Inserts a materialized value (dependencies' generations are recorded
  /// by the caller *before* materialization, so a mutation racing the
  /// evaluation invalidates rather than lingers), evicting by
  /// LRU-with-cost until it fits. Values larger than capacity are not
  /// admitted (null). An existing entry under `key` is kept (first write
  /// wins; concurrent workers may materialize the same subtree).
  EntryPtr admit(std::string key, std::vector<float> values,
                 double recompute_seconds,
                 std::vector<std::pair<const void*, std::uint64_t>> deps);

  /// Drops every entry that depends on `ptr` (explicit invalidation; the
  /// lazy generation check catches mutations anyway — this frees the
  /// bytes immediately).
  void invalidate_dependents(const void* ptr);

  /// Drops everything (teardown, tests).
  void clear();

  std::size_t resident_bytes() const;
  std::size_t entry_count() const;
  std::size_t capacity_bytes() const { return options_.capacity_bytes; }
  Stats stats() const;

 private:
  // The *_locked helpers assume mutex_ is held.
  using Entries = std::multimap<std::uint64_t, std::shared_ptr<Entry>>;
  /// The entry stored under exactly `key`, or entries_.end().
  Entries::iterator find_locked(std::string_view key);
  void drop_locked(Entries::iterator it);
  void evict_to_fit_locked(std::size_t incoming_bytes);

  Options options_;
  mutable std::mutex mutex_;
  Entries entries_;
  std::size_t resident_bytes_ = 0;
  std::uint64_t tick_ = 0;
  Stats stats_;
};

}  // namespace dfg::memo
