#include "memo/intermediate_cache.hpp"

#include <algorithm>
#include <limits>

#include "dataflow/network.hpp"
#include "vcl/resident_pool.hpp"

namespace dfg::memo {

IntermediateCache::IntermediateCache() : IntermediateCache(Options()) {}

IntermediateCache::IntermediateCache(Options options) : options_(options) {}

IntermediateCache::~IntermediateCache() { clear(); }

IntermediateCache::Entries::iterator IntermediateCache::find_locked(
    std::string_view key) {
  const auto [first, last] = entries_.equal_range(dataflow::identity_hash(key));
  const auto it = std::find_if(
      first, last, [key](const auto& slot) { return slot.second->key == key; });
  return it == last ? entries_.end() : it;
}

void IntermediateCache::drop_locked(Entries::iterator it) {
  // Bump the storage's own generation tag: any device-resident copy keyed
  // by this address goes stale immediately, and an unrelated array that
  // later reuses the address can never stale-hit. The storage itself is
  // freed when the last in-flight reader drops its shared_ptr.
  vcl::note_host_mutation(it->second->values.data());
  resident_bytes_ -= std::min(resident_bytes_, it->second->bytes());
  entries_.erase(it);
}

IntermediateCache::EntryPtr IntermediateCache::lookup(std::string_view key) {
  std::scoped_lock lock(mutex_);
  const auto it = find_locked(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  for (const auto& [ptr, generation] : it->second->deps) {
    if (vcl::host_generation(ptr) != generation) {
      // A dependency mutated since materialization: the value is stale.
      ++stats_.invalidations;
      ++stats_.misses;
      drop_locked(it);
      return nullptr;
    }
  }
  ++stats_.hits;
  Entry& entry = *it->second;
  ++entry.hits;
  entry.last_use = ++tick_;
  return it->second;
}

void IntermediateCache::evict_to_fit_locked(std::size_t incoming_bytes) {
  while (!entries_.empty() &&
         resident_bytes_ + incoming_bytes > options_.capacity_bytes) {
    // LRU-with-cost: evict the entry with the least estimated recompute
    // time saved per byte kept; least-recently-used among (near-)equals.
    auto victim = entries_.end();
    double victim_score = std::numeric_limits<double>::infinity();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const Entry& entry = *it->second;
      const double score = entry.recompute_seconds *
                           static_cast<double>(1 + entry.hits) /
                           static_cast<double>(std::max<std::size_t>(
                               entry.bytes(), 1));
      if (victim == entries_.end() || score < victim_score ||
          (score == victim_score &&
           entry.last_use < victim->second->last_use)) {
        victim = it;
        victim_score = score;
      }
    }
    ++stats_.evictions;
    drop_locked(victim);
  }
}

IntermediateCache::EntryPtr IntermediateCache::admit(
    std::string key, std::vector<float> values, double recompute_seconds,
    std::vector<std::pair<const void*, std::uint64_t>> deps) {
  std::scoped_lock lock(mutex_);
  if (const auto it = find_locked(key); it != entries_.end()) {
    return it->second;  // a concurrent worker won the materialization race
  }
  const std::size_t bytes = values.size() * sizeof(float);
  if (bytes > options_.capacity_bytes) return nullptr;
  evict_to_fit_locked(bytes);
  auto entry = std::make_shared<Entry>();
  const std::uint64_t hash = dataflow::identity_hash(key);
  entry->key = std::move(key);
  entry->values = std::move(values);
  entry->recompute_seconds = recompute_seconds;
  entry->deps = std::move(deps);
  entry->last_use = ++tick_;
  resident_bytes_ += bytes;
  ++stats_.admits;
  entries_.emplace(hash, entry);
  return entry;
}

void IntermediateCache::invalidate_dependents(const void* ptr) {
  std::scoped_lock lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    const auto& deps = it->second->deps;
    const bool dependent =
        std::any_of(deps.begin(), deps.end(),
                    [ptr](const auto& dep) { return dep.first == ptr; });
    if (dependent) {
      ++stats_.invalidations;
      drop_locked(it++);
    } else {
      ++it;
    }
  }
}

void IntermediateCache::clear() {
  std::scoped_lock lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) drop_locked(it++);
}

std::size_t IntermediateCache::resident_bytes() const {
  std::scoped_lock lock(mutex_);
  return resident_bytes_;
}

std::size_t IntermediateCache::entry_count() const {
  std::scoped_lock lock(mutex_);
  return entries_.size();
}

IntermediateCache::Stats IntermediateCache::stats() const {
  std::scoped_lock lock(mutex_);
  return stats_;
}

}  // namespace dfg::memo
