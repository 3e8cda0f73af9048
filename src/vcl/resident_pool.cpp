#include "vcl/resident_pool.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "vcl/device.hpp"
#include "vcl/queue.hpp"

namespace dfg::vcl {

namespace {

// Process-wide generation tags. Tags are monotonic and never erased: a
// freed-then-reused address keeps its bumped tag, which is exactly what
// makes pointer reuse safe (the stale pool entry recorded the old tag).
std::mutex g_generation_mutex;
std::unordered_map<const void*, std::uint64_t>& generation_map() {
  static auto* map = new std::unordered_map<const void*, std::uint64_t>();
  return *map;
}

}  // namespace

std::uint64_t host_generation(const void* ptr) {
  std::lock_guard<std::mutex> lock(g_generation_mutex);
  const auto& map = generation_map();
  const auto it = map.find(ptr);
  return it == map.end() ? 0 : it->second;
}

void note_host_mutation(const void* ptr) {
  if (ptr == nullptr) return;
  std::lock_guard<std::mutex> lock(g_generation_mutex);
  ++generation_map()[ptr];
}

ResidentPool::PinScope::PinScope(ResidentPool& pool) : pool_(&pool) {
  std::lock_guard<std::mutex> lock(pool.mutex_);
  parent_ = pool.active_scope_;
  pool.active_scope_ = this;
}

ResidentPool::PinScope::~PinScope() { pool_->end_scope(*this); }

ResidentPool::ResidentPool(Device& device) : device_(&device) {}

ResidentPool::~ResidentPool() {
  // Device teardown: every scope is gone, so force-drop even entries a
  // buggy caller left pinned rather than leak tracker bytes.
  for (auto& [key, entry] : entries_) entry.pins = 0;
  MemoryTracker::HookSuspension suspend;
  entries_.clear();
  resident_bytes_.store(0, std::memory_order_relaxed);
}

void ResidentPool::set_watermark_fraction(double fraction) {
  std::lock_guard<std::mutex> lock(mutex_);
  watermark_fraction_ = std::clamp(fraction, 0.0, 1.0);
}

double ResidentPool::watermark_fraction() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return watermark_fraction_;
}

std::size_t ResidentPool::watermark_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return watermark_bytes_locked();
}

std::size_t ResidentPool::watermark_bytes_locked() const {
  return static_cast<std::size_t>(
      watermark_fraction_ *
      static_cast<double>(device_->memory().capacity()));
}

std::size_t ResidentPool::entry_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

const Buffer* ResidentPool::acquire(CommandQueue& queue,
                                    std::span<const float> host,
                                    const std::string& label,
                                    const void* generation_key) {
  if (!enabled() || host.empty()) return nullptr;
  if (generation_key == nullptr) generation_key = host.data();
  const Key key{host.data(), host.size()};
  const std::uint64_t generation = host_generation(generation_key);

  // The lock is held across the whole acquire, including a miss's upload:
  // the returned Buffer* must not be invalidated between insert and pin,
  // and a concurrent invalidate() of this key must either run before (we
  // re-upload) or after (it dooms the now-pinned entry, erased at unpin).
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end() && !it->second.doomed &&
      it->second.generation == generation) {
    count(&Stats::hits, "dfgen_resident_hits_total");
    count(&Stats::upload_bytes_saved, "dfgen_resident_upload_bytes_saved",
          host.size() * sizeof(float));
    it->second.last_use = ++tick_;
    pin_locked(it);
    return &it->second.buffer;
  }
  if (it != entries_.end()) {
    // Stale generation: the host array changed under us. Re-uploading is
    // mandatory; serving the old bytes would be a coherence violation.
    drop_entry_locked(it);
  }

  const std::size_t bytes = host.size() * sizeof(float);
  const std::size_t cap = watermark_bytes_locked();
  if (bytes > cap) return nullptr;  // will never fit: stay transient
  while (resident_bytes_.load(std::memory_order_relaxed) + bytes > cap) {
    if (evict_lru_unpinned_locked() == 0) {
      return nullptr;  // all pinned: cold path
    }
  }

  Buffer buffer;
  {
    MemoryTracker::HookSuspension suspend;
    for (;;) {
      try {
        buffer = Buffer(*device_, host.size());
        break;
      } catch (const DeviceOutOfMemory&) {
        // Transients own the rest of the device right now; shrink the pool
        // before giving up and letting the caller upload transiently.
        if (evict_lru_unpinned_locked() == 0) return nullptr;
      }
    }
  }
  // The profiled upload — same label, same event, same simulated cost as
  // the cold path. Faults injected here (transient, loss, corruption)
  // propagate exactly as the cold path's write would; the entry is only
  // inserted once the write succeeded.
  queue.write(buffer, host, label);

  Entry entry;
  entry.buffer = std::move(buffer);
  entry.generation = generation;
  entry.last_use = ++tick_;
  auto [pos, inserted] = entries_.insert_or_assign(key, std::move(entry));
  (void)inserted;
  resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  count(&Stats::misses, "dfgen_resident_misses_total");
  publish_gauge();
  pin_locked(pos);
  return &pos->second.buffer;
}

bool ResidentPool::would_hit(std::span<const float> host,
                             const void* generation_key) const {
  if (!enabled() || host.empty()) return false;
  if (generation_key == nullptr) generation_key = host.data();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(Key{host.data(), host.size()});
  return it != entries_.end() && !it->second.doomed &&
         it->second.generation == host_generation(generation_key);
}

void ResidentPool::invalidate(const void* ptr) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.lower_bound(Key{ptr, 0});
       it != entries_.end() && it->first.ptr == ptr;) {
    auto next = std::next(it);
    drop_entry_locked(it);
    it = next;
  }
}

void ResidentPool::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto next = std::next(it);
    drop_entry_locked(it);
    it = next;
  }
}

std::size_t ResidentPool::evict_lru_unpinned() {
  std::lock_guard<std::mutex> lock(mutex_);
  return evict_lru_unpinned_locked();
}

std::size_t ResidentPool::evict_lru_unpinned_locked() {
  auto victim = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.pins > 0) continue;
    if (victim == entries_.end() ||
        it->second.last_use < victim->second.last_use) {
      victim = it;
    }
  }
  if (victim == entries_.end()) return 0;
  const std::size_t freed = victim->second.buffer.bytes();
  erase_entry_locked(victim);
  count(&Stats::evictions, "dfgen_resident_evictions_total");
  publish_gauge();
  return freed;
}

ResidentPool::Stats ResidentPool::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.invalidations = invalidations_.load(std::memory_order_relaxed);
  out.upload_bytes_saved =
      upload_bytes_saved_.load(std::memory_order_relaxed);
  return out;
}

void ResidentPool::pin_locked(EntryMap::iterator it) {
  // Without an open scope nothing records the release, so the entry stays
  // unpinned; callers that hold buffers across commands open a PinScope.
  if (active_scope_ == nullptr) return;
  ++it->second.pins;
  active_scope_->keys_.emplace_back(it->first.ptr, it->first.len);
}

void ResidentPool::end_scope(PinScope& scope) {
  std::lock_guard<std::mutex> lock(mutex_);
  active_scope_ = scope.parent_;
  for (const auto& [ptr, len] : scope.keys_) {
    const auto it = entries_.find(Key{ptr, len});
    if (it == entries_.end()) continue;
    if (--it->second.pins <= 0 && it->second.doomed) erase_entry_locked(it);
  }
}

void ResidentPool::erase_entry_locked(EntryMap::iterator it) {
  const std::size_t bytes = it->second.buffer.bytes();
  MemoryTracker::HookSuspension suspend;
  entries_.erase(it);
  resident_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
}

void ResidentPool::drop_entry_locked(EntryMap::iterator it) {
  count(&Stats::invalidations, "dfgen_resident_invalidations_total");
  if (it->second.pins > 0) {
    // A kernel may still read this buffer; keep the allocation alive but
    // never serve it again. end_scope() erases it at the last unpin.
    it->second.doomed = true;
    return;
  }
  erase_entry_locked(it);
  publish_gauge();
}

void ResidentPool::count(std::uint64_t Stats::*member, const char* counter,
                         std::uint64_t delta) {
  if (member == &Stats::hits) {
    hits_.fetch_add(delta, std::memory_order_relaxed);
  } else if (member == &Stats::misses) {
    misses_.fetch_add(delta, std::memory_order_relaxed);
  } else if (member == &Stats::evictions) {
    evictions_.fetch_add(delta, std::memory_order_relaxed);
  } else if (member == &Stats::invalidations) {
    invalidations_.fetch_add(delta, std::memory_order_relaxed);
  } else {
    upload_bytes_saved_.fetch_add(delta, std::memory_order_relaxed);
  }
  obs::MetricsRegistry& reg = obs::metrics();
  reg.add(reg.counter(counter, {{"device", device_->spec().name}}), delta);
}

void ResidentPool::publish_gauge() {
  obs::MetricsRegistry& reg = obs::metrics();
  reg.gauge_set(reg.gauge("dfgen_resident_bytes",
                          {{"device", device_->spec().name}}),
                resident_bytes_.load(std::memory_order_relaxed));
}

}  // namespace dfg::vcl
