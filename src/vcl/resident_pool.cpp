#include "vcl/resident_pool.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.hpp"
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

ResidentPool::ResidentPool(Device& device) : device_(&device) {}

void ResidentPool::set_watermark_fraction(double fraction) {
  std::lock_guard<std::mutex> lock(mutex_);
  watermark_fraction_ = std::clamp(fraction, 0.0, 1.0);
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

std::shared_ptr<const Buffer> ResidentPool::acquire(
    CommandQueue& queue, std::span<const float> host, const std::string& label,
    const void* generation_key) {
  if (!enabled() || host.empty()) return nullptr;
  if (generation_key == nullptr) generation_key = host.data();
  const Key key{host.data(), host.size()};
  const std::uint64_t generation = host_generation(generation_key);
  const std::size_t bytes = host.size() * sizeof(float);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end() && it->second.generation == generation) {
      count(hits_, "dfgen_resident_hits_total");
      count(upload_bytes_saved_, "dfgen_resident_upload_bytes_saved", bytes);
      it->second.last_use = ++tick_;
      return it->second.buffer;
    }
    if (it != entries_.end()) {
      // Stale generation: the host array changed since the upload, so
      // serving the old bytes would be a coherence violation. The entry
      // leaves before its replacement is allocated; a holder keeps its
      // bytes, otherwise they are freed here.
      count(invalidations_, "dfgen_resident_invalidations_total");
      erase_entry_locked(it);
      publish_gauge();
    }
    const std::size_t cap = watermark_bytes_locked();
    if (bytes > cap) return nullptr;  // will never fit: stay transient
    while (resident_bytes_.load(std::memory_order_relaxed) + bytes > cap) {
      if (evict_lru_unpinned_locked() == 0) return nullptr;  // all held
    }
  }

  // Unlocked: Device::allocate may evict from this pool at the capacity
  // wall. The allocation and the profiled write are the cold path's, so
  // every fault (allocation, transient, loss, corruption) propagates
  // exactly as it would there; the entry is only inserted once the write
  // succeeded.
  Buffer buffer = device_->allocate(host.size(), /*zero_fill=*/false);
  queue.write(buffer, host, label);
  auto handle = std::make_shared<const Buffer>(std::move(buffer));

  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = entries_.find(key); it != entries_.end()) {
    erase_entry_locked(it);  // a concurrent miss on the same key: replace
  }
  entries_.emplace(key, Entry{handle, generation, ++tick_});
  resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  count(misses_, "dfgen_resident_misses_total");
  publish_gauge();
  return handle;
}

bool ResidentPool::would_hit(std::span<const float> host,
                             const void* generation_key) const {
  if (!enabled() || host.empty()) return false;
  if (generation_key == nullptr) generation_key = host.data();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(Key{host.data(), host.size()});
  return it != entries_.end() &&
         it->second.generation == host_generation(generation_key);
}

std::size_t ResidentPool::evict_lru_unpinned() {
  std::lock_guard<std::mutex> lock(mutex_);
  return evict_lru_unpinned_locked();
}

std::size_t ResidentPool::evict_lru_unpinned_locked() {
  auto victim = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.buffer.use_count() > 1) continue;
    if (victim == entries_.end() ||
        it->second.last_use < victim->second.last_use) {
      victim = it;
    }
  }
  if (victim == entries_.end()) return 0;
  const std::size_t freed = victim->second.buffer->bytes();
  erase_entry_locked(victim);
  count(evictions_, "dfgen_resident_evictions_total");
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

void ResidentPool::erase_entry_locked(EntryMap::iterator it) {
  const std::size_t bytes = it->second.buffer->bytes();
  entries_.erase(it);
  resident_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
}

void ResidentPool::count(std::atomic<std::uint64_t>& stat,
                         const char* counter, std::uint64_t delta) {
  stat.fetch_add(delta, std::memory_order_relaxed);
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
