#include "vcl/buffer.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "obs/metrics.hpp"
#include "support/parallel.hpp"
#include "vcl/device.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace dfg::vcl {

// Words per chunk of a recycled block's zero fill (256 KiB).
static constexpr std::size_t kFillGrainWords = std::size_t{1} << 16;

// A waiting spare is poisoned, so a read through a released buffer's old
// view still fails under AddressSanitizer.
static void set_poisoned([[maybe_unused]] const std::vector<float>& block,
                         [[maybe_unused]] bool poisoned) {
#if defined(__SANITIZE_ADDRESS__)
  (poisoned ? __asan_poison_memory_region : __asan_unpoison_memory_region)(
      block.data(), block.capacity() * sizeof(float));
#endif
}

SpareBlocks::~SpareBlocks() {
  for (const std::vector<float>& block : blocks_) set_poisoned(block, false);
}

std::vector<float> SpareBlocks::take(std::size_t elements) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    if (it->size() != elements) continue;
    std::vector<float> block = std::move(*it);
    blocks_.erase(std::next(it).base());
    set_poisoned(block, false);
    return block;
  }
  return {};
}

void SpareBlocks::give(std::vector<float> block) {
  if (block.empty()) return;
  set_poisoned(block, true);
  std::lock_guard<std::mutex> lock(mutex_);
  blocks_.push_back(std::move(block));
  if (blocks_.size() <= kMaxBlocks) return;
  block = std::move(blocks_.front());  // freed once the lock is released
  set_poisoned(block, false);
  blocks_.erase(blocks_.begin());
}

std::size_t SpareBlocks::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return blocks_.size();
}

Buffer::Buffer(Device& device, std::size_t elements, bool zero_fill)
    : device_(&device) {
  const std::size_t bytes = elements * sizeof(float);
  // The fault injector sees the allocation before the tracker commits, so
  // an injected DeviceOutOfMemory (scheduled or synthetic-capacity) leaves
  // the tracker untouched, exactly like a real over-capacity failure.
  device_->fault().on_alloc(bytes, device_->memory().in_use(),
                            device_->memory().capacity());
  device_->memory().reserve(bytes);
  {
    obs::MetricsRegistry& reg = obs::metrics();
    reg.gauge_max(reg.gauge("dfgen_vcl_buffer_high_water_bytes",
                            {{"device", device_->spec().name}}),
                  device_->memory().high_water());
  }
  // Reserve happened first: if it throws, no storage is taken and the
  // tracker is untouched. A recycled block is zero-filled like a new one
  // (unless it is an upload's, which its write overwrites), on the worker
  // team: its pages are already mapped, so the fill runs at memory speed.
  // A fresh block's fill is dominated by page faults.
  storage_ = device_->spares().take(elements);
  if (storage_.empty()) {
    storage_.assign(elements, 0.0f);
    return;
  }
  if (!zero_fill) return;
  float* words = storage_.data();
  support::parallel_for(
      elements,
      [words](std::size_t begin, std::size_t end) {
        std::fill(words + begin, words + end, 0.0f);
      },
      kFillGrainWords);
}

Buffer::~Buffer() { release(); }

Buffer::Buffer(Buffer&& other) noexcept
    : device_(std::exchange(other.device_, nullptr)),
      storage_(std::move(other.storage_)) {
  other.storage_.clear();
}

Buffer& Buffer::operator=(Buffer&& other) noexcept {
  if (this != &other) {
    release();
    device_ = std::exchange(other.device_, nullptr);
    storage_ = std::move(other.storage_);
    other.storage_.clear();
  }
  return *this;
}

void Buffer::release() {
  if (device_ != nullptr) {
    device_->memory().release(bytes());
    device_->spares().give(std::move(storage_));  // leaves storage_ empty
    device_ = nullptr;
  }
}

Buffer Device::allocate(std::size_t elements, bool zero_fill) {
  for (;;) {
    try {
      return Buffer(*this, elements, zero_fill);
    } catch (const DeviceOutOfMemory&) {
      // Only genuine capacity pressure (real or synthetic) justifies
      // shrinking the resident pool. A scheduled alloc fault throws the
      // same type while the device itself has room — evicting residents
      // would not change its outcome, so it surfaces unchanged.
      if (elements * sizeof(float) <= effective_available()) throw;
      if (resident_.evict_lru_unpinned() == 0) throw;
    }
  }
}

}  // namespace dfg::vcl
