#include "vcl/buffer.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "vcl/device.hpp"

namespace dfg::vcl {

Buffer::Buffer(Device& device, std::size_t elements) : device_(&device) {
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
  // Reserve happened first: if it throws, no storage is allocated and the
  // tracker is untouched.
  storage_.assign(elements, 0.0f);
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
    device_ = nullptr;
    storage_.clear();
    storage_.shrink_to_fit();
  }
}

Buffer Device::allocate(std::size_t elements) {
  for (;;) {
    try {
      return Buffer(*this, elements);
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
