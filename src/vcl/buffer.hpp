// Virtual compute layer: device buffer.
//
// An RAII handle to a device global-memory allocation. Storage physically
// lives in host memory (the device is virtual) but is accounted against the
// owning device's capacity, so allocation failures and high-water marks
// behave exactly like real device buffers. Host code must move data in and
// out through CommandQueue::write/read so transfers are profiled; direct
// access to the backing store is reserved for the kernel executor.
//
// Storage is recycled per device: release() gives the host block to the
// device's SpareBlocks (at most kMaxBlocks, oldest dropped first), and the
// next buffer of the same element count takes it instead of faulting in
// fresh pages. Accounting, high water and fault injection are unchanged,
// and every buffer still starts zero-filled, so no evaluation's data can
// show through in another's buffer.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dfg::vcl {

class Device;

class Buffer {
 public:
  Buffer() = default;
  Buffer(Device& device, std::size_t elements);
  ~Buffer();

  Buffer(Buffer&& other) noexcept;
  Buffer& operator=(Buffer&& other) noexcept;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  bool valid() const { return device_ != nullptr; }
  std::size_t size() const { return storage_.size(); }
  std::size_t bytes() const { return storage_.size() * sizeof(float); }

  /// Direct views of the backing store. Used by the kernel executor and by
  /// CommandQueue; host application code should go through the queue.
  std::span<float> device_view() { return storage_; }
  std::span<const float> device_view() const { return storage_; }

  /// Releases the allocation early (idempotent) and gives the storage to
  /// the device's spare list. Equivalent to destroying the buffer.
  void release();

 private:
  Device* device_ = nullptr;
  std::vector<float> storage_;
};

}  // namespace dfg::vcl
