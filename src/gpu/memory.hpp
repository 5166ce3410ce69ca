// Device memory management: a first-fit free-list allocator with coalescing
// over the simulated GPU's global memory, plus a pinned host memory ledger.
//
// Addresses are virtual (no backing store at this layer); the vcuda layer
// optionally attaches real host buffers to allocations for functional
// kernel execution.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"

namespace vgpu::gpu {

/// Simulated device pointer. 0 is the null pointer.
using DevPtr = std::uint64_t;

class DeviceMemoryAllocator {
 public:
  /// Allocation alignment, matching CUDA's 256-byte texture alignment.
  static constexpr Bytes kAlignment = 256;

  explicit DeviceMemoryAllocator(Bytes capacity);

  /// Allocates `size` bytes (rounded up to alignment). Fails with
  /// kOutOfMemory when no free extent fits.
  StatusOr<DevPtr> allocate(Bytes size);

  /// Installs a hook consulted at the top of allocate(); returning true
  /// fails that allocation with kOutOfMemory. A plain std::function (not a
  /// fault::Injector) keeps the device model free of upward dependencies;
  /// chaos harnesses bind `injector.should_fail(Point::kDeviceAlloc)` here.
  void set_fail_hook(std::function<bool()> hook) {
    fail_hook_ = std::move(hook);
  }

  /// Frees a pointer previously returned by allocate. Fails with kNotFound
  /// for unknown or already-freed pointers.
  Status free(DevPtr ptr);

  /// Size of the live allocation at `ptr`, or error if unknown.
  StatusOr<Bytes> allocation_size(DevPtr ptr) const;

  Bytes capacity() const { return capacity_; }
  Bytes used() const { return used_; }
  Bytes available() const { return capacity_ - used_; }
  /// Highest `used()` ever observed (obs gauge: gpu.mem.high_water).
  Bytes high_water() const { return high_water_; }
  std::size_t live_allocations() const { return allocated_.size(); }
  std::size_t free_extents() const { return free_.size(); }
  /// Sizes of the free extents in address order, the order allocate()'s
  /// first fit scans them.
  std::vector<Bytes> free_extent_sizes() const;
  /// Largest single free extent; the biggest allocation that can succeed
  /// right now regardless of total free bytes.
  Bytes largest_free_extent() const;
  /// External fragmentation in [0, 1]: 1 - largest_free_extent/available.
  /// 0 when the free space is one extent (or there is none).
  double fragmentation() const;

 private:
  Bytes capacity_;
  Bytes used_ = 0;
  Bytes high_water_ = 0;
  std::function<bool()> fail_hook_;    // fault injection; empty = disabled
  std::map<DevPtr, Bytes> free_;       // addr -> extent size
  std::map<DevPtr, Bytes> allocated_;  // addr -> allocation size
};

/// Tracks pinned (page-locked) host allocations; the GVM registers one
/// staging buffer per client here and the spec bounds total pinned memory
/// only through this ledger's capacity.
class PinnedHostLedger {
 public:
  explicit PinnedHostLedger(Bytes capacity) : capacity_(capacity) {}

  Status reserve(Bytes size) {
    if (size < 0) return InvalidArgument("negative pinned size");
    if (used_ + size > capacity_) {
      return OutOfMemory("pinned host memory exhausted");
    }
    used_ += size;
    return Status::Ok();
  }
  /// Returns a reservation. Status-uniform like reserve(): a mismatched
  /// release reports kInvalidArgument instead of aborting, so the live
  /// path (client teardown after a crash) can log and continue.
  Status release(Bytes size) {
    if (size < 0 || size > used_) {
      return InvalidArgument("pinned release exceeds reservations");
    }
    used_ -= size;
    return Status::Ok();
  }

  Bytes used() const { return used_; }
  Bytes capacity() const { return capacity_; }

 private:
  Bytes capacity_;
  Bytes used_ = 0;
};

}  // namespace vgpu::gpu
