#include "gpu/memory.hpp"

#include "common/math.hpp"

namespace vgpu::gpu {

namespace {
// Device address space starts above 0 so that DevPtr 0 stays null.
constexpr DevPtr kBaseAddress = DeviceMemoryAllocator::kAlignment;
}  // namespace

DeviceMemoryAllocator::DeviceMemoryAllocator(Bytes capacity)
    : capacity_(capacity) {
  VGPU_ASSERT(capacity > 0);
  free_.emplace(kBaseAddress, capacity);
}

StatusOr<DevPtr> DeviceMemoryAllocator::allocate(Bytes size) {
  if (size <= 0) return InvalidArgument("allocation size must be positive");
  if (fail_hook_ && fail_hook_()) {
    return OutOfMemory("device memory: allocation failed (fault injection)");
  }
  const Bytes need = round_up(size, kAlignment);
  // First fit: lowest-address extent that can hold the request.
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second >= need) {
      const DevPtr addr = it->first;
      const Bytes extent = it->second;
      free_.erase(it);
      if (extent > need) {
        free_.emplace(addr + static_cast<DevPtr>(need), extent - need);
      }
      allocated_.emplace(addr, need);
      used_ += need;
      if (used_ > high_water_) high_water_ = used_;
      return addr;
    }
  }
  return OutOfMemory("device memory: no extent of " + format_bytes(need) +
                     " available (" + format_bytes(available()) + " free)");
}

std::vector<Bytes> DeviceMemoryAllocator::free_extent_sizes() const {
  std::vector<Bytes> sizes;
  sizes.reserve(free_.size());
  for (const auto& [addr, size] : free_) sizes.push_back(size);
  return sizes;
}

Status DeviceMemoryAllocator::free(DevPtr ptr) {
  auto it = allocated_.find(ptr);
  if (it == allocated_.end()) {
    return NotFound("free of unknown device pointer");
  }
  DevPtr addr = it->first;
  Bytes size = it->second;
  allocated_.erase(it);
  used_ -= size;

  // Coalesce with the following extent.
  auto next = free_.lower_bound(addr);
  if (next != free_.end() && addr + static_cast<DevPtr>(size) == next->first) {
    size += next->second;
    next = free_.erase(next);
  }
  // Coalesce with the preceding extent.
  if (next != free_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + static_cast<DevPtr>(prev->second) == addr) {
      addr = prev->first;
      size += prev->second;
      free_.erase(prev);
    }
  }
  free_.emplace(addr, size);
  return Status::Ok();
}

Bytes DeviceMemoryAllocator::largest_free_extent() const {
  Bytes largest = 0;
  for (const auto& [addr, size] : free_) {
    if (size > largest) largest = size;
  }
  return largest;
}

double DeviceMemoryAllocator::fragmentation() const {
  const Bytes avail = available();
  if (avail <= 0) return 0.0;
  return 1.0 - static_cast<double>(largest_free_extent()) /
                   static_cast<double>(avail);
}

StatusOr<Bytes> DeviceMemoryAllocator::allocation_size(DevPtr ptr) const {
  auto it = allocated_.find(ptr);
  if (it == allocated_.end()) {
    return NotFound("unknown device pointer");
  }
  return it->second;
}

}  // namespace vgpu::gpu
