// Seeded kernel inputs and their reference outputs.
//
// Every live task's output is compared with a reference computed by
// calling the kernel function directly, single-threaded, on the same input.
// Each job carries two input sets that tasks alternate between, so a server
// that skipped a kernel (and left the previous output in place) fails the
// comparison instead of passing it.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace vgpu::bench_e2e {

struct KernelJob {
  std::string kernel;  // live registry name
  int kernel_id = -1;
  std::int64_t params[4] = {};
  Bytes bytes_in = 0;
  Bytes bytes_out = 0;
  std::array<std::vector<std::byte>, 2> input;
  std::array<std::vector<std::byte>, 2> reference;
};

/// "vecadd" (n elements), "sgemm" (n x n) or "blackscholes" (n options),
/// with both input sets drawn from `seed`. Aborts on an unknown kernel
/// (the workload table is compiled in).
KernelJob make_job(const std::string& kernel, long size, std::uint64_t seed);

/// The kernel called directly on the calling thread.
void call_kernel(const KernelJob& job, std::span<const std::byte> in,
                 std::span<std::byte> out);

/// Median wall time of `calls` direct calls on input set 0, in seconds.
double bare_seconds(const KernelJob& job, int calls);

/// True when `out` equals the reference for input set `set` bit for bit.
bool matches_reference(const KernelJob& job, int set,
                       std::span<const std::byte> out);

}  // namespace vgpu::bench_e2e
