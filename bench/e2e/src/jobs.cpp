#include "jobs.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/rng.hpp"
#include "kernels/blackscholes.hpp"
#include "kernels/blas1.hpp"
#include "kernels/matmul.hpp"
#include "rt/registry.hpp"
#include "stats.hpp"

namespace vgpu::bench_e2e {

namespace {

std::span<const float> floats(std::span<const std::byte> bytes,
                              std::size_t offset, std::size_t count) {
  return {reinterpret_cast<const float*>(bytes.data()) + offset, count};
}

std::span<float> floats(std::span<std::byte> bytes, std::size_t offset,
                        std::size_t count) {
  return {reinterpret_cast<float*>(bytes.data()) + offset, count};
}

void fill(const std::string& kernel, std::size_t n, Rng& rng,
          std::span<std::byte> in) {
  if (kernel == "vecadd") {
    for (float& f : floats(in, 0, 2 * n)) {
      f = static_cast<float>(rng.uniform(-8.0, 8.0));
    }
  } else if (kernel == "sgemm") {
    for (float& f : floats(in, 0, 2 * n * n)) {
      f = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      floats(in, 0, n)[i] = static_cast<float>(rng.uniform(5.0, 30.0));
      floats(in, n, n)[i] = static_cast<float>(rng.uniform(1.0, 100.0));
      floats(in, 2 * n, n)[i] = static_cast<float>(rng.uniform(0.25, 10.0));
    }
  }
}

}  // namespace

KernelJob make_job(const std::string& kernel, long size, std::uint64_t seed) {
  KernelJob job;
  job.kernel = kernel;
  const auto n = static_cast<std::size_t>(size);
  job.params[0] = size;
  if (kernel == "vecadd") {
    job.bytes_in = static_cast<Bytes>(2 * n * 4);
    job.bytes_out = static_cast<Bytes>(n * 4);
  } else if (kernel == "sgemm") {
    job.bytes_in = static_cast<Bytes>(2 * n * n * 4);
    job.bytes_out = static_cast<Bytes>(n * n * 4);
  } else if (kernel == "blackscholes") {
    job.bytes_in = static_cast<Bytes>(3 * n * 4);
    job.bytes_out = static_cast<Bytes>(2 * n * 4);
  } else {
    std::fprintf(stderr, "vgpu-bench: no job shape for kernel '%s'\n",
                 kernel.c_str());
    std::abort();
  }
  const auto id = rt::builtin_registry().id_of(kernel);
  if (!id.ok()) {
    std::fprintf(stderr, "vgpu-bench: kernel '%s' is not registered\n",
                 kernel.c_str());
    std::abort();
  }
  job.kernel_id = *id;
  for (std::size_t set = 0; set < 2; ++set) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + set + 1);
    job.input[set].resize(static_cast<std::size_t>(job.bytes_in));
    job.reference[set].resize(static_cast<std::size_t>(job.bytes_out));
    fill(kernel, n, rng, job.input[set]);
    call_kernel(job, job.input[set], job.reference[set]);
  }
  return job;
}

void call_kernel(const KernelJob& job, std::span<const std::byte> in,
                 std::span<std::byte> out) {
  const auto n = static_cast<std::size_t>(job.params[0]);
  if (job.kernel == "vecadd") {
    kernels::vecadd(floats(in, 0, n), floats(in, n, n), floats(out, 0, n));
  } else if (job.kernel == "sgemm") {
    kernels::sgemm(floats(in, 0, n * n), floats(in, n * n, n * n),
                   floats(out, 0, n * n), static_cast<int>(n));
  } else {
    // Rate and volatility match the registry's "blackscholes" entry.
    const kernels::OptionBatch batch{floats(in, 0, n), floats(in, n, n),
                                     floats(in, 2 * n, n), 0.02f, 0.30f};
    kernels::black_scholes(batch, floats(out, 0, n), floats(out, n, n));
  }
}

double bare_seconds(const KernelJob& job, int calls) {
  std::vector<std::byte> out(static_cast<std::size_t>(job.bytes_out));
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(calls));
  for (int i = 0; i < calls; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    call_kernel(job, job.input[0], out);
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  return median(std::move(seconds));
}

bool matches_reference(const KernelJob& job, int set,
                       std::span<const std::byte> out) {
  const std::vector<std::byte>& ref =
      job.reference[static_cast<std::size_t>(set)];
  return out.size() >= ref.size() &&
         std::memcmp(out.data(), ref.data(), ref.size()) == 0;
}

}  // namespace vgpu::bench_e2e
