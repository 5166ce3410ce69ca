// The kernel table: one entry per functional kernel, shared by every way a
// kernel runs — the live server's serial and sharded jobs, graph replay,
// the DES functional workloads and the trace suite's job shapes.
//
// Function objects cannot travel across process boundaries, so live
// clients name kernels by table id; the GVM server executes the matching
// body on its workers. Client and server link the same table (same binary
// or same library), which keeps ids stable — the moral equivalent of the
// paper's "GVM takes the requested CUDA kernel functions and prepares the
// kernels when initialized".
//
// Each entry holds exactly one body, `(in, out, params, ParallelFor)`. The
// caller picks the executor: serial_executor() runs the grid as one shard
// on the calling thread (serial mode, the DES), an engine executor fans
// the same body out across workers (sharded mode). An entry may also hold:
//  * a geometry function mapping params to the kernel's launch geometry,
//    which the server feeds to gpu/occupancy.hpp to cap the shard fan-out
//    at the modeled device's co-resident block count;
//  * for elementwise kernels, a block-range stream form (runner + input
//    slices). The staged data plane pipelines chunked input copies against
//    compute of already-copied chunks with it, and graph replay fuses
//    chains of such kernels. The body of such an entry is derived from the
//    runner, as `pf(grid(params), run)`, so the two cannot disagree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/status.hpp"
#include "gpu/cost.hpp"

namespace vgpu::kernels {

/// A kernel body: reads `in`, writes `out`; `params` carries up to four
/// scalar arguments (problem sizes etc.); `pf` distributes the body's
/// grid-shaped loops. Every executor must produce the same bytes.
using KernelFn = std::function<void(std::span<const std::byte> in,
                                    std::span<std::byte> out,
                                    const std::int64_t* params,
                                    const ParallelFor& pf)>;

/// Launch geometry for given params (occupancy-caps the shard count).
using GeometryFn =
    std::function<gpu::KernelGeometry(const std::int64_t* params)>;

/// Byte ranges of the input buffer a block range reads (max 4 operands).
struct StreamSlice {
  std::size_t offset = 0;
  std::size_t len = 0;
};
struct StreamView {
  int count = 0;
  StreamSlice slices[4];
};

/// Block-range form of an elementwise kernel: blocks consume disjoint
/// input slices and write disjoint outputs.
struct KernelStream {
  /// Total block count for these params (the `run` block space).
  std::function<long(const std::int64_t* params)> grid;
  /// Executes blocks [begin, end).
  std::function<void(std::span<const std::byte> in, std::span<std::byte> out,
                     const std::int64_t* params, long begin, long end)>
      run;
  /// Input byte ranges blocks [begin, end) read.
  std::function<StreamView(const std::int64_t* params, long begin, long end)>
      input_slices;
};

class KernelRegistry {
 public:
  /// Registers and returns the kernel id. Names must be unique. Kernels
  /// without a geometry function are never occupancy-capped.
  int add(std::string name, KernelFn body, GeometryFn geometry = nullptr);

  /// Registers an elementwise kernel; its body is `pf(grid(params), run)`.
  int add_elementwise(std::string name, KernelStream stream,
                      GeometryFn geometry);

  StatusOr<int> id_of(const std::string& name) const;
  const KernelFn* find(int id) const;
  const GeometryFn* find_geometry(int id) const;
  /// Null unless the kernel was registered with add_elementwise.
  const KernelStream* find_stream(int id) const;
  const std::string* name_of(int id) const;
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string name;
    KernelFn body;
    GeometryFn geometry;
    KernelStream stream;
  };
  const Entry* entry(int id) const;

  std::vector<Entry> entries_;
};

/// The table preloaded with the library's functional kernels:
///   "vecadd"        params[0]=n        in: [A|B] floats   out: C floats
///   "saxpy"         params[0]=n        in: [X|Y]          out: Y'
///   "blackscholes"  params[0]=n        in: [S|X|T]        out: [call|put]
///   "sgemm"         params[0]=n        in: [A|B]          out: C
///   "ep"            params[0]=m,[1]=chunks  in: none      out: EpResult
///   "reduce_sum"    params[0]=n        in: X              out: sum (float)
///   "dot"           params[0]=n        in: [X|Y]          out: X.Y (float)
///   "mg_vcycle"     params[0]=n,[1]=iterations  in: v     out: u (from 0)
///   "coulomb_slab"  params[0]=atoms,[1]=nx,[2]=ny  in: Atoms  out: slab
///                   (z = 0, spacing 0.5)
///   "cg_step"       params[0]=n,[1]=nz  in: [b|x|r|p]  out: [x'|r'|p']
///                   (one CG iteration — graph workloads chain K of them)
///   "mg_step"       params[0]=n    in: [u|v]  out: u'  (one V-cycle
///                   continuing from u, unlike "mg_vcycle"'s u=0 loop)
///   "sleep_ms"      params[0]=ms       (test helper: sleeps, ignores pf)
/// Every compute kernel carries a geometry function; the elementwise ones
/// (vecadd, saxpy, blackscholes) are registered with their stream form.
/// The reductions combine one pairwise partial per block
/// (kernels::reduce_sum(x, pf)), whatever the executor.
KernelRegistry& builtin_registry();

}  // namespace vgpu::kernels
