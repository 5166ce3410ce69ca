#include "kernels/registry.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/math.hpp"
#include "kernels/blackscholes.hpp"
#include "kernels/blas1.hpp"
#include "kernels/cg.hpp"
#include "kernels/electrostatics.hpp"
#include "kernels/ep.hpp"
#include "kernels/matmul.hpp"
#include "kernels/mg.hpp"

namespace vgpu::kernels {

int KernelRegistry::add(std::string name, KernelFn body, GeometryFn geometry) {
  for (const Entry& e : entries_) {
    VGPU_ASSERT_MSG(e.name != name, "duplicate kernel name");
  }
  Entry entry;
  entry.name = std::move(name);
  entry.body = std::move(body);
  entry.geometry = std::move(geometry);
  entries_.push_back(std::move(entry));
  return static_cast<int>(entries_.size()) - 1;
}

int KernelRegistry::add_elementwise(std::string name, KernelStream stream,
                                    GeometryFn geometry) {
  KernelFn body = [grid = stream.grid, run = stream.run](
                      std::span<const std::byte> in, std::span<std::byte> out,
                      const std::int64_t* p, const ParallelFor& pf) {
    pf(grid(p), [&](long begin, long end) { run(in, out, p, begin, end); });
  };
  const int id = add(std::move(name), std::move(body), std::move(geometry));
  entries_.back().stream = std::move(stream);
  return id;
}

const KernelRegistry::Entry* KernelRegistry::entry(int id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= entries_.size()) {
    return nullptr;
  }
  return &entries_[static_cast<std::size_t>(id)];
}

StatusOr<int> KernelRegistry::id_of(const std::string& name) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == name) return static_cast<int>(i);
  }
  return NotFound("kernel '" + name + "' not registered");
}

const KernelFn* KernelRegistry::find(int id) const {
  const Entry* e = entry(id);
  return e != nullptr ? &e->body : nullptr;
}

const GeometryFn* KernelRegistry::find_geometry(int id) const {
  const Entry* e = entry(id);
  return e != nullptr && e->geometry ? &e->geometry : nullptr;
}

const KernelStream* KernelRegistry::find_stream(int id) const {
  const Entry* e = entry(id);
  return e != nullptr && e->stream.run ? &e->stream : nullptr;
}

const std::string* KernelRegistry::name_of(int id) const {
  const Entry* e = entry(id);
  return e != nullptr ? &e->name : nullptr;
}

namespace {

template <typename T>
std::span<const T> in_as(std::span<const std::byte> in, std::size_t count,
                         std::size_t offset_elems = 0) {
  VGPU_ASSERT((offset_elems + count) * sizeof(T) <= in.size());
  return {reinterpret_cast<const T*>(in.data()) + offset_elems, count};
}

template <typename T>
std::span<T> out_as(std::span<std::byte> out, std::size_t count,
                    std::size_t offset_elems = 0) {
  VGPU_ASSERT((offset_elems + count) * sizeof(T) <= out.size());
  return {reinterpret_cast<T*>(out.data()) + offset_elems, count};
}

/// Element range [lo, hi) covered by blocks [begin, end) of `block` items
/// over an n-element space.
std::pair<std::size_t, std::size_t> elem_range(long n, long block, long begin,
                                               long end) {
  return {static_cast<std::size_t>(std::min(n, begin * block)),
          static_cast<std::size_t>(std::min(n, end * block))};
}

/// Slices of `operands` consecutive n-element float operands read by
/// blocks [begin, end) of `block` elements.
StreamView operand_slices(long n, long block, int operands, long begin,
                          long end) {
  const auto [lo, hi] = elem_range(n, block, begin, end);
  StreamView v;
  v.count = operands;
  for (int op = 0; op < operands; ++op) {
    v.slices[op] = {(static_cast<std::size_t>(op * n) + lo) * sizeof(float),
                    (hi - lo) * sizeof(float)};
  }
  return v;
}

OptionBatch option_batch(std::span<const std::byte> in, std::size_t n) {
  return {in_as<float>(in, n), in_as<float>(in, n, n),
          in_as<float>(in, n, 2 * n), 0.02f, 0.30f};
}

/// The CG matrix is a pure function of (n, nz_per_row) — NPB style, fixed
/// seed — so client and server sides agree on A without shipping it.
/// Cached because building it costs more than an iteration over it.
const CsrMatrix& cg_matrix(int n, int nz_per_row) {
  static std::mutex mu;
  static std::map<std::pair<int, int>, std::unique_ptr<const CsrMatrix>>
      cache;
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = cache[{n, nz_per_row}];
  if (slot == nullptr) {
    slot = std::make_unique<const CsrMatrix>(
        cg_make_matrix(n, nz_per_row, 10.0));
  }
  return *slot;
}

KernelRegistry make_builtins() {
  KernelRegistry reg;

  reg.add_elementwise(
      "vecadd",
      {[](const std::int64_t* p) { return ceil_div(p[0], kVecBlock); },
       [](std::span<const std::byte> in, std::span<std::byte> out,
          const std::int64_t* p, long begin, long end) {
         const auto n = static_cast<std::size_t>(p[0]);
         vecadd_blocks(in_as<float>(in, n), in_as<float>(in, n, n),
                       out_as<float>(out, n), begin, end);
       },
       [](const std::int64_t* p, long begin, long end) {
         return operand_slices(p[0], kVecBlock, 2, begin, end);  // A, B
       }},
      [](const std::int64_t* p) { return vecadd_launch(p[0]).geometry; });

  // y' = 2 x + y, written to `out` (y stays in the input).
  reg.add_elementwise(
      "saxpy",
      {[](const std::int64_t* p) { return ceil_div(p[0], kVecBlock); },
       [](std::span<const std::byte> in, std::span<std::byte> out,
          const std::int64_t* p, long begin, long end) {
         const auto n = static_cast<std::size_t>(p[0]);
         auto y = out_as<float>(out, n);
         auto yin = in_as<float>(in, n, n);
         const auto [lo, hi] =
             elem_range(static_cast<long>(n), kVecBlock, begin, end);
         std::copy(yin.begin() + static_cast<std::ptrdiff_t>(lo),
                   yin.begin() + static_cast<std::ptrdiff_t>(hi),
                   y.begin() + static_cast<std::ptrdiff_t>(lo));
         saxpy_blocks(2.0f, in_as<float>(in, n), y, begin, end);
       },
       [](const std::int64_t* p, long begin, long end) {
         return operand_slices(p[0], kVecBlock, 2, begin, end);  // X, Y
       }},
      [](const std::int64_t* p) { return saxpy_launch(p[0]).geometry; });

  reg.add_elementwise(
      "blackscholes",
      {[](const std::int64_t* p) { return black_scholes_blocks(p[0]); },
       [](std::span<const std::byte> in, std::span<std::byte> out,
          const std::int64_t* p, long begin, long end) {
         const auto n = static_cast<std::size_t>(p[0]);
         black_scholes_blocks(option_batch(in, n), out_as<float>(out, n),
                              out_as<float>(out, n, n), begin, end);
       },
       [](const std::int64_t* p, long begin, long end) {
         return operand_slices(p[0], kBsBlock, 3, begin, end);  // S, X, T
       }},
      [](const std::int64_t* p) {
        return black_scholes_launch(p[0]).geometry;
      });

  reg.add(
      "sgemm",
      [](std::span<const std::byte> in, std::span<std::byte> out,
         const std::int64_t* p, const ParallelFor& pf) {
        const auto n = static_cast<int>(p[0]);
        const auto nn =
            static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
        sgemm(in_as<float>(in, nn), in_as<float>(in, nn, nn),
              out_as<float>(out, nn), n, pf);
      },
      [](const std::int64_t* p) {
        return matmul_launch(static_cast<int>(p[0])).geometry;
      });

  reg.add(
      "ep",
      [](std::span<const std::byte>, std::span<std::byte> out,
         const std::int64_t* p, const ParallelFor& pf) {
        out_as<EpResult>(out, 1)[0] = ep_chunked(
            static_cast<int>(p[0]), static_cast<int>(p[1]), pf);
      },
      [](const std::int64_t* p) {
        return ep_launch(static_cast<int>(p[0])).geometry;
      });

  reg.add(
      "reduce_sum",
      [](std::span<const std::byte> in, std::span<std::byte> out,
         const std::int64_t* p, const ParallelFor& pf) {
        const auto n = static_cast<std::size_t>(p[0]);
        out_as<float>(out, 1)[0] = reduce_sum(in_as<float>(in, n), pf);
      },
      [](const std::int64_t* p) { return reduce_launch(p[0]).geometry; });

  reg.add(
      "dot",
      [](std::span<const std::byte> in, std::span<std::byte> out,
         const std::int64_t* p, const ParallelFor& pf) {
        const auto n = static_cast<std::size_t>(p[0]);
        out_as<float>(out, 1)[0] =
            dot(in_as<float>(in, n), in_as<float>(in, n, n), pf);
      },
      [](const std::int64_t* p) { return reduce_launch(p[0]).geometry; });

  reg.add(
      "mg_vcycle",
      [](std::span<const std::byte> in, std::span<std::byte> out,
         const std::int64_t* p, const ParallelFor& pf) {
        const auto n = static_cast<int>(p[0]);
        const auto iterations = static_cast<int>(p[1]);
        const auto cells = static_cast<std::size_t>(n) * n * n;
        Grid3 v(n), u(n);
        auto vin = in_as<double>(in, cells);
        std::copy(vin.begin(), vin.end(), v.data().begin());
        u.fill(0.0);
        for (int it = 0; it < iterations; ++it) mg_vcycle(u, v, pf);
        auto uout = out_as<double>(out, cells);
        std::copy(u.data().begin(), u.data().end(), uout.begin());
      },
      [](const std::int64_t* p) {
        return mg_launch(static_cast<int>(p[0])).geometry;
      });

  reg.add(
      "coulomb_slab",
      [](std::span<const std::byte> in, std::span<std::byte> out,
         const std::int64_t* p, const ParallelFor& pf) {
        const auto natoms = static_cast<std::size_t>(p[0]);
        Lattice lat;
        lat.nx = static_cast<int>(p[1]);
        lat.ny = static_cast<int>(p[2]);
        lat.spacing = 0.5f;
        lat.z = 0.0f;
        const auto points = static_cast<std::size_t>(lat.nx) *
                            static_cast<std::size_t>(lat.ny);
        coulomb_slab(in_as<Atom>(in, natoms), lat, out_as<float>(out, points),
                     0.05f, pf);
      },
      [](const std::int64_t* p) {
        return electrostatics_launch(p[0], p[1] * p[2]).geometry;
      });

  // Single-iteration NPB steps: the graph-replay workloads chain K of
  // these into one captured DAG, with copy nodes feeding each iteration's
  // outputs back into the next iteration's input slots. They call the
  // solvers' own iteration functions, so K chained steps are bitwise
  // identical to K solver iterations.

  //   in : [b | x | r | p]   (4n doubles; b rides along for layout parity
  //                           with the solver workload, the step reads x/r/p)
  //   out: [x' | r' | p']    (3n doubles)
  reg.add(
      "cg_step",
      [](std::span<const std::byte> in, std::span<std::byte> out,
         const std::int64_t* p, const ParallelFor& pf) {
        const auto n = static_cast<std::size_t>(p[0]);
        cg_iteration(cg_matrix(static_cast<int>(p[0]), static_cast<int>(p[1])),
                     in_as<double>(in, n, n), in_as<double>(in, n, 2 * n),
                     in_as<double>(in, n, 3 * n), out_as<double>(out, n),
                     out_as<double>(out, n, n), out_as<double>(out, n, 2 * n),
                     pf);
      },
      [](const std::int64_t* p) {
        return cg_launch(static_cast<int>(p[0]), static_cast<int>(p[1]))
            .geometry;
      });

  //   in : [u | v]  (2 n^3 doubles)     out: u'  (n^3 doubles)
  reg.add(
      "mg_step",
      [](std::span<const std::byte> in, std::span<std::byte> out,
         const std::int64_t* p, const ParallelFor& pf) {
        const auto n = static_cast<int>(p[0]);
        const auto cells = static_cast<std::size_t>(n) * n * n;
        Grid3 u(n), v(n);
        auto uin = in_as<double>(in, cells);
        auto vin = in_as<double>(in, cells, cells);
        std::copy(uin.begin(), uin.end(), u.data().begin());
        std::copy(vin.begin(), vin.end(), v.data().begin());
        mg_vcycle(u, v, pf);
        auto uout = out_as<double>(out, cells);
        std::copy(u.data().begin(), u.data().end(), uout.begin());
      },
      [](const std::int64_t* p) {
        return mg_launch(static_cast<int>(p[0])).geometry;
      });

  reg.add("sleep_ms", [](std::span<const std::byte>, std::span<std::byte>,
                         const std::int64_t* p, const ParallelFor&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(p[0]));
  });

  return reg;
}

}  // namespace

KernelRegistry& builtin_registry() {
  static KernelRegistry registry = make_builtins();
  return registry;
}

}  // namespace vgpu::kernels
