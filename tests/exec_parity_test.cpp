// Parity suite for the grid-sharded kernels: every kernel in src/kernels/
// executed through a ParallelFor must match its serial oracle — bitwise
// for the kernels whose shards write disjoint outputs (and whose
// reductions keep a fixed combine order), within tight ULP bounds for the
// pairwise float reductions. Each kernel runs under:
//   * a real ExecEngine at several worker counts (including workers >
//     blocks and 1-block grids), and
//   * an adversarial serial executor that splits the grid into uneven
//     chunks and runs them in REVERSE order — shard scheduling order must
//     never leak into results.
// The last test runs every kernel-table entry (kernels/registry.hpp) the
// same way: the one binding from bytes and params to each kernel that the
// live server, graph replay, the DES workloads and the trace suite share.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "exec/engine.hpp"
#include "gpu/spec.hpp"
#include "kernels/blackscholes.hpp"
#include "kernels/blas1.hpp"
#include "kernels/cg.hpp"
#include "kernels/electrostatics.hpp"
#include "kernels/ep.hpp"
#include "kernels/fft.hpp"
#include "kernels/is.hpp"
#include "kernels/matmul.hpp"
#include "kernels/mg.hpp"
#include "kernels/registry.hpp"

namespace vgpu::kernels {
namespace {

/// Uneven chunks, executed back-to-front: catches any dependence on shard
/// order or on balanced shard sizes (tail shards included by design).
ParallelFor reversed_executor(long chunk) {
  return [chunk](long total, const RangeFn& fn) {
    std::vector<std::pair<long, long>> ranges;
    for (long b = 0; b < total; b += chunk) {
      ranges.emplace_back(b, std::min(total, b + chunk));
    }
    for (auto it = ranges.rbegin(); it != ranges.rend(); ++it) {
      fn(it->first, it->second);
    }
  };
}

/// Runs `check(pf)` under every executor shape the parity suite cares
/// about: engine with 1 worker, engine with 3 workers (blocks < workers
/// for small grids), and uneven reversed serial splits of 1 and 3.
template <typename Check>
void for_each_executor(const Check& check) {
  for (const int workers : {1, 3}) {
    exec::ExecConfig config;
    config.workers = workers;
    exec::ExecEngine engine(config);
    check(engine.executor());
    engine.shutdown();
  }
  check(reversed_executor(1));
  check(reversed_executor(3));
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed,
                                 double lo = -4.0, double hi = 4.0) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

TEST(ExecParity, SgemmBitwise) {
  // 33 -> 2x2 tiles with tail tiles; 32 -> a 1-tile grid; 96 -> 3x3.
  for (const int n : {32, 33, 96}) {
    const auto un = static_cast<std::size_t>(n) * n;
    const auto a = random_floats(un, 1);
    const auto b = random_floats(un, 2);
    std::vector<float> expected(un);
    sgemm(a, b, expected, n);
    for_each_executor([&](const ParallelFor& pf) {
      std::vector<float> c(un, -1.0f);
      sgemm(a, b, c, n, pf);
      ASSERT_EQ(std::memcmp(c.data(), expected.data(),
                            un * sizeof(float)),
                0)
          << "sgemm n=" << n;
    });
  }
}

TEST(ExecParity, VecaddSaxpyBitwise) {
  // 1 element: a 1-block grid; 1025: a tail block.
  for (const long n : {1L, 1024L, 1025L, 10000L}) {
    const auto un = static_cast<std::size_t>(n);
    const auto a = random_floats(un, 3);
    const auto b = random_floats(un, 4);
    std::vector<float> expected_add(un);
    vecadd(a, b, expected_add);
    std::vector<float> expected_saxpy = b;
    saxpy(2.5f, a, expected_saxpy);
    for_each_executor([&](const ParallelFor& pf) {
      std::vector<float> c(un);
      vecadd(a, b, c, pf);
      ASSERT_EQ(std::memcmp(c.data(), expected_add.data(),
                            un * sizeof(float)),
                0)
          << "vecadd n=" << n;
      std::vector<float> y = b;
      saxpy(2.5f, a, y, pf);
      ASSERT_EQ(std::memcmp(y.data(), expected_saxpy.data(),
                            un * sizeof(float)),
                0)
          << "saxpy n=" << n;
    });
  }
}

TEST(ExecParity, ReduceAndDotDeterministicAcrossPartitions) {
  // The sharded reduction fixes its combine order (per-block pairwise
  // partials merged in block order), so every partition yields the SAME
  // float — and it must sit within a tight bound of the serial oracle.
  for (const long n : {1L, 4095L, 100000L}) {
    const auto un = static_cast<std::size_t>(n);
    const auto x = random_floats(un, 5);
    const auto y = random_floats(un, 6);
    const float serial_sum = reduce_sum(x);
    const float serial_dot = dot(x, y);
    float first_sum = 0.0f;
    float first_dot = 0.0f;
    bool have_first = false;
    for_each_executor([&](const ParallelFor& pf) {
      const float s = reduce_sum(x, pf);
      const float d = dot(x, y, pf);
      if (!have_first) {
        first_sum = s;
        first_dot = d;
        have_first = true;
      } else {
        ASSERT_EQ(s, first_sum) << "reduce_sum partition-dependent, n=" << n;
        ASSERT_EQ(d, first_dot) << "dot partition-dependent, n=" << n;
      }
      ASSERT_NEAR(s, serial_sum,
                  1e-4 * std::max(1.0, std::abs(static_cast<double>(serial_sum))) +
                      1e-3 * std::sqrt(static_cast<double>(n)))
          << "reduce_sum n=" << n;
      ASSERT_NEAR(d, serial_dot,
                  1e-4 * std::max(1.0, std::abs(static_cast<double>(serial_dot))) +
                      1e-3 * std::sqrt(static_cast<double>(n)))
          << "dot n=" << n;
    });
  }
}

TEST(ExecParity, BlackScholesBitwise) {
  for (const long n : {1L, 127L, 128L, 5000L}) {
    const auto un = static_cast<std::size_t>(n);
    const auto spot = random_floats(un, 7, 10.0, 100.0);
    const auto strike = random_floats(un, 8, 10.0, 100.0);
    const auto years = random_floats(un, 9, 0.1, 5.0);
    OptionBatch batch;
    batch.stock_price = spot;
    batch.strike_price = strike;
    batch.years = years;
    std::vector<float> expected_call(un);
    std::vector<float> expected_put(un);
    black_scholes(batch, expected_call, expected_put);
    for_each_executor([&](const ParallelFor& pf) {
      std::vector<float> call(un);
      std::vector<float> put(un);
      black_scholes(batch, call, put, pf);
      ASSERT_EQ(std::memcmp(call.data(), expected_call.data(),
                            un * sizeof(float)),
                0)
          << "bs call n=" << n;
      ASSERT_EQ(std::memcmp(put.data(), expected_put.data(),
                            un * sizeof(float)),
                0)
          << "bs put n=" << n;
    });
  }
}

TEST(ExecParity, EpChunkedBitwise) {
  // 5 chunks: more chunks than a 3-worker engine's natural split; also a
  // 1-chunk grid.
  for (const int chunks : {1, 5}) {
    const EpResult expected = ep_chunked(12, chunks);
    for_each_executor([&](const ParallelFor& pf) {
      const EpResult got = ep_chunked(12, chunks, pf);
      ASSERT_EQ(got.sx, expected.sx) << "chunks=" << chunks;
      ASSERT_EQ(got.sy, expected.sy);
      ASSERT_EQ(got.q, expected.q);
      ASSERT_EQ(got.pairs_accepted, expected.pairs_accepted);
    });
  }
}

TEST(ExecParity, MgVcycleBitwise) {
  const int n = 16;
  const Grid3 v = mg_make_rhs(n);
  Grid3 expected(n);
  expected.fill(0.0);
  mg_vcycle(expected, v);
  for_each_executor([&](const ParallelFor& pf) {
    Grid3 u(n);
    u.fill(0.0);
    mg_vcycle(u, v, pf);
    ASSERT_EQ(u.data(), expected.data());
  });
}

TEST(ExecParity, CgSolveBitwise) {
  const int n = 64;
  const CsrMatrix a = cg_make_matrix(n, 6, 10.0);
  std::vector<double> b(static_cast<std::size_t>(n), 1.0);
  std::vector<double> expected_x(b.size(), 0.0);
  const CgResult expected = cg_solve(a, b, expected_x, 15);
  for_each_executor([&](const ParallelFor& pf) {
    std::vector<double> x(b.size(), 0.0);
    const CgResult got = cg_solve(a, b, x, 15, 0.0, pf);
    ASSERT_EQ(x, expected_x);
    ASSERT_EQ(got.final_residual, expected.final_residual);
    ASSERT_EQ(got.iterations, expected.iterations);
  });
}

TEST(ExecParity, Fft3dAndEvolveBitwise) {
  const int n = 8;  // 64 lines per pass
  Field3 expected = ft_make_field(n);
  fft3d(expected, false);
  ft_evolve(expected, 2.0);
  fft3d(expected, true);
  for_each_executor([&](const ParallelFor& pf) {
    Field3 field = ft_make_field(n);
    fft3d(field, false, pf);
    ft_evolve(field, 2.0, 1e-6, pf);
    fft3d(field, true, pf);
    ASSERT_EQ(field.data(), expected.data());
  });
}

TEST(ExecParity, IsRankExact) {
  for (const long n : {1L, 4095L, 50000L}) {
    const int max_key = 512;
    const std::vector<int> keys = is_make_keys(n, max_key);
    const std::vector<long> expected = is_rank(keys, max_key);
    for_each_executor([&](const ParallelFor& pf) {
      const std::vector<long> got = is_rank(keys, max_key, pf);
      ASSERT_EQ(got, expected) << "is_rank n=" << n;
    });
    // Stable ranks applied to the keys must produce a sorted sequence.
    const std::vector<int> sorted = is_apply_ranks(keys, expected);
    ASSERT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  }
}

TEST(ExecParity, CoulombSlabBitwise) {
  const auto atoms = make_atoms(64, 16.0f);
  Lattice lat;
  lat.nx = 24;
  lat.ny = 7;  // 7 rows: blocks > 3-worker split, with a tail under 2
  std::vector<float> expected(static_cast<std::size_t>(lat.nx) * lat.ny);
  coulomb_slab(atoms, lat, expected);
  for_each_executor([&](const ParallelFor& pf) {
    std::vector<float> out(expected.size());
    coulomb_slab(atoms, lat, out, 0.05f, pf);
    ASSERT_EQ(std::memcmp(out.data(), expected.data(),
                          out.size() * sizeof(float)),
              0);
  });
}


// --- The kernel table ----------------------------------------------------

template <typename T>
void append_bytes(std::vector<std::byte>& dst, const std::vector<T>& src) {
  const auto* p = reinterpret_cast<const std::byte*>(src.data());
  dst.insert(dst.end(), p, p + src.size() * sizeof(T));
}

template <typename T>
std::vector<T> as_vector(std::span<const std::byte> bytes, std::size_t count,
                         std::size_t offset_elems = 0) {
  std::vector<T> v(count);
  std::memcpy(v.data(), bytes.data() + offset_elems * sizeof(T),
              count * sizeof(T));
  return v;
}

/// One table entry's launch: input bytes, params, output size, and the
/// check of an output against the src/kernels reference.
struct TableCase {
  std::int64_t params[4] = {};
  std::vector<std::byte> in;
  std::size_t out_bytes = 0;
  std::function<void(std::span<const std::byte> out)> check_reference;
};

/// Exact match against a reference vector of T.
template <typename T>
std::function<void(std::span<const std::byte>)> equals(std::vector<T> want) {
  return [want = std::move(want)](std::span<const std::byte> out) {
    ASSERT_GE(out.size(), want.size() * sizeof(T));
    EXPECT_EQ(std::memcmp(out.data(), want.data(), want.size() * sizeof(T)),
              0);
  };
}

/// Within the reduction bound of ReduceAndDotDeterministicAcrossPartitions.
std::function<void(std::span<const std::byte>)> near_sum(float want, long n) {
  return [want, n](std::span<const std::byte> out) {
    const float got = as_vector<float>(out, 1)[0];
    EXPECT_NEAR(got, want,
                1e-4 * std::max(1.0, std::abs(static_cast<double>(want))) +
                    1e-3 * std::sqrt(static_cast<double>(n)));
  };
}

std::map<std::string, TableCase> table_cases() {
  std::map<std::string, TableCase> cases;
  {
    const long n = 1025;  // a tail block
    const auto a = random_floats(n, 11);
    const auto b = random_floats(n, 12);
    std::vector<float> sum(a.size());
    std::vector<float> axpy = b;
    for (std::size_t i = 0; i < a.size(); ++i) {
      sum[i] = a[i] + b[i];
      axpy[i] += 2.0f * a[i];
    }
    for (const char* name : {"vecadd", "saxpy"}) {
      TableCase& c = cases[name];
      c.params[0] = n;
      append_bytes(c.in, a);
      append_bytes(c.in, b);
      c.out_bytes = n * sizeof(float);
    }
    cases["vecadd"].check_reference = equals(sum);
    cases["saxpy"].check_reference = equals(axpy);
  }
  {
    const long n = 1000;  // 8 blocks of kBsBlock, the last one partial
    const auto spot = random_floats(n, 13, 10.0, 100.0);
    const auto strike = random_floats(n, 14, 10.0, 100.0);
    const auto years = random_floats(n, 15, 0.1, 5.0);
    OptionBatch batch{spot, strike, years, 0.02f, 0.30f};
    std::vector<float> prices(2 * n);
    black_scholes(batch, std::span(prices).first(n),
                  std::span(prices).subspan(n));
    TableCase& c = cases["blackscholes"];
    c.params[0] = n;
    append_bytes(c.in, spot);
    append_bytes(c.in, strike);
    append_bytes(c.in, years);
    c.out_bytes = 2 * n * sizeof(float);
    c.check_reference = equals(prices);
  }
  {
    const int n = 33;  // 2x2 tiles with tail tiles
    const auto nn = static_cast<std::size_t>(n) * n;
    const auto a = random_floats(nn, 16);
    const auto b = random_floats(nn, 17);
    std::vector<float> want(nn);
    sgemm_reference(a, b, want, n);
    TableCase& c = cases["sgemm"];
    c.params[0] = n;
    append_bytes(c.in, a);
    append_bytes(c.in, b);
    c.out_bytes = nn * sizeof(float);
    c.check_reference = equals(want);
  }
  {
    TableCase& c = cases["ep"];
    c.params[0] = 12;
    c.params[1] = 5;
    c.out_bytes = sizeof(EpResult);
    c.check_reference = equals(std::vector<EpResult>{ep_chunked(12, 5)});
  }
  {
    const long n = 100000;
    const auto x = random_floats(n, 18);
    const auto y = random_floats(n, 19);
    TableCase& sum = cases["reduce_sum"];
    sum.params[0] = n;
    append_bytes(sum.in, x);
    sum.out_bytes = sizeof(float);
    sum.check_reference = near_sum(reduce_sum(x), n);
    TableCase& d = cases["dot"];
    d.params[0] = n;
    append_bytes(d.in, x);
    append_bytes(d.in, y);
    d.out_bytes = sizeof(float);
    d.check_reference = near_sum(dot(x, y), n);
  }
  {
    const int n = 16;
    const Grid3 v = mg_make_rhs(n);
    Grid3 u(n);
    u.fill(0.0);
    mg_vcycle(u, v);
    TableCase& step = cases["mg_step"];  // continues from u
    step.params[0] = n;
    append_bytes(step.in, u.data());
    append_bytes(step.in, v.data());
    step.out_bytes = u.data().size() * sizeof(double);
    mg_vcycle(u, v);
    step.check_reference = equals(u.data());
    TableCase& cycles = cases["mg_vcycle"];  // two cycles from u = 0
    cycles.params[0] = n;
    cycles.params[1] = 2;
    append_bytes(cycles.in, v.data());
    cycles.out_bytes = u.data().size() * sizeof(double);
    cycles.check_reference = equals(u.data());
  }
  {
    const auto atoms = make_atoms(64, 16.0f);
    Lattice lat{24, 7, 0.5f, 0.0f};  // the table's slab plane and spacing
    std::vector<float> want(static_cast<std::size_t>(lat.nx) * lat.ny);
    coulomb_slab(atoms, lat, want);
    TableCase& c = cases["coulomb_slab"];
    c.params[0] = static_cast<std::int64_t>(atoms.size());
    c.params[1] = lat.nx;
    c.params[2] = lat.ny;
    append_bytes(c.in, atoms);
    c.out_bytes = want.size() * sizeof(float);
    c.check_reference = equals(want);
  }
  {
    // One step from x = 0, r = p = b is cg_solve's first iteration.
    const int n = 64;
    const int nz = 6;
    std::vector<double> b(static_cast<std::size_t>(n));
    Rng rng(20);
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    std::vector<double> x(b.size(), 0.0);
    cg_solve(cg_make_matrix(n, nz, 10.0), b, x, 1);
    TableCase& c = cases["cg_step"];
    c.params[0] = n;
    c.params[1] = nz;
    append_bytes(c.in, b);
    append_bytes(c.in, std::vector<double>(b.size(), 0.0));
    append_bytes(c.in, b);
    append_bytes(c.in, b);
    c.out_bytes = 3 * b.size() * sizeof(double);
    c.check_reference = equals(x);  // x' leads the output
  }
  return cases;
}

TEST(ExecParity, KernelTableEntriesAgreeAcrossExecutorsAndWithReferences) {
  const KernelRegistry& table = builtin_registry();
  const std::map<std::string, TableCase> cases = table_cases();
  exec::ExecConfig config;
  config.workers = 3;
  exec::ExecEngine engine(config);
  const ParallelFor reversed = reversed_executor(3);
  for (int id = 0; id < static_cast<int>(table.size()); ++id) {
    const std::string name = *table.name_of(id);
    if (name == "sleep_ms") continue;
    SCOPED_TRACE(name);
    const auto it = cases.find(name);
    ASSERT_NE(it, cases.end()) << "no parity case for table entry " << name;
    const TableCase& c = it->second;
    const KernelFn& body = *table.find(id);
    const GeometryFn* geometry = table.find_geometry(id);
    ASSERT_NE(geometry, nullptr);
    const long cap =
        exec::occupancy_shard_cap(gpu::tesla_c2070(), (*geometry)(c.params));
    const auto run = [&](const ParallelFor& pf) {
      std::vector<std::byte> out(c.out_bytes, std::byte{0x5A});
      body(c.in, out, c.params, pf);
      return out;
    };
    const std::vector<std::byte> serial = run(serial_executor());
    EXPECT_EQ(run(engine.executor(cap)), serial);
    EXPECT_EQ(run(reversed), serial);
    c.check_reference(serial);
  }
  engine.shutdown();
}

}  // namespace
}  // namespace vgpu::kernels
