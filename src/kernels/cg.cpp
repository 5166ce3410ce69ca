#include "kernels/cg.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace vgpu::kernels {

CsrMatrix cg_make_matrix(int n, int nz_per_row, double shift,
                         std::uint64_t seed) {
  VGPU_ASSERT(n >= 2 && nz_per_row >= 1);
  Rng rng(seed);
  // Build symmetric pattern with values in (0, 1), then add the shift on
  // the diagonal plus row-sum dominance for positive definiteness.
  std::vector<std::map<int, double>> rows(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int e = 0; e < nz_per_row; ++e) {
      const int j =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      if (j == i) continue;
      const double v = rng.next_double();
      rows[static_cast<std::size_t>(i)][j] = v;
      rows[static_cast<std::size_t>(j)][i] = v;  // symmetry
    }
  }
  CsrMatrix a;
  a.n = n;
  a.row_ptr.resize(static_cast<std::size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (const auto& [j, v] : rows[static_cast<std::size_t>(i)]) {
      row_sum += std::fabs(v);
    }
    // Diagonal first (CSR order within a row is by column below).
    rows[static_cast<std::size_t>(i)][i] = row_sum + shift;
    a.row_ptr[static_cast<std::size_t>(i) + 1] =
        a.row_ptr[static_cast<std::size_t>(i)] +
        static_cast<int>(rows[static_cast<std::size_t>(i)].size());
  }
  a.col.reserve(static_cast<std::size_t>(a.row_ptr.back()));
  a.val.reserve(static_cast<std::size_t>(a.row_ptr.back()));
  for (int i = 0; i < n; ++i) {
    for (const auto& [j, v] : rows[static_cast<std::size_t>(i)]) {
      a.col.push_back(j);
      a.val.push_back(v);
    }
  }
  return a;
}

void spmv(const CsrMatrix& a, std::span<const double> x, std::span<double> y,
          const ParallelFor& pf) {
  VGPU_ASSERT(static_cast<int>(x.size()) == a.n &&
              static_cast<int>(y.size()) == a.n);
  pf(a.n, [&](long row_begin, long row_end) {
    for (long i = row_begin; i < row_end; ++i) {
      double acc = 0.0;
      for (int e = a.row_ptr[static_cast<std::size_t>(i)];
           e < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++e) {
        acc += a.val[static_cast<std::size_t>(e)] *
               x[static_cast<std::size_t>(a.col[static_cast<std::size_t>(e)])];
      }
      y[static_cast<std::size_t>(i)] = acc;
    }
  });
}

namespace {
double dot_d(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}
}  // namespace

double cg_iteration(const CsrMatrix& a, std::span<const double> x,
                    std::span<const double> r, std::span<const double> p,
                    std::span<double> x_next, std::span<double> r_next,
                    std::span<double> p_next, const ParallelFor& pf) {
  const auto n = static_cast<std::size_t>(a.n);
  VGPU_ASSERT(x.size() == n && r.size() == n && p.size() == n);
  VGPU_ASSERT(x_next.size() == n && r_next.size() == n && p_next.size() == n);
  std::vector<double> ap(n);
  spmv(a, p, ap, pf);
  const double rho = dot_d(r, r);
  const double alpha = rho / dot_d(p, ap);
  pf(static_cast<long>(n), [&](long begin, long end) {
    for (long i = begin; i < end; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      x_next[idx] = x[idx] + alpha * p[idx];
      r_next[idx] = r[idx] - alpha * ap[idx];
    }
  });
  const double rho_next = dot_d(r_next, r_next);
  const double beta = rho_next / rho;
  pf(static_cast<long>(n), [&](long begin, long end) {
    for (long i = begin; i < end; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      p_next[idx] = r_next[idx] + beta * p[idx];
    }
  });
  return rho_next;
}

CgResult cg_solve(const CsrMatrix& a, std::span<const double> b,
                  std::span<double> x, int max_iters, double tol,
                  const ParallelFor& pf) {
  const auto n = static_cast<std::size_t>(a.n);
  VGPU_ASSERT(b.size() == n && x.size() == n);
  std::fill(x.begin(), x.end(), 0.0);

  std::vector<double> r(b.begin(), b.end());  // r = b - A*0
  std::vector<double> p = r;

  CgResult result;
  double rho = dot_d(r, r);
  result.residual_history.push_back(std::sqrt(rho));

  for (int it = 0; it < max_iters; ++it) {
    if (std::sqrt(rho) <= tol) break;
    rho = cg_iteration(a, x, r, p, x, r, p, pf);
    ++result.iterations;
    result.residual_history.push_back(std::sqrt(rho));
  }
  result.final_residual = std::sqrt(rho);
  return result;
}

gpu::KernelLaunch cg_launch(int na, int nz_per_row) {
  gpu::KernelLaunch l;
  l.name = "npb_cg_iter";
  // Paper Table IV: class S runs with an 8-block grid.
  l.geometry = gpu::KernelGeometry{8, 128, /*regs*/ 28, /*shmem*/ 2 * kKiB};
  (void)nz_per_row;
  // This descriptor aggregates one CG iteration of the class-S port:
  // spmv + axpy/dot micro-kernels with a host-side reduction sync. As with
  // MG, two calibrated components (see EXPERIMENTS.md):
  //  * ~10 ms of host/driver-serial launch+sync chain per iteration;
  //  * ~10 ms of latency-bound device time on an 8-block grid (irregular
  //    gathers, efficiency ~2%), which co-executes freely across processes.
  l.host_serial_time = milliseconds(10.0);
  const double threads = 8.0 * 128.0;
  const double total_flops = 1.18e8;  // 10 ms at 2% of one SM per block
  const double bytes = static_cast<double>(na) * (nz_per_row * 2 + 1) * 16.0;
  l.cost = gpu::KernelCost{total_flops / threads, bytes / threads,
                           /*efficiency*/ 0.02};
  return l;
}

}  // namespace vgpu::kernels
