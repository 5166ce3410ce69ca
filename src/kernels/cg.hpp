// NAS Parallel Benchmarks "CG" kernel: conjugate gradient on a random
// sparse symmetric positive-definite matrix (paper Table IV: class S,
// NA = 1400, 15 iterations, 8-block grid, compute-intensive).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "gpu/cost.hpp"

namespace vgpu::kernels {

/// Compressed sparse row matrix (square).
struct CsrMatrix {
  int n = 0;
  std::vector<int> row_ptr;  // size n + 1
  std::vector<int> col;      // size nnz
  std::vector<double> val;   // size nnz

  long nnz() const { return static_cast<long>(col.size()); }
};

/// Random sparse SPD matrix in NPB style: symmetric off-diagonal pattern
/// with ~nz_per_row entries per row, made positive definite by a dominant
/// diagonal shift.
CsrMatrix cg_make_matrix(int n, int nz_per_row, double shift,
                         std::uint64_t seed = 12345);

/// y = A x. `pf` shards the row loop (rows write disjoint outputs, so
/// sharding is bitwise-exact).
void spmv(const CsrMatrix& a, std::span<const double> x, std::span<double> y,
          const ParallelFor& pf = serial_executor());

struct CgResult {
  int iterations = 0;
  double final_residual = 0.0;         // ||b - A x||
  std::vector<double> residual_history;
};

/// One CG iteration, the loop body of cg_solve: from iterate x, residual r
/// and search direction p, writes x' = x + alpha p, r' = r - alpha A p and
/// p' = r' + beta p, and returns rho' = r'.r'. Each output may alias its
/// input (cg_solve updates in place). `pf` shards spmv and the updates;
/// the dot products stay serial, a fixed reduction order, so every
/// executor produces the same bits.
double cg_iteration(const CsrMatrix& a, std::span<const double> x,
                    std::span<const double> r, std::span<const double> p,
                    std::span<double> x_next, std::span<double> r_next,
                    std::span<double> p_next,
                    const ParallelFor& pf = serial_executor());

/// Conjugate gradient for A x = b starting from x = 0; stops at max_iters
/// or when the residual norm falls below tol. Each iteration is one
/// cg_iteration, so sharded runs are bitwise identical to serial ones.
CgResult cg_solve(const CsrMatrix& a, std::span<const double> b,
                  std::span<double> x, int max_iters, double tol = 0.0,
                  const ParallelFor& pf = serial_executor());

/// Launch descriptor for one CG iteration (spmv + axpys + dots). Paper
/// Table IV: an 8-block grid — tiny, so eight processes' CG iterations
/// co-execute fully on the device.
gpu::KernelLaunch cg_launch(int na, int nz_per_row);

}  // namespace vgpu::kernels
