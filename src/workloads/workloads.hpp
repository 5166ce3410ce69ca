// Benchmark workload definitions.
//
// Two forms per benchmark:
//
//  * Timing workloads at the paper's problem sizes (Tables II and IV):
//    unbacked buffers, cost-model kernels — used by the bench harness to
//    regenerate every figure/table. Problem data never materializes, so a
//    50M-element vector addition costs no host memory.
//
//  * Functional workloads at reduced sizes: backed buffers and kernel
//    bodies that really compute, with a verify() oracle — used by
//    integration tests to prove the GVM data path end to end. Kernels the
//    kernel table (kernels/registry.hpp) holds take their body from it
//    through table_body(), so the DES computes with the live runtime's
//    bodies.
//
// Paper workload inventory (Tables II & IV):
//   VectorAdd  50M floats, grid 50K, I/O-intensive
//   EP         class B (M=30), grid 4, compute-intensive
//   MM         2048x2048 SGEMM, grid 4096, intermediate
//   MG         class S (32^3, 4 iters), grid 64, compute-intensive
//   BlackScholes 1M options, Nit=512, grid 480, I/O-intensive
//   CG         class S (NA=1400, 15 iters), grid 8, compute-intensive
//   Electrostatics 100K atoms, 25 slabs, grid 288, compute-intensive
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gvm/protocol.hpp"
#include "model/model.hpp"

namespace vgpu::workloads {

/// A timing workload: per-round task plan + round count + the class label
/// the paper assigns (Table IV).
struct Workload {
  std::string name;
  gvm::TaskPlan plan;
  int rounds = 1;
  model::WorkloadClass paper_class = model::WorkloadClass::kIntermediate;
};

// --- paper-scale timing workloads -------------------------------------------

Workload vector_add(long n = 50'000'000);
Workload npb_ep(int m = 30);
Workload matmul(int n = 2048);
Workload npb_mg(int n = 32, int iterations = 4);
Workload black_scholes(long options = 1'000'000, int rounds = 512);
Workload npb_cg(int na = 1400, int iterations = 15);
Workload electrostatics(long atoms = 100'000, int slabs = 25);

/// The five Table IV application benchmarks (paper Figures 11-16 order:
/// MM, MG, BlackScholes, CG, Electrostatics).
std::vector<Workload> application_benchmarks();

// --- functional workloads ----------------------------------------------------

/// A TaskPlan::kernel_body running kernel-table entry `kernel` with
/// `params` on the client's device buffers, on serial_executor(). The
/// buffers' backing bytes are the body's in/out spans.
std::function<void(gvm::TaskBuffers&)> table_body(
    const std::string& kernel, std::array<std::int64_t, 4> params);

/// A reduced-size workload whose kernels really compute; verify() checks
/// the results that traveled through the full VGPU data path.
struct FunctionalWorkload {
  std::string name;
  gvm::TaskPlan plan;
  int rounds = 1;
  std::function<bool()> verify;
  std::shared_ptr<void> state;  // owns host data the plan points into
};

FunctionalWorkload functional_vecadd(long n = 4096);
FunctionalWorkload functional_matmul(int n = 48);
FunctionalWorkload functional_blackscholes(long options = 512);
FunctionalWorkload functional_ep(int m = 12);
FunctionalWorkload functional_mg(int n = 16, int iterations = 2);
FunctionalWorkload functional_cg(int na = 128, int iterations = 40);
FunctionalWorkload functional_electrostatics(long atoms = 64);
/// 27-point stencil sweep on an n^3 periodic grid (extension workload).
FunctionalWorkload functional_stencil(int n = 12);
/// Two-kernel pipeline: vecadd then sum-reduction of the result — a
/// multi-kernel TaskPlan exercised end to end.
FunctionalWorkload functional_pipeline(long n = 2048);
/// NPB FT (extension): forward 3-D FFT + evolve + inverse on an n^3 field.
FunctionalWorkload functional_ft(int n = 8);
/// NPB IS (extension): counting-sort key ranking.
FunctionalWorkload functional_is(long n = 8192, int max_key = 512);

/// NPB FT / IS timing workloads (extension; class-S-like sizes).
Workload npb_ft(int n = 64, int iterations = 6);
Workload npb_is(long n = 1 << 23, int max_key = 1 << 19, int iterations = 10);

/// All functional workloads (used by parameterized integration tests).
std::vector<std::string> functional_workload_names();
FunctionalWorkload make_functional(const std::string& name);

}  // namespace vgpu::workloads
