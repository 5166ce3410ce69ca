#include "workloads/workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
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

namespace vgpu::workloads {

// ---------------------------------------------------------------------------
// Timing workloads (paper problem sizes)
// ---------------------------------------------------------------------------

Workload vector_add(long n) {
  Workload w;
  w.name = "VectorAdd";
  w.paper_class = model::WorkloadClass::kIoIntensive;
  w.plan.bytes_in = 2 * n * 4;   // A and B
  w.plan.bytes_out = n * 4;      // C
  w.plan.kernels = {kernels::vecadd_launch(n)};
  return w;
}

Workload npb_ep(int m) {
  Workload w;
  w.name = "EP";
  w.paper_class = model::WorkloadClass::kComputeIntensive;
  w.plan.bytes_in = 0;     // EP needs no input data (paper: Tdata_in = 0)
  w.plan.bytes_out = 96;   // sums + annulus counts
  w.plan.kernels = {kernels::ep_launch(m)};
  return w;
}

Workload matmul(int n) {
  Workload w;
  w.name = "MM";
  w.paper_class = model::WorkloadClass::kIntermediate;
  const Bytes nn4 = static_cast<Bytes>(n) * n * 4;
  w.plan.bytes_in = 2 * nn4;
  w.plan.bytes_out = nn4;
  w.plan.kernels = {kernels::matmul_launch(n)};
  return w;
}

Workload npb_mg(int n, int iterations) {
  Workload w;
  w.name = "MG";
  w.paper_class = model::WorkloadClass::kComputeIntensive;
  const Bytes grid_bytes = static_cast<Bytes>(n) * n * n * 8;
  w.plan.bytes_in = grid_bytes;   // right-hand side v
  w.plan.bytes_out = grid_bytes;  // solution u
  for (int i = 0; i < iterations; ++i) {
    w.plan.kernels.push_back(kernels::mg_launch(n));
  }
  return w;
}

Workload black_scholes(long options, int rounds) {
  Workload w;
  w.name = "BlackScholes";
  w.paper_class = model::WorkloadClass::kIoIntensive;
  w.plan.bytes_in = 3 * options * 4;   // S, X, T
  w.plan.bytes_out = 2 * options * 4;  // call, put
  w.plan.kernels = {kernels::black_scholes_launch(options)};
  w.rounds = rounds;  // paper: prices refreshed over Nit = 512 rounds
  return w;
}

Workload npb_cg(int na, int iterations) {
  Workload w;
  w.name = "CG";
  w.paper_class = model::WorkloadClass::kComputeIntensive;
  const int nz_per_row = 7;
  // CSR matrix (values + columns + row pointers) and the b vector in;
  // solution vector out.
  const Bytes nnz = static_cast<Bytes>(na) * (2 * nz_per_row + 1);
  w.plan.bytes_in = nnz * 12 + static_cast<Bytes>(na) * 8;
  w.plan.bytes_out = static_cast<Bytes>(na) * 8;
  for (int i = 0; i < iterations; ++i) {
    w.plan.kernels.push_back(kernels::cg_launch(na, nz_per_row));
  }
  return w;
}

Workload electrostatics(long atoms, int slabs) {
  Workload w;
  w.name = "Electrostatics";
  w.paper_class = model::WorkloadClass::kComputeIntensive;
  const long lattice_points = 192 * 192;  // one slab = 288 blocks * 128 thr
  w.plan.bytes_in = atoms * 16;           // x, y, z, q per atom
  w.plan.bytes_out = static_cast<Bytes>(lattice_points) * 4 * slabs;
  for (int i = 0; i < slabs; ++i) {
    w.plan.kernels.push_back(
        kernels::electrostatics_launch(atoms, lattice_points));
  }
  return w;
}

std::vector<Workload> application_benchmarks() {
  return {matmul(), npb_mg(), black_scholes(), npb_cg(), electrostatics()};
}

// ---------------------------------------------------------------------------
// Functional workloads
// ---------------------------------------------------------------------------

namespace {

/// Host-side state shared between a plan's callbacks and verify().
template <typename T>
std::shared_ptr<T> make_state() {
  return std::make_shared<T>();
}

std::span<std::byte> backing_bytes(vcuda::DeviceBuffer* buffer) {
  if (buffer == nullptr || buffer->backing == nullptr) return {};
  return {buffer->backing->data(), buffer->backing->size()};
}

}  // namespace

std::function<void(gvm::TaskBuffers&)> table_body(
    const std::string& kernel, std::array<std::int64_t, 4> params) {
  const kernels::KernelRegistry& table = kernels::builtin_registry();
  const StatusOr<int> id = table.id_of(kernel);
  VGPU_ASSERT_MSG(id.ok(), id.status().to_string().c_str());
  return [body = *table.find(*id), params](gvm::TaskBuffers& buffers) {
    body(backing_bytes(buffers.in), backing_bytes(buffers.out), params.data(),
         serial_executor());
  };
}

FunctionalWorkload functional_vecadd(long n) {
  struct State {
    std::vector<float> input;   // [A | B]
    std::vector<float> output;  // C
  };
  auto st = make_state<State>();
  st->input.resize(static_cast<std::size_t>(2 * n));
  st->output.resize(static_cast<std::size_t>(n));
  Rng rng(101);
  for (auto& v : st->input) v = static_cast<float>(rng.uniform(-8.0, 8.0));

  FunctionalWorkload w;
  w.name = "vecadd";
  w.plan = vector_add(n).plan;
  w.plan.backed = true;
  w.plan.input = st->input.data();
  w.plan.output = st->output.data();
  w.plan.kernel_body = table_body("vecadd", {n});
  w.verify = [st, n] {
    const auto un = static_cast<std::size_t>(n);
    for (std::size_t i = 0; i < un; ++i) {
      if (st->output[i] != st->input[i] + st->input[un + i]) return false;
    }
    return true;
  };
  w.state = st;
  return w;
}

FunctionalWorkload functional_matmul(int n) {
  struct State {
    std::vector<float> input;   // [A | B]
    std::vector<float> output;  // C
    std::vector<float> expect;
  };
  auto st = make_state<State>();
  const auto nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  st->input.resize(2 * nn);
  st->output.resize(nn);
  st->expect.resize(nn);
  Rng rng(102);
  for (auto& v : st->input) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  kernels::sgemm_reference({st->input.data(), nn},
                           {st->input.data() + nn, nn},
                           {st->expect.data(), nn}, n);

  FunctionalWorkload w;
  w.name = "matmul";
  w.plan = matmul(n).plan;
  w.plan.backed = true;
  w.plan.input = st->input.data();
  w.plan.output = st->output.data();
  w.plan.kernel_body = table_body("sgemm", {n});
  w.verify = [st, nn] {
    for (std::size_t i = 0; i < nn; ++i) {
      if (std::fabs(st->output[i] - st->expect[i]) > 1e-3f) return false;
    }
    return true;
  };
  w.state = st;
  return w;
}

FunctionalWorkload functional_blackscholes(long options) {
  struct State {
    std::vector<float> input;   // [S | X | T]
    std::vector<float> output;  // [call | put]
  };
  auto st = make_state<State>();
  const auto n = static_cast<std::size_t>(options);
  st->input.resize(3 * n);
  st->output.resize(2 * n);
  Rng rng(103);
  for (std::size_t i = 0; i < n; ++i) {
    st->input[i] = static_cast<float>(rng.uniform(5.0, 30.0));          // S
    st->input[n + i] = static_cast<float>(rng.uniform(1.0, 100.0));     // X
    st->input[2 * n + i] = static_cast<float>(rng.uniform(0.25, 10.0)); // T
  }

  FunctionalWorkload w;
  w.name = "blackscholes";
  w.plan = black_scholes(options, 1).plan;
  w.plan.backed = true;
  w.plan.input = st->input.data();
  w.plan.output = st->output.data();
  w.plan.kernel_body = table_body("blackscholes", {options});
  w.verify = [st, n] {
    // Put-call parity against the inputs that made the round trip.
    for (std::size_t i = 0; i < n; ++i) {
      const float s = st->input[i];
      const float x = st->input[n + i];
      const float t = st->input[2 * n + i];
      const float lhs = st->output[i] - st->output[n + i];
      const float rhs = s - x * std::exp(-0.02f * t);
      if (std::fabs(lhs - rhs) > 2e-3f * std::max(1.0f, std::fabs(rhs))) {
        return false;
      }
    }
    return true;
  };
  w.state = st;
  return w;
}

FunctionalWorkload functional_ep(int m) {
  struct State {
    kernels::EpResult output;
  };
  auto st = make_state<State>();

  FunctionalWorkload w;
  w.name = "ep";
  w.plan = npb_ep(m).plan;
  w.plan.bytes_out = static_cast<Bytes>(sizeof(kernels::EpResult));
  w.plan.backed = true;
  w.plan.output = &st->output;
  // Partitioned exactly like the 4-block GPU grid.
  w.plan.kernel_body = table_body("ep", {m, 4});
  w.verify = [st, m] {
    const kernels::EpResult expect = kernels::ep_sequential(m);
    return st->output.q == expect.q &&
           st->output.pairs_accepted == expect.pairs_accepted &&
           std::fabs(st->output.sx - expect.sx) < 1e-6 &&
           std::fabs(st->output.sy - expect.sy) < 1e-6;
  };
  w.state = st;
  return w;
}

FunctionalWorkload functional_mg(int n, int iterations) {
  struct State {
    std::vector<double> input;   // rhs v
    std::vector<double> output;  // solution u
    int n = 0;
  };
  auto st = make_state<State>();
  st->n = n;
  const kernels::Grid3 rhs = kernels::mg_make_rhs(n);
  st->input = rhs.data();
  st->output.resize(st->input.size());

  FunctionalWorkload w;
  w.name = "mg";
  w.plan = npb_mg(n, iterations).plan;
  w.plan.backed = true;
  w.plan.input = st->input.data();
  w.plan.output = st->output.data();
  w.plan.kernel_body = table_body("mg_vcycle", {n, iterations});
  w.verify = [st] {
    kernels::Grid3 v(st->n), u(st->n), zero(st->n);
    std::memcpy(v.data().data(), st->input.data(),
                st->input.size() * sizeof(double));
    std::memcpy(u.data().data(), st->output.data(),
                st->output.size() * sizeof(double));
    zero.fill(0.0);
    // The returned solution must beat the zero initial guess decisively.
    return kernels::mg_residual_norm(u, v) <
           0.5 * kernels::mg_residual_norm(zero, v);
  };
  w.state = st;
  return w;
}

namespace {

/// CG's staged input: the right-hand side and the CSR matrix in one buffer
/// of exactly the plan's bytes_in, so every staging copy moves bytes the
/// workload owns and the body solves the matrix it was sent:
///   [b: na doubles | row_ptr: na+1 ints | pad to 8 | val: nnz doubles |
///    col: nnz ints | zero pad]
struct CgLayout {
  std::size_t row_ptr = 0;
  std::size_t val = 0;
  std::size_t col = 0;
  std::size_t end = 0;
};

CgLayout cg_layout(std::size_t na, std::size_t nnz) {
  CgLayout l;
  l.row_ptr = na * sizeof(double);
  l.val = round_up(l.row_ptr + (na + 1) * sizeof(int), sizeof(double));
  l.col = l.val + nnz * sizeof(double);
  l.end = l.col + nnz * sizeof(int);
  return l;
}

kernels::CsrMatrix cg_unpack(std::span<const std::byte> in, int na) {
  const auto un = static_cast<std::size_t>(na);
  kernels::CsrMatrix a;
  a.n = na;
  a.row_ptr.resize(un + 1);
  const CgLayout head = cg_layout(un, 0);
  VGPU_ASSERT(head.end <= in.size());
  std::memcpy(a.row_ptr.data(), in.data() + head.row_ptr,
              (un + 1) * sizeof(int));
  const auto nnz = static_cast<std::size_t>(a.row_ptr.back());
  const CgLayout l = cg_layout(un, nnz);
  VGPU_ASSERT(l.end <= in.size());
  a.val.resize(nnz);
  a.col.resize(nnz);
  if (nnz > 0) {  // memcpy into an empty vector's null data() is UB
    std::memcpy(a.val.data(), in.data() + l.val, nnz * sizeof(double));
    std::memcpy(a.col.data(), in.data() + l.col, nnz * sizeof(int));
  }
  return a;
}

}  // namespace

FunctionalWorkload functional_cg(int na, int iterations) {
  struct State {
    kernels::CsrMatrix matrix;
    std::vector<double> b;
    std::vector<std::byte> input;  // b + matrix, see CgLayout
    std::vector<double> output;    // x
  };
  auto st = make_state<State>();
  const auto un = static_cast<std::size_t>(na);
  st->matrix = kernels::cg_make_matrix(na, 6, 8.0);
  st->b.resize(un);
  st->output.resize(un);
  Rng rng(104);
  for (auto& v : st->b) v = rng.uniform(-1.0, 1.0);

  FunctionalWorkload w;
  w.name = "cg";
  w.plan = npb_cg(na, iterations).plan;
  const kernels::CsrMatrix& a = st->matrix;
  const CgLayout l = cg_layout(un, static_cast<std::size_t>(a.nnz()));
  VGPU_ASSERT(static_cast<Bytes>(l.end) <= w.plan.bytes_in);
  st->input.resize(static_cast<std::size_t>(w.plan.bytes_in));
  std::memcpy(st->input.data(), st->b.data(), un * sizeof(double));
  std::memcpy(st->input.data() + l.row_ptr, a.row_ptr.data(),
              a.row_ptr.size() * sizeof(int));
  std::memcpy(st->input.data() + l.val, a.val.data(),
              a.val.size() * sizeof(double));
  std::memcpy(st->input.data() + l.col, a.col.data(),
              a.col.size() * sizeof(int));
  w.plan.backed = true;
  w.plan.input = st->input.data();
  w.plan.output = st->output.data();
  w.plan.kernel_body = [na, iterations](gvm::TaskBuffers& buffers) {
    const std::span<const std::byte> in = backing_bytes(buffers.in);
    double* out = buffers.out->as<double>();
    VGPU_ASSERT(out != nullptr);
    const auto n = static_cast<std::size_t>(na);
    kernels::cg_solve(cg_unpack(in, na),
                      {reinterpret_cast<const double*>(in.data()), n},
                      {out, n}, iterations, 1e-12);
  };
  w.verify = [st] {
    std::vector<double> ax(st->output.size());
    kernels::spmv(st->matrix, st->output, ax);
    double err = 0.0, bnorm = 0.0;
    for (std::size_t i = 0; i < ax.size(); ++i) {
      err += (st->b[i] - ax[i]) * (st->b[i] - ax[i]);
      bnorm += st->b[i] * st->b[i];
    }
    return std::sqrt(err) < 1e-6 * std::sqrt(bnorm) + 1e-9;
  };
  w.state = st;
  return w;
}

FunctionalWorkload functional_electrostatics(long atoms) {
  struct State {
    std::vector<kernels::Atom> input;
    std::vector<float> output;
    kernels::Lattice lattice{16, 16, 0.5f, 0.25f};
  };
  auto st = make_state<State>();
  st->input = kernels::make_atoms(atoms, 8.0f);
  st->output.resize(static_cast<std::size_t>(st->lattice.nx) *
                    static_cast<std::size_t>(st->lattice.ny));

  FunctionalWorkload w;
  w.name = "electrostatics";
  w.plan = electrostatics(atoms, 1).plan;
  w.plan.bytes_out = static_cast<Bytes>(st->output.size()) * 4;
  w.plan.backed = true;
  w.plan.input = st->input.data();
  w.plan.output = st->output.data();
  const kernels::Lattice lattice = st->lattice;
  const long n_atoms = atoms;
  w.plan.kernel_body = [lattice, n_atoms](gvm::TaskBuffers& buffers) {
    const auto* in = buffers.in->as<kernels::Atom>();
    float* out = buffers.out->as<float>();
    VGPU_ASSERT(in != nullptr && out != nullptr);
    const auto points = static_cast<std::size_t>(lattice.nx) *
                        static_cast<std::size_t>(lattice.ny);
    kernels::coulomb_slab({in, static_cast<std::size_t>(n_atoms)}, lattice,
                          {out, points});
  };
  w.verify = [st] {
    std::vector<float> expect(st->output.size());
    kernels::coulomb_slab(st->input, st->lattice, expect);
    for (std::size_t i = 0; i < expect.size(); ++i) {
      if (std::fabs(st->output[i] - expect[i]) > 1e-4f) return false;
    }
    return true;
  };
  w.state = st;
  return w;
}

FunctionalWorkload functional_stencil(int n) {
  struct State {
    std::vector<double> input;
    std::vector<double> output;
    int n = 0;
  };
  auto st = make_state<State>();
  st->n = n;
  const auto cells = static_cast<std::size_t>(n) * n * n;
  st->input.resize(cells);
  st->output.resize(cells);
  Rng rng(105);
  for (auto& v : st->input) v = rng.uniform(-1.0, 1.0);

  FunctionalWorkload w;
  w.name = "stencil27";
  w.plan.bytes_in = static_cast<Bytes>(cells) * 8;
  w.plan.bytes_out = static_cast<Bytes>(cells) * 8;
  w.plan.backed = true;
  w.plan.input = st->input.data();
  w.plan.output = st->output.data();
  gpu::KernelLaunch l;
  l.name = "stencil27";
  l.geometry = gpu::KernelGeometry{
      ceil_div(static_cast<long>(cells), 128L), 128, 24, 0};
  l.cost = gpu::KernelCost{/*27 reads, mul-adds*/ 54.0, 8.0 * 4.0, 0.7};
  w.plan.kernels = {l};
  w.plan.kernel_body = [n, cells](gvm::TaskBuffers& buffers) {
    const double* in = buffers.in->as<double>();
    double* out = buffers.out->as<double>();
    VGPU_ASSERT(in != nullptr && out != nullptr);
    kernels::Grid3 gin(n), gout(n);
    std::memcpy(gin.data().data(), in, cells * 8);
    kernels::apply_stencil(kernels::mg_operator_a(), gin, gout);
    std::memcpy(out, gout.data().data(), cells * 8);
  };
  w.verify = [st] {
    kernels::Grid3 gin(st->n), expect(st->n);
    std::memcpy(gin.data().data(), st->input.data(),
                st->input.size() * 8);
    kernels::apply_stencil(kernels::mg_operator_a(), gin, expect);
    for (std::size_t i = 0; i < st->output.size(); ++i) {
      if (st->output[i] != expect.data()[i]) return false;
    }
    return true;
  };
  w.state = st;
  return w;
}

FunctionalWorkload functional_pipeline(long n) {
  struct State {
    std::vector<float> input;   // [A | B]
    float output = 0.0f;        // sum of (A + B)
  };
  auto st = make_state<State>();
  st->input.resize(static_cast<std::size_t>(2 * n));
  Rng rng(106);
  for (auto& v : st->input) v = static_cast<float>(rng.uniform(-2.0, 2.0));

  FunctionalWorkload w;
  w.name = "pipeline";
  w.plan.bytes_in = 2 * n * 4;
  w.plan.bytes_out = 4;
  w.plan.backed = true;
  w.plan.input = st->input.data();
  w.plan.output = &st->output;
  w.plan.kernels = {kernels::vecadd_launch(n), kernels::reduce_launch(n)};
  // The functional body runs once, with the final kernel, and performs
  // both pipeline stages on the staged device data.
  w.plan.kernel_body = [n](gvm::TaskBuffers& buffers) {
    const float* in = buffers.in->as<float>();
    float* out = buffers.out->as<float>();
    VGPU_ASSERT(in != nullptr && out != nullptr);
    const auto un = static_cast<std::size_t>(n);
    std::vector<float> sum(un);
    kernels::vecadd({in, un}, {in + un, un}, sum);
    out[0] = kernels::reduce_sum(sum);
  };
  w.verify = [st, n] {
    const auto un = static_cast<std::size_t>(n);
    std::vector<float> sum(un);
    kernels::vecadd({st->input.data(), un}, {st->input.data() + un, un},
                    sum);
    return st->output == kernels::reduce_sum(sum);
  };
  w.state = st;
  return w;
}

Workload npb_ft(int n, int iterations) {
  Workload w;
  w.name = "FT";
  w.paper_class = model::WorkloadClass::kIntermediate;
  const Bytes field_bytes = static_cast<Bytes>(n) * n * n * 16;
  w.plan.bytes_in = field_bytes;
  w.plan.bytes_out = field_bytes;
  for (int i = 0; i < iterations; ++i) {
    w.plan.kernels.push_back(kernels::ft_launch(n));
  }
  return w;
}

Workload npb_is(long n, int max_key, int iterations) {
  Workload w;
  w.name = "IS";
  w.paper_class = model::WorkloadClass::kIoIntensive;
  w.plan.bytes_in = n * 4;
  w.plan.bytes_out = n * 8;  // ranks
  for (int i = 0; i < iterations; ++i) {
    w.plan.kernels.push_back(kernels::is_launch(n, max_key));
  }
  return w;
}

FunctionalWorkload functional_ft(int n) {
  struct State {
    std::vector<kernels::Complex> input;
    std::vector<kernels::Complex> output;
    int n = 0;
  };
  auto st = make_state<State>();
  st->n = n;
  st->input = kernels::ft_make_field(n).data();
  st->output.resize(st->input.size());

  FunctionalWorkload w;
  w.name = "ft";
  w.plan = npb_ft(n, 1).plan;
  w.plan.backed = true;
  w.plan.input = st->input.data();
  w.plan.output = st->output.data();
  w.plan.kernel_body = [n](gvm::TaskBuffers& buffers) {
    const auto* in = buffers.in->as<kernels::Complex>();
    auto* out = buffers.out->as<kernels::Complex>();
    VGPU_ASSERT(in != nullptr && out != nullptr);
    kernels::Field3 field(n);
    std::copy(in, in + field.data().size(), field.data().begin());
    kernels::fft3d(field, false);
    kernels::ft_evolve(field, /*t=*/1.0);
    kernels::fft3d(field, true);
    std::copy(field.data().begin(), field.data().end(), out);
  };
  w.verify = [st] {
    // Independent recomputation of the spectral step.
    kernels::Field3 expect(st->n);
    std::copy(st->input.begin(), st->input.end(), expect.data().begin());
    kernels::fft3d(expect, false);
    kernels::ft_evolve(expect, 1.0);
    kernels::fft3d(expect, true);
    for (std::size_t i = 0; i < st->output.size(); ++i) {
      if (std::abs(st->output[i] - expect.data()[i]) > 1e-9) return false;
    }
    return true;
  };
  w.state = st;
  return w;
}

FunctionalWorkload functional_is(long n, int max_key) {
  struct State {
    std::vector<int> input;
    std::vector<long> output;
    int max_key = 0;
  };
  auto st = make_state<State>();
  st->max_key = max_key;
  st->input = kernels::is_make_keys(n, max_key);
  st->output.resize(static_cast<std::size_t>(n));

  FunctionalWorkload w;
  w.name = "is";
  w.plan = npb_is(n, max_key, 1).plan;
  w.plan.backed = true;
  w.plan.input = st->input.data();
  w.plan.output = st->output.data();
  const int mk = max_key;
  w.plan.kernel_body = [n, mk](gvm::TaskBuffers& buffers) {
    const int* in = buffers.in->as<int>();
    long* out = buffers.out->as<long>();
    VGPU_ASSERT(in != nullptr && out != nullptr);
    const auto ranks =
        kernels::is_rank({in, static_cast<std::size_t>(n)}, mk);
    std::copy(ranks.begin(), ranks.end(), out);
  };
  w.verify = [st] {
    // Defensive: reject out-of-range ranks before scattering with them.
    for (long r : st->output) {
      if (r < 0 || r >= static_cast<long>(st->output.size())) return false;
    }
    const auto sorted = kernels::is_apply_ranks(st->input, st->output);
    if (!std::is_sorted(sorted.begin(), sorted.end())) return false;
    std::vector<int> expect = st->input;
    std::sort(expect.begin(), expect.end());
    return sorted == expect;
  };
  w.state = st;
  return w;
}

std::vector<std::string> functional_workload_names() {
  return {"vecadd", "matmul",         "blackscholes",
          "ep",     "mg",             "cg",
          "electrostatics", "stencil27", "pipeline",
          "ft",     "is"};
}

FunctionalWorkload make_functional(const std::string& name) {
  if (name == "vecadd") return functional_vecadd();
  if (name == "matmul") return functional_matmul();
  if (name == "blackscholes") return functional_blackscholes();
  if (name == "ep") return functional_ep();
  if (name == "mg") return functional_mg();
  if (name == "cg") return functional_cg();
  if (name == "electrostatics") return functional_electrostatics();
  if (name == "stencil27") return functional_stencil();
  if (name == "pipeline") return functional_pipeline();
  if (name == "ft") return functional_ft();
  if (name == "is") return functional_is();
  VGPU_ASSERT_MSG(false, "unknown functional workload");
  return {};
}

}  // namespace vgpu::workloads
