// Tests for the workload definitions: paper-parameter invariants, the
// functional verify() oracles (including negative controls proving they
// detect corruption), and partition helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "kernels/ep.hpp"
#include "workloads/workloads.hpp"

namespace vgpu::workloads {
namespace {

// ---------------------------------------------------------------------------
// Paper-parameter invariants
// ---------------------------------------------------------------------------

TEST(WorkloadPlans, VectorAddMatchesTableII) {
  const Workload w = vector_add();
  EXPECT_EQ(w.plan.bytes_in, 2L * 50'000'000 * 4);
  EXPECT_EQ(w.plan.bytes_out, 50'000'000L * 4);
  EXPECT_EQ(w.rounds, 1);
  ASSERT_EQ(w.plan.kernels.size(), 1u);
  EXPECT_EQ(w.paper_class, model::WorkloadClass::kIoIntensive);
}

TEST(WorkloadPlans, EpHasNoInputData) {
  const Workload w = npb_ep();
  EXPECT_EQ(w.plan.bytes_in, 0);   // paper Table II: Tdata_in = 0
  EXPECT_GT(w.plan.bytes_out, 0);  // tiny tallies come back
  EXPECT_LT(w.plan.bytes_out, 1024);
}

TEST(WorkloadPlans, IterationCountsMatchTableIV) {
  EXPECT_EQ(npb_mg().plan.kernels.size(), 4u);          // Nit = 4
  EXPECT_EQ(npb_cg().plan.kernels.size(), 15u);         // Nit = 15
  EXPECT_EQ(electrostatics().plan.kernels.size(), 25u); // Nit = 25
  EXPECT_EQ(black_scholes().rounds, 512);               // Nit = 512
}

TEST(WorkloadPlans, ApplicationBenchmarkNamesMatchPaperOrder) {
  const auto apps = application_benchmarks();
  ASSERT_EQ(apps.size(), 5u);
  EXPECT_EQ(apps[0].name, "MM");
  EXPECT_EQ(apps[1].name, "MG");
  EXPECT_EQ(apps[2].name, "BlackScholes");
  EXPECT_EQ(apps[3].name, "CG");
  EXPECT_EQ(apps[4].name, "Electrostatics");
}

TEST(WorkloadPlans, EightBaselineVecaddsFitTheC2070) {
  // 8 processes x (400 + 200) MB must fit in 6 GB — the paper ran exactly
  // this configuration natively.
  const Workload w = vector_add();
  EXPECT_LE(8 * (w.plan.bytes_in + w.plan.bytes_out),
            gpu::tesla_c2070().global_mem);
}

// ---------------------------------------------------------------------------
// Functional oracles: positive path is covered by FunctionalPath tests;
// here the negative controls — verify() must *fail* on corrupted output.
// ---------------------------------------------------------------------------

class VerifyOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(VerifyOracle, DetectsCorruptedOutput) {
  FunctionalWorkload w = make_functional(GetParam());
  // Run the functional body directly (no device) to produce good output.
  std::vector<std::byte> in_backing(
      static_cast<std::size_t>(std::max<Bytes>(w.plan.bytes_in, 1)));
  std::vector<std::byte> out_backing(
      static_cast<std::size_t>(std::max<Bytes>(w.plan.bytes_out, 1)));
  if (w.plan.input != nullptr && w.plan.bytes_in > 0) {
    std::memcpy(in_backing.data(), w.plan.input,
                static_cast<std::size_t>(w.plan.bytes_in));
  }
  vcuda::DeviceBuffer dev_in, dev_out;
  dev_in.ptr = 1;
  dev_in.size = w.plan.bytes_in;
  dev_in.backing = std::make_shared<std::vector<std::byte>>(in_backing);
  dev_out.ptr = 2;
  dev_out.size = std::max<Bytes>(w.plan.bytes_out, 1);
  dev_out.backing = std::make_shared<std::vector<std::byte>>(out_backing);
  gvm::TaskBuffers buffers{&dev_in, &dev_out};
  ASSERT_TRUE(static_cast<bool>(w.plan.kernel_body));
  w.plan.kernel_body(buffers);
  if (w.plan.output != nullptr && w.plan.bytes_out > 0) {
    std::memcpy(w.plan.output, dev_out.backing->data(),
                static_cast<std::size_t>(w.plan.bytes_out));
  }
  ASSERT_TRUE(w.verify()) << "oracle rejects a correct run";

  // Clobber the delivered output: every oracle — including the
  // tolerance-based ones (put-call parity, residual norms) — must notice.
  std::memset(w.plan.output, 0x7F,
              static_cast<std::size_t>(w.plan.bytes_out));
  EXPECT_FALSE(w.verify()) << "oracle missed corrupted output";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, VerifyOracle,
    ::testing::ValuesIn(functional_workload_names()),
    [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// CG staging: the plan's input owns all bytes_in bytes
// ---------------------------------------------------------------------------

/// Runs a functional plan's body on device buffers staged the way the vcuda
/// H2D copy stages them (bytes_in bytes read from plan.input), after
/// `tamper` edits the staged input; delivers the output and verifies.
template <typename Tamper>
bool run_staged(FunctionalWorkload& w, const Tamper& tamper) {
  const auto bytes_in = static_cast<std::size_t>(w.plan.bytes_in);
  const auto bytes_out = static_cast<std::size_t>(w.plan.bytes_out);
  vcuda::DeviceBuffer dev_in, dev_out;
  dev_in.ptr = 1;
  dev_in.size = w.plan.bytes_in;
  dev_in.backing = std::make_shared<std::vector<std::byte>>(bytes_in);
  std::memcpy(dev_in.backing->data(), w.plan.input, bytes_in);
  tamper(*dev_in.backing);
  dev_out.ptr = 2;
  dev_out.size = w.plan.bytes_out;
  dev_out.backing = std::make_shared<std::vector<std::byte>>(bytes_out);
  gvm::TaskBuffers buffers{&dev_in, &dev_out};
  w.plan.kernel_body(buffers);
  std::memcpy(w.plan.output, dev_out.backing->data(), bytes_out);
  return w.verify();
}

TEST(FunctionalCg, StagedInputCarriesTheMatrixTheBodySolves) {
  // bytes_in models the CSR matrix plus b. The staging copy reads all of
  // it from plan.input, which therefore must own that many bytes (it once
  // pointed at the 1 KiB b alone: a 23 KiB over-read per H2D copy).
  FunctionalWorkload w = functional_cg();
  EXPECT_TRUE(run_staged(w, [](std::vector<std::byte>&) {}));
  // The body solves the staged matrix, not a host-side copy of it: a
  // matrix zeroed in flight cannot produce a solution.
  FunctionalWorkload zeroed = functional_cg();
  const std::size_t b_bytes = 128 * sizeof(double);  // default na = 128
  EXPECT_FALSE(run_staged(zeroed, [&](std::vector<std::byte>& staged) {
    std::fill(staged.begin() + static_cast<std::ptrdiff_t>(b_bytes),
              staged.end(), std::byte{0});
  }));
}

// ---------------------------------------------------------------------------
// EP partition helper
// ---------------------------------------------------------------------------

TEST(EpPartition, ChunkRangesTileTheWholeProblem) {
  const int m = 12;
  for (int chunks : {1, 3, 8, 16}) {
    kernels::EpResult sum;
    for (int c = 0; c < chunks; ++c) {
      const kernels::EpResult part = kernels::ep_chunk_range(m, c, chunks);
      sum.sx += part.sx;
      sum.sy += part.sy;
      sum.pairs_accepted += part.pairs_accepted;
      for (std::size_t i = 0; i < sum.q.size(); ++i) sum.q[i] += part.q[i];
    }
    const kernels::EpResult expect = kernels::ep_sequential(m);
    EXPECT_EQ(sum.q, expect.q) << "chunks=" << chunks;
    EXPECT_EQ(sum.pairs_accepted, expect.pairs_accepted);
    EXPECT_NEAR(sum.sx, expect.sx, 1e-8);
  }
}

TEST(EpPartition, ChunksAreDisjointDeterministic) {
  const kernels::EpResult a = kernels::ep_chunk_range(10, 2, 4);
  const kernels::EpResult b = kernels::ep_chunk_range(10, 2, 4);
  EXPECT_EQ(a.q, b.q);
  EXPECT_EQ(a.sx, b.sx);
}

}  // namespace
}  // namespace vgpu::workloads
