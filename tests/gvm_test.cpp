// Integration tests for the GVM virtualization layer: protocol behaviour,
// functional end-to-end data paths, turnaround invariants, and agreement
// with the analytical model.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "gvm/experiment.hpp"
#include "gvm/gvm.hpp"
#include "model/model.hpp"
#include "workloads/workloads.hpp"

namespace vgpu::gvm {
namespace {

/// Small, fast device for functional tests: C2070 semantics with shrunken
/// overheads so tests run instantly in virtual time too.
gpu::DeviceSpec fast_c2070() {
  gpu::DeviceSpec spec = gpu::tesla_c2070();
  spec.device_init_time = milliseconds(50.0);
  spec.ctx_create_time = milliseconds(5.0);
  spec.ctx_switch_time = milliseconds(20.0);
  return spec;
}

GvmConfig default_config() { return GvmConfig{}; }

// ---------------------------------------------------------------------------
// Functional end-to-end runs (parameterized across all workloads and both
// execution paths).
// ---------------------------------------------------------------------------

class FunctionalPath
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(FunctionalPath, VirtualizedProducesCorrectResults) {
  const auto& [name, nprocs] = GetParam();
  // One workload instance per client: each needs its own output buffers.
  std::vector<workloads::FunctionalWorkload> instances;
  for (int p = 0; p < nprocs; ++p) {
    instances.push_back(workloads::make_functional(name));
  }
  // Drive all clients through one shared GVM.
  des::Simulator sim;
  gpu::Device device(sim, fast_c2070());
  vcuda::Runtime runtime(sim, device);
  GvmConfig config = default_config();
  config.expected_clients = nprocs;
  Gvm gvm(sim, runtime, config);
  gvm.start();
  for (int p = 0; p < nprocs; ++p) {
    sim.spawn([](des::Simulator& s, Gvm& gvm,
                 workloads::FunctionalWorkload& w, int id) -> des::Task<> {
      co_await gvm.ready().wait();
      VGpuClient client(s, gvm, id);
      co_await client.run_task(w.plan, w.rounds);
    }(sim, gvm, instances[static_cast<std::size_t>(p)], p));
  }
  sim.run();
  for (auto& w : instances) {
    EXPECT_TRUE(w.verify()) << w.name << " through GVM";
  }
  EXPECT_EQ(device.stats().ctx_switches, 0);  // single GVM context
}

TEST_P(FunctionalPath, BaselineProducesCorrectResults) {
  const auto& [name, nprocs] = GetParam();
  std::vector<workloads::FunctionalWorkload> instances;
  for (int p = 0; p < nprocs; ++p) {
    instances.push_back(workloads::make_functional(name));
  }
  des::Simulator sim;
  gpu::Device device(sim, fast_c2070());
  vcuda::Runtime runtime(sim, device);
  des::CountdownLatch done(sim, static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p) {
    auto& w = instances[static_cast<std::size_t>(p)];
    sim.spawn([](vcuda::Runtime& rt, workloads::FunctionalWorkload& w,
                 des::CountdownLatch& done) -> des::Task<> {
      auto ctx = co_await rt.create_context();
      vcuda::DeviceBuffer in, out;
      if (w.plan.bytes_in > 0) in = *ctx->malloc(w.plan.bytes_in, true);
      if (w.plan.bytes_out > 0) out = *ctx->malloc(w.plan.bytes_out, true);
      for (int round = 0; round < w.rounds; ++round) {
        if (w.plan.bytes_in > 0) {
          co_await ctx->memcpy_h2d(in, w.plan.input, w.plan.bytes_in);
        }
        for (std::size_t i = 0; i < w.plan.kernels.size(); ++i) {
          const bool last = (i + 1 == w.plan.kernels.size());
          std::function<void()> body;
          if (last && w.plan.kernel_body) {
            body = [&] {
              TaskBuffers buffers{&in, &out};
              w.plan.kernel_body(buffers);
            };
          }
          co_await ctx->launch_sync(w.plan.kernels[i], std::move(body));
        }
        if (w.plan.bytes_out > 0) {
          co_await ctx->memcpy_d2h(w.plan.output, out, w.plan.bytes_out);
        }
      }
      done.count_down();
    }(runtime, w, done));
  }
  sim.run();
  EXPECT_EQ(done.remaining(), 0u);
  for (auto& w : instances) {
    EXPECT_TRUE(w.verify()) << w.name << " baseline";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, FunctionalPath,
    ::testing::Combine(
        ::testing::ValuesIn(workloads::functional_workload_names()),
        ::testing::Values(1, 3)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Protocol behaviour
// ---------------------------------------------------------------------------

TEST(GvmProtocol, BarrierFlushesAllStreamsTogether) {
  auto w = workloads::functional_vecadd(1024);
  RunResult r = run_virtualized(fast_c2070(), default_config(), w.plan,
                                /*rounds=*/3, /*nprocs=*/4);
  // With barriers: one flush per round, regardless of client count.
  EXPECT_EQ(r.gvm.flushes, 3);
  EXPECT_EQ(r.device.ctx_switches, 0);
}

TEST(GvmProtocol, NoBarrierFlushesPerClient) {
  auto w = workloads::functional_vecadd(1024);
  GvmConfig config = default_config();
  config.use_barriers = false;
  RunResult r = run_virtualized(fast_c2070(), config, w.plan, 3, 4);
  EXPECT_EQ(r.gvm.flushes, 3 * 4);
}

TEST(GvmProtocol, LongKernelsProduceWaitResponses) {
  workloads::Workload w = workloads::npb_ep(22);  // ~35 ms of compute
  RunResult r = run_virtualized(fast_c2070(), default_config(), w.plan, 1, 2);
  EXPECT_GT(r.client_waits, 0);
  EXPECT_EQ(r.gvm.waits_sent, r.client_waits);
}

TEST(GvmProtocol, StagedByteCountsMatchPlan) {
  auto w = workloads::functional_vecadd(4096);
  RunResult r = run_virtualized(fast_c2070(), default_config(), w.plan, 2, 3);
  EXPECT_EQ(r.gvm.bytes_staged_in, 2 * 3 * w.plan.bytes_in);
  EXPECT_EQ(r.gvm.bytes_staged_out, 2 * 3 * w.plan.bytes_out);
}

TEST(GvmProtocol, ReleaseFreesDeviceMemory) {
  des::Simulator sim;
  gpu::Device device(sim, fast_c2070());
  vcuda::Runtime runtime(sim, device);
  GvmConfig config = default_config();
  config.expected_clients = 1;
  Gvm gvm(sim, runtime, config);
  gvm.start();
  auto w = workloads::functional_vecadd(1024);
  sim.spawn([](des::Simulator& s, Gvm& gvm,
               workloads::FunctionalWorkload& w) -> des::Task<> {
    co_await gvm.ready().wait();
    VGpuClient client(s, gvm, 0);
    co_await client.run_task(w.plan, 1);
  }(sim, gvm, w));
  sim.run();
  EXPECT_EQ(device.memory_used(), 0);  // RLS freed both buffers
}





TEST(GvmProtocol, PinnedStagingReservedPerClientAndReleased) {
  des::Simulator sim;
  gpu::Device device(sim, fast_c2070());
  vcuda::Runtime runtime(sim, device);
  GvmConfig config = default_config();
  config.expected_clients = 2;
  Gvm gvm(sim, runtime, config);
  gvm.start();
  auto w0 = workloads::functional_vecadd(1024);
  auto w1 = workloads::functional_vecadd(1024);
  Bytes pinned_during = -1;
  des::Barrier sync(sim, 2);
  for (int c = 0; c < 2; ++c) {
    sim.spawn([](des::Simulator& s, Gvm& gvm, vcuda::Runtime& rt,
                 workloads::FunctionalWorkload& w, int id,
                 des::Barrier& sync, Bytes& pinned) -> des::Task<> {
      co_await gvm.ready().wait();
      VGpuClient client(s, gvm, id);
      co_await client.req(w.plan);
      co_await sync.arrive_and_wait();
      if (id == 0) pinned = rt.pinned_ledger().used();
      co_await client.snd();
      co_await client.str();
      co_await client.wait_done();
      co_await client.rcv();
      co_await client.rls();
    }(sim, gvm, runtime, c == 0 ? w0 : w1, c, sync, pinned_during));
  }
  sim.run();
  // Two clients x (8 KiB in + 4 KiB out).
  EXPECT_EQ(pinned_during, 2 * (w0.plan.bytes_in + w0.plan.bytes_out));
  EXPECT_EQ(runtime.pinned_ledger().used(), 0);  // released at RLS
}

TEST(GvmProtocol, FlushOrderPolicyControlsEngineOrder) {
  // Two clients with different transfer sizes; the flush-order policy
  // decides whose H2D hits the engine first.
  auto run_with = [](FlushOrder order) {
    des::Simulator sim;
    gpu::Device device(sim, fast_c2070());
    gpu::Timeline timeline;
    device.set_timeline(&timeline);
    vcuda::Runtime runtime(sim, device);
    GvmConfig config = default_config();
    config.expected_clients = 2;
    config.flush_order = order;
    Gvm gvm(sim, runtime, config);
    gvm.start();
    const Bytes sizes[2] = {1 * kMiB, 32 * kMiB};
    for (int c = 0; c < 2; ++c) {
      sim.spawn([](des::Simulator& s, Gvm& gvm, int id,
                   Bytes bytes) -> des::Task<> {
        co_await gvm.ready().wait();
        TaskPlan plan;
        plan.bytes_in = bytes;
        gpu::KernelLaunch l;
        l.name = "k";
        l.geometry = gpu::KernelGeometry{2, 64, 8, 0};
        l.cost = gpu::KernelCost{1e4, 0.0, 1.0};
        plan.kernels = {l};
        VGpuClient client(s, gvm, id);
        co_await client.run_task(std::move(plan), 1);
      }(sim, gvm, c, sizes[c]));
    }
    sim.run();
    // First recorded H2D copy identifies who went first.
    for (const gpu::TraceEvent& e : timeline.events()) {
      if (e.category == "copy") return e.name;
    }
    return std::string("none");
  };
  EXPECT_NE(run_with(FlushOrder::kSmallestFirst).find("1.00 MiB"),
            std::string::npos);
  EXPECT_NE(run_with(FlushOrder::kLargestFirst).find("32.00 MiB"),
            std::string::npos);
}

TEST(GvmProtocol, WorksUnderExclusiveComputeMode) {
  // Under exclusive mode the native baseline is impossible for N > 1
  // (only one context may exist) — but the GVM serves everyone through
  // its single context.
  gpu::DeviceSpec spec = fast_c2070();
  spec.compute_mode = gpu::ComputeMode::kExclusive;
  auto w = workloads::functional_vecadd(1024);
  const RunResult r = run_virtualized(spec, default_config(), w.plan, 1, 4);
  EXPECT_GT(r.turnaround, 0);
  EXPECT_EQ(r.device.ctx_creates, 1);
  EXPECT_TRUE(w.verify());
}

// ---------------------------------------------------------------------------
// Suspend / resume (vCUDA-style extension)
// ---------------------------------------------------------------------------

TEST(SuspendResume, StatePreservedAcrossSuspend) {
  auto w = workloads::functional_vecadd(2048);
  des::Simulator sim;
  gpu::Device device(sim, fast_c2070());
  vcuda::Runtime runtime(sim, device);
  GvmConfig config = default_config();
  config.expected_clients = 1;
  Gvm gvm(sim, runtime, config);
  gvm.start();
  Bytes used_while_suspended = -1;
  sim.spawn([](des::Simulator& s, Gvm& gvm, gpu::Device& device,
               workloads::FunctionalWorkload& w,
               Bytes& used) -> des::Task<> {
    co_await gvm.ready().wait();
    VGpuClient client(s, gvm, 0);
    co_await client.req(w.plan);
    co_await client.snd();
    co_await client.str();
    co_await client.wait_done();
    // Suspend after compute, before retrieving: the results live only in
    // device memory at this point.
    co_await client.suspend();
    used = device.memory_used();
    co_await s.delay(milliseconds(10.0));
    co_await client.resume();
    co_await client.rcv();
    co_await client.rls();
  }(sim, gvm, device, w, used_while_suspended));
  sim.run();
  EXPECT_EQ(used_while_suspended, 0);  // device memory fully released
  EXPECT_TRUE(w.verify());             // results survived the round trip
}

TEST(SuspendResume, SuspendWhileBusyPolls) {
  const workloads::Workload w = workloads::npb_ep(22);
  des::Simulator sim;
  gpu::Device device(sim, fast_c2070());
  vcuda::Runtime runtime(sim, device);
  GvmConfig config = default_config();
  config.expected_clients = 1;
  Gvm gvm(sim, runtime, config);
  gvm.start();
  long waits = 0;
  sim.spawn([](des::Simulator& s, Gvm& gvm, const gvm::TaskPlan& plan,
               long& waits) -> des::Task<> {
    co_await gvm.ready().wait();
    VGpuClient client(s, gvm, 0);
    co_await client.req(plan);
    co_await client.snd();
    co_await client.str();
    co_await client.suspend();  // kernel still running: must poll
    waits = client.waits_observed();
    co_await client.resume();
    co_await client.rcv();
    co_await client.rls();
  }(sim, gvm, w.plan, waits));
  sim.run();
  EXPECT_GT(waits, 0);
}

TEST(SuspendResume, FreedMemoryUsableByOtherClients) {
  // Device with just enough memory for one client's buffers: client 0 must
  // suspend before client 1 can be admitted.
  gpu::DeviceSpec spec = fast_c2070();
  spec.global_mem = 16 * kMB;
  const Bytes chunk = 10 * kMB;
  des::Simulator sim;
  gpu::Device device(sim, spec);
  vcuda::Runtime runtime(sim, device);
  GvmConfig config = default_config();
  config.expected_clients = 1;  // no cross-client barrier in this scenario
  Gvm gvm(sim, runtime, config);
  gvm.start();
  bool second_ok = false;
  sim.spawn([](des::Simulator& s, Gvm& gvm, Bytes chunk,
               bool& second_ok) -> des::Task<> {
    co_await gvm.ready().wait();
    TaskPlan plan;
    plan.bytes_in = chunk;
    gpu::KernelLaunch l;
    l.name = "tiny";
    l.geometry = gpu::KernelGeometry{2, 64, 8, 0};
    l.cost = gpu::KernelCost{1e4, 0.0, 1.0};
    plan.kernels = {l};

    VGpuClient first(s, gvm, 0);
    co_await first.req(plan);
    co_await first.snd();
    co_await first.str();
    co_await first.wait_done();
    co_await first.suspend();

    // With first suspended, the same allocation fits for a second client.
    VGpuClient second(s, gvm, 1);
    co_await second.req(plan);
    co_await second.snd();
    co_await second.str();
    co_await second.wait_done();
    co_await second.rcv();
    co_await second.rls();
    second_ok = true;

    co_await first.resume();
    co_await first.rcv();
    co_await first.rls();
  }(sim, gvm, chunk, second_ok));
  sim.run();
  EXPECT_TRUE(second_ok);
  EXPECT_EQ(device.memory_used(), 0);
}



TEST(SuspendResume, ReleaseWhileSuspendedCleansUp) {
  auto w = workloads::functional_vecadd(1024);
  des::Simulator sim;
  gpu::Device device(sim, fast_c2070());
  vcuda::Runtime runtime(sim, device);
  GvmConfig config = default_config();
  config.expected_clients = 1;
  Gvm gvm(sim, runtime, config);
  gvm.start();
  sim.spawn([](des::Simulator& s, Gvm& gvm,
               workloads::FunctionalWorkload& w) -> des::Task<> {
    co_await gvm.ready().wait();
    VGpuClient client(s, gvm, 0);
    co_await client.req(w.plan);
    co_await client.snd();
    co_await client.str();
    co_await client.wait_done();
    co_await client.suspend();
    // Release without resuming: snapshots and staging must be dropped.
    co_await client.rls();
  }(sim, gvm, w));
  sim.run();
  EXPECT_EQ(device.memory_used(), 0);
  EXPECT_EQ(runtime.pinned_ledger().used(), 0);
}

TEST(SuspendResume, AutoSuspendRelievesMemoryPressure) {
  // Device memory holds only two clients' buffers at once; four clients
  // run anyway: the GVM suspends idle residents to admit and flush
  // everyone, transparently resuming them before their own flushes.
  gpu::DeviceSpec spec = fast_c2070();
  spec.global_mem = 64 * kMB;
  const long n = 2 * 1000 * 1000;  // in 16 MB + out 8 MB = 24 MB per client
  constexpr int kClients = 4;

  std::vector<workloads::FunctionalWorkload> instances;
  for (int c = 0; c < kClients; ++c) {
    instances.push_back(workloads::functional_vecadd(n));
  }
  des::Simulator sim;
  gpu::Device device(sim, spec);
  vcuda::Runtime runtime(sim, device);
  GvmConfig config = default_config();
  // Clients proceed independently so earlier ones are idle when later
  // ones hit the allocator.
  config.expected_clients = 1;
  config.use_barriers = false;
  config.auto_suspend_on_pressure = true;
  Gvm gvm(sim, runtime, config);
  gvm.start();
  for (int c = 0; c < kClients; ++c) {
    sim.spawn([](des::Simulator& s, Gvm& gvm,
                 workloads::FunctionalWorkload& w, int id) -> des::Task<> {
      co_await gvm.ready().wait();
      VGpuClient client(s, gvm, id);
      co_await client.req(w.plan);
      co_await client.snd();
      co_await client.str();
      co_await client.wait_done();
      co_await client.rcv();
      // Deliberately no RLS until the end: keeps buffers resident so the
      // next client must trigger a pressure suspend.
      co_await s.delay(milliseconds(200.0));
      co_await client.rls();
    }(sim, gvm, instances[static_cast<std::size_t>(c)], c));
  }
  sim.run();
  for (auto& w : instances) {
    EXPECT_TRUE(w.verify());
  }
  EXPECT_GT(gvm.stats().pressure_suspends, 0);
  EXPECT_EQ(device.memory_used(), 0);
}

// A seeded mix of small functional plans on a device sized to half the
// mix's raw bytes. The allocator rounds every buffer up to 256 B and needs
// one free extent per buffer, so raw-byte admission used to admit REQs
// that then aborted in the allocation; now they are retried.
TEST(GvmAdmission, UnplaceableReqIsRetriedNotAborted) {
  const auto names = workloads::functional_workload_names();
  long retried = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<workloads::FunctionalWorkload> owners;
    std::vector<MixedClient> mix(3 + rng.next_below(6));
    Bytes raw = 0;
    Bytes largest = 0;
    for (MixedClient& c : mix) {
      owners.push_back(
          workloads::make_functional(names[rng.next_below(names.size())]));
      c.plan = owners.back().plan;
      c.rounds = 1 + static_cast<int>(rng.next_below(2));
      c.arrival = microseconds(5.0 * static_cast<double>(rng.next_below(4)));
      raw += c.plan.bytes_in + c.plan.bytes_out;
      largest = std::max(largest, c.plan.bytes_in + c.plan.bytes_out);
    }
    gpu::DeviceSpec spec = fast_c2070();
    // Never below the largest client, rounded: every REQ fits an idle device.
    spec.global_mem = std::max(raw / 2, largest + 512);
    GvmConfig config = default_config();
    config.use_barriers = false;  // backpressured clients join late
    const RunResult r = run_mixed(spec, config, mix);
    EXPECT_EQ(r.per_process.size(), mix.size()) << "seed " << seed;
    EXPECT_EQ(r.admission.admitted, static_cast<long>(mix.size()));
    EXPECT_EQ(r.admission.rejected, 0) << "seed " << seed;
    retried += r.admission.backpressured;
  }
  EXPECT_GT(retried, 0);
}

// ---------------------------------------------------------------------------
// Turnaround invariants (paper Section VI shapes)
// ---------------------------------------------------------------------------

TEST(Turnaround, VirtualizationNeverSlower) {
  const gpu::DeviceSpec spec = gpu::tesla_c2070();
  for (const char* name : {"VectorAdd", "EP"}) {
    const workloads::Workload w = std::string(name) == "VectorAdd"
                                      ? workloads::vector_add(5'000'000)
                                      : workloads::npb_ep(24);
    for (int n : {1, 4, 8}) {
      const RunResult base = run_baseline(spec, w.plan, w.rounds, n);
      const RunResult virt =
          run_virtualized(spec, default_config(), w.plan, w.rounds, n);
      EXPECT_LT(virt.turnaround, base.turnaround)
          << name << " nprocs=" << n;
    }
  }
}

TEST(Turnaround, ComputeIntensiveStaysFlatUnderVirtualization) {
  // Paper Figure 9 (right): EP turnaround is ~constant in N with the GVM
  // because the tiny 4-block grids execute concurrently.
  const gpu::DeviceSpec spec = gpu::tesla_c2070();
  const workloads::Workload w = workloads::npb_ep(24);
  const RunResult one =
      run_virtualized(spec, default_config(), w.plan, w.rounds, 1);
  const RunResult eight =
      run_virtualized(spec, default_config(), w.plan, w.rounds, 8);
  EXPECT_LT(static_cast<double>(eight.turnaround),
            1.4 * static_cast<double>(one.turnaround));
  EXPECT_GE(eight.device.max_open_kernels, 8);
}

TEST(Turnaround, BaselineGrowsLinearlyWithSwitches) {
  const gpu::DeviceSpec spec = gpu::tesla_c2070();
  const workloads::Workload w = workloads::vector_add(5'000'000);
  const RunResult r4 = run_baseline(spec, w.plan, 1, 4);
  const RunResult r8 = run_baseline(spec, w.plan, 1, 8);
  EXPECT_EQ(r4.device.ctx_switches, 3);
  EXPECT_EQ(r8.device.ctx_switches, 7);
  // Slope: one extra task adds ~(Tctx + cycle) (paper Eq. 1).
  const double delta = to_ms(r8.turnaround - r4.turnaround) / 4.0;
  EXPECT_NEAR(delta, to_ms(spec.ctx_switch_time) + 13.6 + 0.4 + 6.7, 8.0);
}

TEST(Turnaround, SingleProcessGainsFromInitElimination) {
  // Paper Section VI: "the performance improvement using one process is due
  // to the elimination of initialization overheads".
  const gpu::DeviceSpec spec = gpu::tesla_c2070();
  const workloads::Workload w = workloads::vector_add(5'000'000);
  const RunResult base = run_baseline(spec, w.plan, 1, 1);
  const RunResult virt =
      run_virtualized(spec, default_config(), w.plan, 1, 1);
  EXPECT_GT(base.turnaround - virt.turnaround,
            static_cast<SimDuration>(0.8 *
                                     static_cast<double>(
                                         spec.device_init_time)));
}


TEST(Turnaround, VirtualizationIsFairAcrossTheWave) {
  // Uniform SPMD wave: under the GVM, process completion times spread by
  // at most ~one pipeline stage (the dominant transfer), not by a whole
  // task cycle plus context switch as in the native case.
  const gpu::DeviceSpec spec = gpu::tesla_c2070();
  const workloads::Workload w = workloads::vector_add(10'000'000);
  const RunResult virt =
      run_virtualized(spec, default_config(), w.plan, w.rounds, 8);
  const RunResult base = run_baseline(spec, w.plan, w.rounds, 8);
  ASSERT_EQ(virt.per_process.size(), 8u);
  // GVM spread: the Figure 5 staircase, (N-1) * MAX(Tin, Tout) ~ 190 ms
  // for 80 MB inputs at 2.944 GB/s.
  EXPECT_NEAR(to_ms(virt.fairness_spread()), 7 * 27.2, 10.0);
  // Native spread: the last process waits through 7 cycles + switches --
  // an order of magnitude worse.
  EXPECT_GT(base.fairness_spread(), 5 * virt.fairness_spread());
}

// ---------------------------------------------------------------------------
// Model agreement (paper Table III methodology)
// ---------------------------------------------------------------------------

TEST(ModelAgreement, MeasuredProfileMatchesSpecOverheads) {
  const gpu::DeviceSpec spec = gpu::tesla_c2070();
  const workloads::Workload w = workloads::vector_add();
  const model::ExecutionProfile p =
      gvm::measure_profile(spec, w.plan, 8, w.name);
  // Tinit = device init + 8 serialized context creations.
  EXPECT_NEAR(to_ms(p.t_init),
              to_ms(spec.device_init_time + 8 * spec.ctx_create_time), 1.0);
  EXPECT_NEAR(to_ms(p.t_ctx_switch), to_ms(spec.ctx_switch_time), 1.0);
  // Table II: 400 MB in at ~2.94 GB/s -> ~136 ms; 200 MB out -> ~67 ms.
  EXPECT_NEAR(to_ms(p.t_data_in), 135.9, 3.0);
  EXPECT_NEAR(to_ms(p.t_data_out), 66.7, 2.0);
  EXPECT_EQ(model::classify(p), model::WorkloadClass::kIoIntensive);
}

TEST(ModelAgreement, SpeedupWithinDeviationBands) {
  // Eq. 5 is an upper-bound model: it ignores the GVM's staging copies
  // (dominant for I/O-heavy tasks) and credits no create/compute overlap in
  // the baseline. EP (no data) tracks the model closely; vector addition
  // deviates by the staging overhead — the same direction and a similar
  // magnitude as the paper's Table III (its measured 2.3 vs a consistent
  // Eq. 5 value of 3.62 is a 57% gap; see EXPERIMENTS.md).
  const gpu::DeviceSpec spec = gpu::tesla_c2070();
  struct Case {
    workloads::Workload w;
    double band_percent;
  };
  const Case cases[] = {{workloads::vector_add(10'000'000), 50.0},
                        {workloads::npb_ep(26), 20.0}};
  for (const auto& c : cases) {
    const model::ExecutionProfile p =
        gvm::measure_profile(spec, c.w.plan, 8, c.w.name);
    const RunResult base = run_baseline(spec, c.w.plan, c.w.rounds, 8);
    const RunResult virt =
        run_virtualized(spec, default_config(), c.w.plan, c.w.rounds, 8);
    const double measured = static_cast<double>(base.turnaround) /
                            static_cast<double>(virt.turnaround);
    const double theoretical = model::speedup(p, 8);
    // The model must over-predict (it is an upper bound) ...
    EXPECT_GT(theoretical, measured) << c.w.name;
    // ... but stay within the expected band.
    EXPECT_LT(deviation_percent(theoretical, measured), c.band_percent)
        << c.w.name;
  }
}

}  // namespace
}  // namespace vgpu::gvm
