// Golden RunResult oracle for the deterministic GVM simulation.
//
// Every field of every RunResult (and of the pool / cluster results) that
// the scenarios below produce is printed as an exact value — integers as
// integers, doubles as hex floats — and compared line by line against
// tests/golden/des_runresult.txt. The matrix targets the schedules a change
// to the DES engine or to the client protocol loops could disturb:
//
//   - every functional workload at n=1 and n=8 under all four policies
//     (the n=8 barrier waves poll at identical instants);
//   - the paper's EP and BlackScholes waves at n=8 (millions of STP polls);
//   - staging copies off and poll interval == message latency, where
//     requests tie at equal timestamps;
//   - memory pressure with auto-suspend, and REQ backpressure (kRetry);
//   - the client SUS loop on a busy stream;
//   - a trace-driven run_mixed mix, run_pool with migration, and
//     run_cluster_ep at 2 nodes.
//
// On a mismatch the test writes the full dump to des_runresult.actual.txt
// in its working directory; copying that file over the golden one is how
// the golden is regenerated after an intentional schedule change.
//
// A second test drives seeded random mixes twice — once with a timeline
// attached, under which every resend loop runs event by event because the
// timeline records each request, and once without, where the GVM computes
// the loops in closed form — and requires identical dumps.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/experiment.hpp"
#include "common/rng.hpp"
#include "des/sync.hpp"
#include "gpu/memory.hpp"
#include "gpu/trace.hpp"
#include "gvm/experiment.hpp"
#include "gvm/pool.hpp"
#include "vcuda/runtime.hpp"
#include "workloads/workloads.hpp"

#ifndef VGPU_GOLDEN_DIR
#error "VGPU_GOLDEN_DIR must point at tests/golden"
#endif

namespace vgpu {
namespace {

class Dump {
 public:
  explicit Dump(std::string* out) : out_(out) {}

  void scope(const std::string& name) { scope_ = name; }
  template <typename T>
    requires std::is_integral_v<T>
  void put(const std::string& field, T value) {
    *out_ += scope_ + " " + field + " " +
             std::to_string(static_cast<long long>(value)) + "\n";
  }
  void put(const std::string& field, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", value);
    *out_ += scope_ + " " + field + " " + buf + "\n";
  }
  template <typename T>
  void list(const std::string& field, const std::vector<T>& values) {
    put(field + ".size", values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      put(field + "[" + std::to_string(i) + "]", values[i]);
    }
  }

  void device(const gpu::DeviceStats& d) {
    put("device.ctx_creates", d.ctx_creates);
    put("device.ctx_switches", d.ctx_switches);
    put("device.kernels_completed", d.kernels_completed);
    put("device.chunks_executed", d.chunks_executed);
    put("device.copies", d.copies);
    put("device.bytes_h2d", static_cast<long long>(d.bytes_h2d));
    put("device.bytes_d2h", static_cast<long long>(d.bytes_d2h));
    put("device.bytes_d2d", static_cast<long long>(d.bytes_d2d));
    put("device.bytes_memset", static_cast<long long>(d.bytes_memset));
    put("device.max_open_kernels", static_cast<long long>(d.max_open_kernels));
    put("device.max_active_cap", d.max_active_cap);
    put("device.kernel_busy", static_cast<long long>(d.kernel_busy));
    put("device.h2d_busy", static_cast<long long>(d.h2d_busy));
    put("device.d2h_busy", static_cast<long long>(d.d2h_busy));
  }

  void gvm(const gvm::GvmStats& g) {
    put("gvm.requests", g.requests);
    put("gvm.flushes", g.flushes);
    put("gvm.waits_sent", g.waits_sent);
    put("gvm.bytes_staged_in", static_cast<long long>(g.bytes_staged_in));
    put("gvm.bytes_staged_out", static_cast<long long>(g.bytes_staged_out));
    put("gvm.pressure_suspends", g.pressure_suspends);
    put("gvm.pressure_resumes", g.pressure_resumes);
    put("gvm.migrations_out", g.migrations_out);
    put("gvm.migrations_in", g.migrations_in);
  }

  void sched(const sched::SchedStats& s) {
    put("sched.admitted", s.admitted);
    put("sched.released", s.released);
    put("sched.failures", s.failures);
    put("sched.migrated", s.migrated);
    put("sched.enqueued", s.enqueued);
    put("sched.grants", s.grants);
    put("sched.batches", s.batches);
    put("sched.pumps", s.pumps);
    put("sched.quanta_granted", s.quanta_granted);
    put("sched.rotations", s.rotations);
    put("sched.resident_holds", s.resident_holds);
    put("sched.aging_promotions", s.aging_promotions);
    list("sched.wait_seconds", s.wait_seconds);
  }

  void admission(const sched::AdmissionStats& a) {
    put("admission.admitted", a.admitted);
    put("admission.rejected", a.rejected);
    put("admission.backpressured", a.backpressured);
    put("admission.evictions", a.evictions);
  }

  void run(const gvm::RunResult& r) {
    put("turnaround", static_cast<long long>(r.turnaround));
    put("pure_gpu_time", static_cast<long long>(r.pure_gpu_time));
    device(r.device);
    gvm(r.gvm);
    sched(r.sched);
    admission(r.admission);
    put("client_waits", r.client_waits);
    std::vector<long long> per_process(r.per_process.begin(),
                                       r.per_process.end());
    list("per_process", per_process);
    put("samples.size", static_cast<long long>(r.samples.size()));
    for (std::size_t i = 0; i < r.samples.size(); ++i) {
      const gvm::RoundSample& s = r.samples[i];
      const std::string at = "samples[" + std::to_string(i) + "].";
      put(at + "client", static_cast<long long>(s.client));
      put(at + "tenant", static_cast<long long>(s.tenant));
      put(at + "released", static_cast<long long>(s.released));
      put(at + "latency", static_cast<long long>(s.latency));
    }
  }

 private:
  std::string* out_;
  std::string scope_;
};

gvm::GvmConfig policy_config(sched::Policy policy) {
  gvm::GvmConfig config;
  config.sched.policy = policy;
  return config;
}

void functional_matrix(Dump& d) {
  const gpu::DeviceSpec spec = gpu::tesla_c2070();
  for (const std::string& name : workloads::functional_workload_names()) {
    for (sched::Policy policy :
         {sched::Policy::kBarrierCoFlush, sched::Policy::kTimeQuantum,
          sched::Policy::kFairShare, sched::Policy::kPriorityAging}) {
      for (int n : {1, 8}) {
        auto w = workloads::make_functional(name);
        d.scope("functional/" + name + "/" + sched::policy_name(policy) +
                "/n" + std::to_string(n));
        d.run(gvm::run_virtualized(spec, policy_config(policy), w.plan,
                                   w.rounds, n));
      }
    }
  }
}

void paper_waves(Dump& d) {
  const gpu::DeviceSpec spec = gpu::tesla_c2070();
  auto ep = workloads::npb_ep();
  d.scope("paper/ep/n8");
  d.run(gvm::run_virtualized(spec, gvm::GvmConfig{}, ep.plan, ep.rounds, 8));
  auto bs = workloads::black_scholes(1'000'000, 40);
  d.scope("paper/blackscholes/n8");
  d.run(gvm::run_virtualized(spec, gvm::GvmConfig{}, bs.plan, bs.rounds, 8));
}

void tie_prone(Dump& d) {
  const gpu::DeviceSpec spec = gpu::tesla_c2070();
  for (const std::string& name : {std::string("vecadd"), std::string("mg")}) {
    auto w = workloads::make_functional(name);
    gvm::GvmConfig no_staging;
    no_staging.model_staging_copies = false;
    d.scope("ties/" + name + "/no_staging/n8");
    d.run(gvm::run_virtualized(spec, no_staging, w.plan, w.rounds, 8));

    gvm::GvmConfig equal;
    equal.poll_interval = equal.msg_latency;
    d.scope("ties/" + name + "/poll_eq_latency/n8");
    d.run(gvm::run_virtualized(spec, equal, w.plan, w.rounds, 8));

    gvm::GvmConfig instant;
    instant.msg_latency = 0;
    d.scope("ties/" + name + "/zero_latency/n8");
    d.run(gvm::run_virtualized(spec, instant, w.plan, w.rounds, 8));

    gvm::GvmConfig unbarriered;
    unbarriered.use_barriers = false;
    d.scope("ties/" + name + "/no_barrier/n8");
    d.run(gvm::run_virtualized(spec, unbarriered, w.plan, w.rounds, 8));
  }
}

/// Eight clients whose footprints oversubscribe a shrunken device about
/// 2:1 (the shape of ablation_sched's oversubscription run), staggered so
/// residents, suspends and backpressure interleave.
std::vector<gvm::MixedClient> pressure_mix() {
  std::vector<gvm::MixedClient> mix;
  for (int i = 0; i < 8; ++i) {
    gvm::MixedClient c;
    c.plan = workloads::vector_add(2'000'000).plan;  // 24 MB each
    c.rounds = 2 + i % 2;
    c.arrival = microseconds(200.0 * i);
    mix.push_back(c);
  }
  return mix;
}

void pressure(Dump& d) {
  gpu::DeviceSpec small = gpu::tesla_c2070();
  small.global_mem = 102 * kMiB;
  gvm::GvmConfig suspend = policy_config(sched::Policy::kTimeQuantum);
  suspend.auto_suspend_on_pressure = true;
  d.scope("pressure/auto_suspend/tq");
  d.run(gvm::run_mixed(small, suspend, pressure_mix()));
  for (sched::Policy policy :
       {sched::Policy::kBarrierCoFlush, sched::Policy::kTimeQuantum,
        sched::Policy::kFairShare, sched::Policy::kPriorityAging}) {
    // Without oversubscription the late arrivals are backpressured (REQ
    // answered kRetry) until earlier residents release; the quota sits
    // just above the footprint.
    gvm::GvmConfig retry = policy_config(policy);
    retry.per_client_quota = 32 * kMiB;
    d.scope(std::string("pressure/req_retry/") + sched::policy_name(policy));
    d.run(gvm::run_mixed(small, retry, pressure_mix()));
  }
}

void trace_mix(Dump& d) {
  std::vector<gvm::MixedClient> mix;
  auto lc = workloads::make_functional("vecadd");
  auto risk = workloads::make_functional("blackscholes");
  auto batch = workloads::make_functional("matmul");
  for (int i = 0; i < 3; ++i) {
    gvm::MixedClient open;
    open.plan = lc.plan;
    open.tenant = 0;
    for (int r = 0; r < 12; ++r) {
      open.releases.push_back(microseconds(37.0 * r + 11.0 * i));
    }
    mix.push_back(open);
  }
  for (int i = 0; i < 2; ++i) {
    gvm::MixedClient closed;
    closed.plan = (i == 0 ? risk : batch).plan;
    closed.rounds = 5;
    closed.think = microseconds(45.0);
    closed.tenant = 1 + i;
    closed.arrival = microseconds(20.0 * i);
    mix.push_back(closed);
  }
  for (sched::Policy policy :
       {sched::Policy::kFairShare, sched::Policy::kPriorityAging,
        sched::Policy::kTimeQuantum}) {
    d.scope(std::string("trace_mix/") + sched::policy_name(policy));
    d.run(gvm::run_mixed(gpu::tesla_c2070(), policy_config(policy), mix));
  }
}

/// The client SUS loop: each client suspends while its kernel still runs,
/// so SUS is answered WAIT until the stream drains.
void sus_loop(Dump& d) {
  des::Simulator sim;
  gpu::Device device(sim, gpu::tesla_c2070());
  vcuda::Runtime runtime(sim, device);
  gvm::GvmConfig config;
  config.use_barriers = false;
  gvm::Gvm gvm(sim, runtime, config);
  gvm.start();
  auto w = workloads::npb_ep(20);
  constexpr int kClients = 4;
  std::vector<long> waits(kClients, 0);
  std::vector<long long> finish(kClients, 0);
  for (int id = 0; id < kClients; ++id) {
    sim.spawn([](des::Simulator& s, gvm::Gvm& g, gvm::TaskPlan plan, int id,
                 long& waits, long long& finish) -> des::Task<> {
      co_await g.ready().wait();
      co_await s.delay(microseconds(40.0 * id));
      gvm::VGpuClient client(s, g, id);
      const Status admitted = co_await client.req(std::move(plan));
      VGPU_ASSERT(admitted.ok());
      co_await client.snd();
      co_await client.str();
      co_await client.suspend();
      co_await client.resume();
      co_await client.str();
      co_await client.wait_done();
      co_await client.rcv();
      co_await client.rls();
      waits = client.waits_observed();
      finish = s.now();
    }(sim, gvm, w.plan, id, waits[static_cast<std::size_t>(id)],
      finish[static_cast<std::size_t>(id)]));
  }
  sim.run();
  d.scope("sus_loop");
  d.list("finish", finish);
  d.list("waits", waits);
  d.device(device.stats());
  d.gvm(gvm.stats());
  d.sched(gvm.scheduler().stats());
}

void pool_migration(Dump& d) {
  gvm::PoolConfig config;
  config.placement.policy = sched::PlacementPolicy::kPack;
  config.rebalance = true;
  config.rebalance_interval = microseconds(500.0);
  config.rebalance_min_gap = 1;
  auto w = workloads::npb_ep(18);
  gvm::PoolClientSpec spec;
  spec.plan = w.plan;
  spec.rounds = 4;
  spec.sessions = 2;
  spec.think = microseconds(100.0);
  std::vector<gvm::PoolClientSpec> clients(6, spec);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i].arrival = microseconds(30.0 * static_cast<double>(i));
  }
  gpu::DeviceSpec fast = gpu::tesla_c2070();
  fast.device_init_time = milliseconds(50.0);
  fast.ctx_create_time = milliseconds(5.0);
  auto r = gvm::run_pool({fast, fast}, config, clients);
  d.scope("pool/pack_rebalance");
  d.put("makespan", static_cast<long long>(r.makespan));
  d.list("session_seconds", r.session_seconds);
  d.put("pool.placements", r.pool.placements);
  d.put("pool.warm_hits", r.pool.warm_hits);
  d.put("pool.cold_moves", r.pool.cold_moves);
  d.put("pool.installs", r.pool.installs);
  d.put("pool.migrations", r.pool.migrations);
  d.put("pool.bounced_migrations", r.pool.bounced_migrations);
  d.put("pool.failed_migrations", r.pool.failed_migrations);
  d.put("pool.rebalance_checks", r.pool.rebalance_checks);
  d.put("pool.migrated_bytes", static_cast<long long>(r.pool.migrated_bytes));
  d.list("pool.per_device_placements", r.pool.per_device_placements);
  d.gvm(r.gvm);
  d.put("sched_migrated", r.sched_migrated);
  d.put("client_waits", r.client_waits);
  std::vector<long long> residual(r.residual_device_bytes.begin(),
                                  r.residual_device_bytes.end());
  d.list("residual_device_bytes", residual);
  std::vector<long long> sched_residual(r.residual_sched_clients.begin(),
                                        r.residual_sched_clients.end());
  d.list("residual_sched_clients", sched_residual);
}

void cluster_ep(Dump& d) {
  cluster::ClusterConfig config;
  config.nodes = 2;
  config.cores_per_node = 4;
  for (bool virtualized : {true, false}) {
    config.virtualized = virtualized;
    auto r = cluster::run_cluster_ep(config, 20);
    d.scope(virtualized ? "cluster/ep/virt" : "cluster/ep/native");
    d.put("turnaround", static_cast<long long>(r.turnaround));
    d.put("bytes_on_wire", static_cast<long long>(r.bytes_on_wire));
    d.put("messages_on_wire", r.messages_on_wire);
    d.put("ctx_switches", r.ctx_switches);
    d.put("reduced.sx", r.reduced.sx);
    d.put("reduced.sy", r.reduced.sy);
    d.put("reduced.pairs_accepted", r.reduced.pairs_accepted);
    d.list("reduced.q", std::vector<long>(r.reduced.q.begin(),
                                          r.reduced.q.end()));
  }
}

/// A seeded random mix: functional plans, clustered arrivals (so clients
/// tie at equal instants), random policy, latency, poll interval, staging
/// and barrier knobs.
struct RandomMix {
  gpu::DeviceSpec spec = gpu::tesla_c2070();
  gvm::GvmConfig config;
  std::vector<gvm::MixedClient> clients;
  std::vector<workloads::FunctionalWorkload> owners;  // keep plans' data
};

RandomMix random_mix(std::uint64_t seed) {
  Rng rng(seed);
  RandomMix mix;
  const sched::Policy policies[] = {
      sched::Policy::kBarrierCoFlush, sched::Policy::kTimeQuantum,
      sched::Policy::kFairShare, sched::Policy::kPriorityAging};
  mix.config.sched.policy = policies[rng.next_below(4)];
  mix.config.sched.quantum = microseconds(50.0 + 50.0 * rng.next_below(6));
  mix.config.sched.hysteresis = microseconds(10.0 * rng.next_below(4));
  const SimDuration latencies[] = {0, microseconds(2.0), microseconds(5.0),
                                   microseconds(20.0)};
  const SimDuration polls[] = {microseconds(5.0), microseconds(20.0),
                               microseconds(7.5)};
  mix.config.msg_latency = latencies[rng.next_below(4)];
  mix.config.poll_interval = polls[rng.next_below(3)];
  mix.config.model_staging_copies = rng.next_below(4) != 0;
  mix.config.use_barriers = rng.next_below(3) != 0;
  const auto names = workloads::functional_workload_names();
  const int n = 2 + static_cast<int>(rng.next_below(7));
  const bool uniform_rounds = rng.next_below(2) == 0;
  // Memory pressure: one plan for everyone on a device that holds about
  // half of them, so late REQs are backpressured (kRetry) until residents
  // release. (Equal footprints keep the freed extents reusable.)
  const bool pressure = rng.next_below(3) == 0;
  const std::string shared = names[rng.next_below(names.size())];
  for (int i = 0; i < n; ++i) {
    mix.owners.push_back(workloads::make_functional(
        pressure ? shared : names[rng.next_below(names.size())]));
    gvm::MixedClient c;
    c.plan = mix.owners.back().plan;
    c.rounds = uniform_rounds ? 2 : 1 + static_cast<int>(rng.next_below(3));
    c.arrival = microseconds(5.0 * static_cast<double>(rng.next_below(4)));
    c.plan.priority = static_cast<int>(rng.next_below(3));
    mix.clients.push_back(c);
  }
  if (pressure) {
    // A strict barrier would wait forever for the backpressured half.
    mix.config.use_barriers = false;
    // Exactly n/2 allocator-aligned footprints: admission counts raw
    // bytes, so any slack could admit a REQ the allocator then refuses.
    auto aligned = [](Bytes b) {
      const Bytes a = gpu::DeviceMemoryAllocator::kAlignment;
      return (b + a - 1) / a * a;
    };
    const gvm::TaskPlan& plan = mix.clients[0].plan;
    mix.spec.global_mem =
        (aligned(plan.bytes_in) + aligned(plan.bytes_out)) * (n / 2);
  }
  return mix;
}

TEST(DesGolden, ElidedResendLoopsMatchTheEventByEventLoops) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const RandomMix mix = random_mix(seed);
    gpu::Timeline timeline;
    std::string polled, elided;
    Dump p(&polled), e(&elided);
    p.run(gvm::run_mixed(mix.spec, mix.config, mix.clients, &timeline));
    e.run(gvm::run_mixed(mix.spec, mix.config, mix.clients));
    ASSERT_EQ(polled, elided) << "seed " << seed;
    ASSERT_GT(timeline.size(), 0u);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(DesGolden, EveryRunResultFieldMatchesTheGolden) {
  std::string out;
  Dump d(&out);
  functional_matrix(d);
  paper_waves(d);
  tie_prone(d);
  pressure(d);
  trace_mix(d);
  sus_loop(d);
  pool_migration(d);
  cluster_ep(d);

  const std::string golden =
      read_file(std::string(VGPU_GOLDEN_DIR) + "/des_runresult.txt");
  if (out == golden) return;
  std::ofstream("des_runresult.actual.txt") << out;
  std::istringstream want(golden), got(out);
  std::string w, g;
  int line = 0, reported = 0;
  while (reported < 20) {
    const bool more_w = static_cast<bool>(std::getline(want, w));
    const bool more_g = static_cast<bool>(std::getline(got, g));
    if (!more_w && !more_g) break;
    ++line;
    if (w != g || more_w != more_g) {
      ADD_FAILURE() << "line " << line << ": golden '" << (more_w ? w : "<eof>")
                    << "' vs actual '" << (more_g ? g : "<eof>") << "'";
      ++reported;
    }
  }
  FAIL() << "RunResult dump differs from the golden (full dump written to "
            "des_runresult.actual.txt)";
}

}  // namespace
}  // namespace vgpu
