// vgpu-sim: single-command driver for sharing experiments.
//
//   vgpu-sim --workload=<name> [--procs=8] [--mode=<m>] [--device=<d>]
//            [--rounds=N] [--sched=<p>] [--quota-mb=N] [--all-modes]
//            [--model]
//
//   workloads:  vecadd ep mm mg blackscholes cg electrostatics
//   modes:      native | virt | remote | remote10g | vm | merge | live
//   devices:    c2070 (default) | c2050 | gtx480 | c1060
//   schedulers: barrier (default) | tq | fair | prio
//
// `--sched` and `--quota-mb` only affect virtualized runs; any value other
// than the default barrier policy also prints the scheduler counter block.
//
// `--devices=N` (N > 1) puts N modeled GPUs behind the front door and
// `--placement=static|pack|spread|locality` picks the policy routing each
// client to one. In DES mode this runs the DevicePoolGvm (src/gvm/pool):
// per-session turnaround percentiles, pool counters and the per-device
// counter block; `--sessions=` sets re-attach sessions per client (the
// locality policy's signal) and `--rebalance` turns on busiest-to-idlest
// client migration at round boundaries. In live mode (with `--vmem`) the
// same flags shard the pager into N memory domains placed at REQ time;
// the per-device block prints each domain's placements, clients and
// paging counters (rt.device<k>.* / vmem.device<k>.* metric labels).
//
// `--mode=live` runs the workload's kernel for real: an in-process GVM
// server plus `--procs` forked client processes speaking the six-verb
// protocol over actual POSIX IPC. `--transport=mq|shm` picks the control
// plane and `--data-plane=staged|zero_copy` the data plane (both default
// to the paper-faithful setting); the run prints the transport counters.
// `--exec=serial|sharded` picks the kernel execution mode (sharded fans
// each launch out over `--workers` via the src/exec engine and prints the
// exec counter block: shards, steals, overlap bytes, per-worker shares).
// `--clients=N` (live mode) switches to a population run: N client
// *threads* sharing one context (sessions in the O(1) slot table, regions
// pooled in the arena on --transport=shm) drive an open-loop server.
// `--arrival=burst|poisson` spaces the request rounds and `--rate=` sets
// the aggregate poisson arrival rate; the run prints the serve-loop
// counter block (ready-set depth, grants per pump, slots recycled). The
// percentile-reporting harness at scale is bench/load_gen
// (docs/scaling.md).
// `--fault-plan=<spec>` (live mode) arms deterministic fault injection on
// both ends: the server consults the spec's server.* / exec.* / device.*
// rules, every forked client rebuilds the same plan for its ctrl.* and
// kill rules, and SIGKILLed clients count as expected chaos casualties
// (the run reports leases expired and clients reclaimed). The spec
// grammar and a replay how-to live in docs/fault.md.
// `--vmem` (live mode) turns on transparent memory oversubscription: a
// modeled device of `--device-mb=` backs page frames of `--page-size=`
// bytes and cold pages spill to a `--host-ledger-mb=` host ledger, so
// more clients fit than the device holds (docs/memory.md). The run
// prints the vmem counter block: faults, page-ins/outs, prefetch hit
// rate, pin shortfalls, and whole-client evictions (zero by design).
// `--metrics-json=<file>` dumps the obs registry; `--trace-out=<file>`
// enables span tracing and writes a Chrome/Perfetto trace plus the
// measured-vs-model residual report (docs/observability.md).
//
// Examples:
//   vgpu-sim --workload=ep --procs=8 --all-modes
//   vgpu-sim --workload=vecadd --mode=virt --procs=4 --model
//   vgpu-sim --workload=mm --mode=virt --sched=tq --quota-mb=512
//   vgpu-sim --workload=vecadd --mode=live --procs=4 --transport=shm
//            --data-plane=zero_copy
//   vgpu-sim --workload=mm --mode=live --procs=2 --exec=sharded --workers=4
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/baselines.hpp"
#include "common/flags.hpp"
#include "fault/fault.hpp"
#include "gvm/experiment.hpp"
#include "gvm/pool.hpp"
#include "obs/obs.hpp"
#include "obs/residuals.hpp"
#include "kernels/electrostatics.hpp"
#include "kernels/ep.hpp"
#include "rt/client.hpp"
#include "rt/registry.hpp"
#include "rt/server.hpp"
#include "workloads/trace/replay.hpp"
#include "workloads/trace/trace.hpp"
#include "workloads/workloads.hpp"

using namespace vgpu;

namespace {

workloads::Workload select_workload(const std::string& name) {
  if (name == "vecadd") return workloads::vector_add();
  if (name == "ep") return workloads::npb_ep();
  if (name == "mm") return workloads::matmul();
  if (name == "mg") return workloads::npb_mg();
  if (name == "blackscholes") return workloads::black_scholes();
  if (name == "cg") return workloads::npb_cg();
  if (name == "electrostatics") return workloads::electrostatics();
  std::fprintf(stderr,
               "unknown workload '%s' (try: vecadd ep mm mg blackscholes "
               "cg electrostatics)\n",
               name.c_str());
  std::exit(2);
}

gpu::DeviceSpec select_device(const std::string& name) {
  if (name == "c2070") return gpu::tesla_c2070();
  if (name == "c2050") return gpu::tesla_c2050();
  if (name == "gtx480") return gpu::gtx480();
  if (name == "c1060") return gpu::tesla_c1060();
  std::fprintf(stderr,
               "unknown device '%s' (try: c2070 c2050 gtx480 c1060)\n",
               name.c_str());
  std::exit(2);
}

/// Runs one sharing mode. For "virt" the full result (scheduler and
/// admission counters included) is copied into `*virt_result` when the
/// caller asks for it.
SimDuration run_mode(const std::string& mode, const gpu::DeviceSpec& spec,
                     const gvm::GvmConfig& gvm_config,
                     const workloads::Workload& w, int rounds, int procs,
                     gvm::RunResult* virt_result = nullptr) {
  if (mode == "native") {
    return gvm::run_baseline(spec, w.plan, rounds, procs).turnaround;
  }
  if (mode == "virt") {
    gvm::RunResult r =
        gvm::run_virtualized(spec, gvm_config, w.plan, rounds, procs);
    const SimDuration turnaround = r.turnaround;
    if (virt_result != nullptr) *virt_result = std::move(r);
    return turnaround;
  }
  if (mode == "remote" || mode == "remote10g") {
    baselines::RemoteGpuConfig config;
    if (mode == "remote10g") config.network_bw = 1.25e9;
    return baselines::run_remote_gpu(spec, config, w.plan, rounds, procs)
        .turnaround;
  }
  if (mode == "vm") {
    return baselines::run_vm_passthrough(spec, baselines::VmConfig{},
                                         w.plan, rounds, procs)
        .turnaround;
  }
  if (mode == "merge") {
    return baselines::run_kernel_merge(spec, w.plan, rounds, procs)
        .turnaround;
  }
  std::fprintf(stderr,
               "unknown mode '%s' (try: native virt remote remote10g vm "
               "merge)\n",
               mode.c_str());
  std::exit(2);
}

/// What one live client runs: a builtin kernel with its params and data
/// footprint, sized so a full --procs wave finishes in well under a second.
struct LiveKernelPlan {
  const char* kernel = nullptr;
  std::int64_t params[4] = {};
  Bytes bytes_in = 0;
  Bytes bytes_out = 0;
};

LiveKernelPlan live_plan(const std::string& workload) {
  LiveKernelPlan plan;
  if (workload == "vecadd") {
    const long n = 1 << 20;
    plan = {"vecadd", {n, 0, 0, 0}, 2 * n * 4, n * 4};
  } else if (workload == "mm") {
    const long n = 256;
    plan = {"sgemm", {n, 0, 0, 0}, 2 * n * n * 4, n * n * 4};
  } else if (workload == "mg") {
    const long n = 32;
    const Bytes cells = static_cast<Bytes>(n) * n * n;
    plan = {"mg_vcycle", {n, 2, 0, 0}, cells * 8, cells * 8};
  } else if (workload == "blackscholes") {
    const long n = 1 << 18;
    plan = {"blackscholes", {n, 0, 0, 0}, 3 * n * 4, 2 * n * 4};
  } else if (workload == "ep") {
    plan = {"ep", {16, 8, 0, 0}, 0,
            static_cast<Bytes>(sizeof(kernels::EpResult))};
  } else if (workload == "electrostatics") {
    const long natoms = 1024, nx = 64, ny = 64;
    plan = {"coulomb_slab",
            {natoms, nx, ny, 0},
            natoms * static_cast<Bytes>(sizeof(kernels::Atom)),
            nx * ny * 4};
  } else {
    std::fprintf(stderr,
                 "workload '%s' has no live kernel (try: vecadd mm mg "
                 "blackscholes ep electrostatics)\n",
                 workload.c_str());
    std::exit(2);
  }
  return plan;
}

/// Per-client footprint for `--clients=` population runs: the same
/// kernels at small sizes, so thousands of concurrent sessions fit one
/// pooled arena (the full-size plans are per-client MBs).
LiveKernelPlan live_population_plan(const std::string& workload) {
  LiveKernelPlan plan;
  if (workload == "vecadd") {
    const long n = 4096;
    plan = {"vecadd", {n, 0, 0, 0}, 2 * n * 4, n * 4};
  } else if (workload == "mm") {
    const long n = 32;
    plan = {"sgemm", {n, 0, 0, 0}, 2 * n * n * 4, n * n * 4};
  } else if (workload == "mg") {
    const long n = 8;
    const Bytes cells = static_cast<Bytes>(n) * n * n;
    plan = {"mg_vcycle", {n, 2, 0, 0}, cells * 8, cells * 8};
  } else if (workload == "blackscholes") {
    const long n = 4096;
    plan = {"blackscholes", {n, 0, 0, 0}, 3 * n * 4, 2 * n * 4};
  } else if (workload == "ep") {
    plan = {"ep", {8, 4, 0, 0}, 0,
            static_cast<Bytes>(sizeof(kernels::EpResult))};
  } else if (workload == "electrostatics") {
    const long natoms = 128, nx = 16, ny = 16;
    plan = {"coulomb_slab",
            {natoms, nx, ny, 0},
            natoms * static_cast<Bytes>(sizeof(kernels::Atom)),
            nx * ny * 4};
  } else {
    std::fprintf(stderr,
                 "workload '%s' has no live kernel (try: vecadd mm mg "
                 "blackscholes ep electrostatics)\n",
                 workload.c_str());
    std::exit(2);
  }
  return plan;
}

void print_live_stats(const rt::RtServer& server);

/// `--devices=N` DES run: the DevicePoolGvm front door over N modeled
/// GPUs (src/gvm/pool). Prints per-session turnaround percentiles, the
/// pool counter block and the per-device placement/residual block.
int run_pool_mode(const Flags& flags, const workloads::Workload& w,
                  const gpu::DeviceSpec& spec, int devices, int procs,
                  int rounds, const gvm::GvmConfig& gvm_config) {
  gvm::PoolConfig config;
  config.gvm = gvm_config;
  if (flags.has("placement") &&
      !sched::parse_placement(flags.get_string("placement"),
                              &config.placement.policy)) {
    std::fprintf(stderr,
                 "unknown placement '%s' (try: static pack spread "
                 "locality)\n",
                 flags.get_string("placement").c_str());
    return 2;
  }
  config.rebalance = flags.get_bool("rebalance");
  const int sessions =
      static_cast<int>(flags.get_long("sessions", 1));
  std::vector<gvm::PoolClientSpec> clients;
  for (int i = 0; i < procs; ++i) {
    gvm::PoolClientSpec client;
    client.plan = w.plan;
    client.rounds = rounds;
    client.sessions = sessions;
    client.think = microseconds(100.0);
    clients.push_back(client);
  }
  const std::vector<gpu::DeviceSpec> specs(
      static_cast<std::size_t>(devices), spec);
  const gvm::PoolRunResult r = gvm::run_pool(specs, config, clients);
  std::printf("  %-10s %10.1f ms  [%d devices, %s placement, "
              "rebalance %s]\n",
              "pool", to_ms(r.makespan), devices,
              sched::placement_name(config.placement.policy),
              config.rebalance ? "on" : "off");
  std::printf("  sessions %zu: p95 %.2f ms, mean %.2f ms\n",
              r.session_seconds.size(), r.p95_seconds() * 1e3,
              r.mean_seconds() * 1e3);
  std::printf("  pool: %ld placements (%ld warm, %ld cold), %ld installs, "
              "%ld migrations (%ld bounced, %ld dropped), %lld B moved\n",
              r.pool.placements, r.pool.warm_hits, r.pool.cold_moves,
              r.pool.installs, r.pool.migrations, r.pool.bounced_migrations,
              r.pool.failed_migrations,
              static_cast<long long>(r.pool.migrated_bytes));
  for (std::size_t d = 0; d < static_cast<std::size_t>(devices); ++d) {
    std::printf("  device %zu: placements %ld, residual %lld B / %zu "
                "sched clients\n",
                d, r.pool.per_device_placements[d],
                static_cast<long long>(r.residual_device_bytes[d]),
                r.residual_sched_clients[d]);
  }
  return 0;
}

/// `--clients=N` population run: N client *threads* through one shared
/// RtClientContext (three kernel objects for the whole population, not
/// 3N) against an open-loop server — no SPMD barrier, sessions slotted
/// into the O(1) table, regions pooled in the arena on the shm
/// transport. `--arrival=` spaces the request rounds: `burst` fires
/// every client together, `poisson` draws per-client exponential gaps
/// at an aggregate `--rate=` arrivals/sec (default 4x clients). The
/// heavier open-loop harness with latency percentiles is bench/load_gen
/// (docs/scaling.md).
int run_live_population(const Flags& flags, rt::RtServerConfig config,
                        const std::string& workload_name, int clients,
                        int rounds, ipc::TransportKind transport) {
  const std::string arrival = flags.get_string("arrival", "burst");
  if (arrival != "burst" && arrival != "poisson") {
    std::fprintf(stderr, "unknown arrival '%s' (try: burst poisson)\n",
                 arrival.c_str());
    return 2;
  }
  const double rate = static_cast<double>(
      flags.get_long("rate", 4L * clients));
  const LiveKernelPlan plan = live_population_plan(workload_name);
  const bool ring = transport == ipc::TransportKind::kShmRing;
  if (!ring && clients > 128) {
    std::fprintf(stderr,
                 "warning: --transport=mq opens one response queue per "
                 "client; fs.mqueue.queues_max will likely cap the "
                 "population (use --transport=shm)\n");
  }

  config.expected_clients = 1;  // open loop: no SPMD wave
  config.max_sessions = clients + 64;
  if (ring) {
    const Bytes slice = rt::vsm_region_size(
        ipc::kTransportCapMqueue | ipc::kTransportCapShmRing,
        plan.bytes_in, plan.bytes_out);
    config.arena_size =
        static_cast<Bytes>(clients + 64) * (slice + 128) * 2;
  }
  config.lease_timeout = std::chrono::milliseconds(30000);
  config.lease_check_interval = std::chrono::milliseconds(20);
  config.release_linger = std::chrono::milliseconds(20);
  rt::RtServer server(config, rt::builtin_registry());
  const Status st = server.start();
  if (!st.ok()) {
    std::fprintf(stderr, "live server start failed: %s\n",
                 st.to_string().c_str());
    return 1;
  }
  auto ctx = rt::RtClientContext::open(config.prefix);
  if (!ctx.ok()) {
    std::fprintf(stderr, "context open failed: %s\n",
                 ctx.status().to_string().c_str());
    return 1;
  }
  auto kid = rt::builtin_registry().id_of(plan.kernel);
  if (!kid.ok()) return 1;

  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<long> completed{0};
  std::atomic<long> failed{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int id = 0; id < clients; ++id) {
    threads.emplace_back([&, id] {
      rt::RtClientOptions options;
      options.transport = transport;
      options.arena = ring;
      options.op_timeout = std::chrono::milliseconds(10000);
      options.max_retries = 8;
      auto client = rt::RtClient::connect(*ctx, id, plan.bytes_in,
                                          plan.bytes_out, options);
      if (!client.ok() || !client->req(*kid, plan.params).ok()) {
        failed.fetch_add(1);
        return;
      }
      if (plan.bytes_in > 0) {  // arena regions exist only post-REQ
        auto* in = reinterpret_cast<float*>(client->input().data());
        for (Bytes i = 0; i < plan.bytes_in / 4; ++i) {
          in[i] = 0.25f * static_cast<float>(i % 64 + 1);
        }
      }
      std::mt19937_64 rng(42ull * 1000003ull + static_cast<unsigned>(id));
      std::exponential_distribution<double> gap(
          rate / static_cast<double>(clients));
      for (int round = 0; round < rounds; ++round) {
        if (arrival == "poisson") {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(gap(rng)));
        }
        if (!client->snd().ok() || !client->str().ok() ||
            !client->wait_done().ok() || !client->rcv().ok()) {
          failed.fetch_add(1);
          return;
        }
        completed.fetch_add(1);
      }
      if (!client->rls().ok()) failed.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  server.stop();

  std::printf("  %-10s %10.1f ms  [%d clients, %s arrivals, %s/%s, "
              "kernel %s]\n",
              "live", wall_ms, clients, arrival.c_str(),
              ipc::transport_name(transport),
              rt::data_plane_name(config.data_plane), plan.kernel);
  std::printf("  open loop: %ld/%ld rounds completed, %ld client "
              "failures\n",
              completed.load(), static_cast<long>(clients) * rounds,
              failed.load());
  print_live_stats(server);
  return failed.load() == 0 ? 0 : 1;
}

/// One forked client process: connect, REQ, then `rounds` full
/// SND/STR/STP/RCV cycles, RLS. With `use_graph` the same round loop is
/// recorded once into a capture scope (the data verbs become client-side
/// no-ops, each STR a chained kernel node) and fired as a single
/// kLaunchGraph verb. Exits 0 on success.
int run_live_client(const std::string& prefix, int id,
                    const LiveKernelPlan& plan, int rounds,
                    ipc::TransportKind transport,
                    const std::string& fault_spec, bool use_graph) {
  rt::RtClientOptions options;
  options.transport = transport;
  // Each forked client rebuilds the injector from the shared spec; the
  // decision function is pure, so every process draws the same schedule.
  std::optional<fault::Injector> injector;
  if (!fault_spec.empty()) {
    auto fault_plan = fault::FaultPlan::parse(fault_spec);
    if (!fault_plan.ok()) return 1;
    injector.emplace(std::move(*fault_plan));
    options.fault = &*injector;
    // Retries must outpace the server's chaos lease (750 ms): a client
    // whose sends are being swallowed has to look like a retrier, not a
    // corpse, or the server expires it mid-backoff.
    options.op_timeout = std::chrono::milliseconds(150);
    options.max_retries = 8;
  }
  auto client = rt::RtClient::connect(prefix, id, plan.bytes_in,
                                      plan.bytes_out, options);
  if (!client.ok()) return 1;
  auto kid = rt::builtin_registry().id_of(plan.kernel);
  if (!kid.ok()) return 1;
  // Deterministic input pattern; mg_vcycle reads doubles, the rest floats.
  if (plan.bytes_in > 0) {
    if (std::string(plan.kernel) == "mg_vcycle") {
      auto* in = reinterpret_cast<double*>(client->input().data());
      for (Bytes i = 0; i < plan.bytes_in / 8; ++i) {
        in[i] = 0.001 * static_cast<double>(i % 1000);
      }
    } else {
      auto* in = reinterpret_cast<float*>(client->input().data());
      for (Bytes i = 0; i < plan.bytes_in / 4; ++i) {
        in[i] = 0.25f * static_cast<float>(i % 64 + 1);
      }
    }
  }
  if (!client->req(*kid, plan.params).ok()) return 1;
  if (use_graph && !client->begin_capture().ok()) return 1;
  for (int round = 0; round < rounds; ++round) {
    if (!client->snd().ok()) return 1;
    if (!client->str().ok()) return 1;
    if (!client->wait_done().ok()) return 1;
    if (!client->rcv().ok()) return 1;
  }
  if (use_graph) {
    if (!client->end_capture().ok()) return 1;
    if (!client->upload_graph(1).ok()) return 1;
    if (!client->launch_graph(1).ok()) return 1;
  }
  return client->rls().ok() ? 0 : 1;
}

/// Prints the live counter blocks from the obs registry — the single
/// source the server's stop() exported every legacy counter into. The
/// field names match the pre-registry output byte-for-byte.
void print_live_stats(const rt::RtServer& server) {
  const obs::Registry& reg = server.obs().metrics();
  const auto cnt = [&reg](const char* name) {
    const obs::Counter* c = reg.find_counter(name);
    return c != nullptr ? c->value() : 0L;
  };
  // "waits" is rt.waits_sent: kWait heartbeats answering resends of a
  // parked STP / graph launch (0 while every job beats op_timeout).
  std::printf("  requests %ld (ring %ld), flushes %ld, jobs %ld, "
              "waits %ld\n",
              cnt("rt.requests"), cnt("rt.ring_requests"), cnt("rt.flushes"),
              cnt("rt.jobs_run"), cnt("rt.waits_sent"));
  std::printf("  ctrl messages: req %ld, snd %ld, str %ld, stp %ld, "
              "rcv %ld, rls %ld, graph %ld\n",
              cnt("rt.ctrl_messages_req"), cnt("rt.ctrl_messages_snd"),
              cnt("rt.ctrl_messages_str"), cnt("rt.ctrl_messages_stp"),
              cnt("rt.ctrl_messages_rcv"), cnt("rt.ctrl_messages_rls"),
              cnt("rt.ctrl_messages_graph"));
  if (cnt("rt.graphs_cached") > 0 || cnt("rt.graph_replays") > 0) {
    std::printf("  graphs: %ld cached (%ld upload chunks), %ld replays, "
                "%ld nodes run (%ld fused), %ld messages saved, "
                "%ld reclaimed\n",
                cnt("rt.graphs_cached"), cnt("rt.graph_uploads"),
                cnt("rt.graph_replays"), cnt("rt.graph_nodes_run"),
                cnt("rt.graph_nodes_fused"), cnt("rt.graph_messages_saved"),
                cnt("rt.graphs_reclaimed"));
  }
  std::printf("  bytes_copied %ld, syscalls_saved %ld, spin_wakeups %ld, "
              "doorbell_blocks %ld\n",
              cnt("rt.bytes_copied"), cnt("rt.syscalls_saved"),
              cnt("rt.spin_wakeups"), cnt("rt.doorbell_blocks"));
  const auto depth_line = [&reg](const char* label, const char* name) {
    std::printf("  %s:", label);
    if (const obs::Histogram* depth = reg.find_histogram(name);
        depth != nullptr) {
      for (std::size_t b = 0; b < depth->buckets(); ++b) {
        const long count = depth->bucket_count(b);
        if (count == 0) continue;
        const long lo = 1L << b;
        std::printf(" [%ld..%ld]=%ld", lo, 2 * lo - 1, count);
      }
    }
    std::printf("\n");
  };
  depth_line("batch depth", "rt.batch_depth");
  // Serve-loop block: the event-driven path's evidence. Ready-set depth
  // is lanes drained per wakeup (O(ready), not O(attached)); grants per
  // pump shows the response batching; the session counters show slot
  // recycling under churn (docs/scaling.md).
  depth_line("ready depth", "rt.ready_depth");
  depth_line("grants/pump", "rt.grants_per_pump");
  std::printf("  sessions: attached %ld, slots recycled %ld, stale "
              "rejected %ld, mailbox acks %ld, arena grants %ld\n",
              cnt("rt.sessions_attached"), cnt("rt.slots_recycled"),
              cnt("rt.stale_sessions"), cnt("rt.mailbox_acks"),
              cnt("rt.arena_grants"));
  const rt::RtExecCounters& e = server.exec_counters();
  std::printf("  exec: %ld launches, %ld shards, %ld steals, "
              "%ld overflow, %ld external jobs, overlap %ld B\n",
              cnt("exec.launches"), cnt("exec.shards_executed"),
              cnt("exec.steals"), cnt("exec.overflow_pushes"),
              cnt("exec.external_jobs"), cnt("rt.overlap_bytes"));
  std::printf("  worker shards:");
  for (std::size_t i = 0; i < e.worker_shards.size(); ++i) {
    if (i + 1 == e.worker_shards.size()) {
      std::printf(" ext=%ld", cnt("exec.worker_shards.external"));
    } else {
      std::printf(" w%zu=%ld",
                  i, cnt(("exec.worker_shards." + std::to_string(i)).c_str()));
    }
  }
  std::printf("\n");
  if (server.config().vmem.enabled) {
    const long issued = cnt("vmem.prefetch_issued");
    const long hits = cnt("vmem.prefetch_hits");
    std::printf("  vmem: %ld faults, %ld page-ins, %ld page-outs "
                "(%ld clean drops), %ld host restores\n",
                cnt("vmem.faults"), cnt("vmem.page_ins"),
                cnt("vmem.page_outs"), cnt("vmem.clean_drops"),
                cnt("vmem.host_restores"));
    std::printf("  vmem: prefetch %ld issued / %ld hit (%.0f%%), "
                "pin shortfalls %ld, whole-client evictions %ld\n",
                issued, hits,
                issued > 0 ? 100.0 * static_cast<double>(hits) /
                                 static_cast<double>(issued)
                           : 0.0,
                cnt("vmem.pin_shortfalls"),
                cnt("vmem.evictions_whole_client"));
    // Per-device counter block (multi-domain paging): where placement
    // routed the sessions and how each domain's pager fared.
    if (server.memory_domains() > 1) {
      const auto scnt = [&reg](const std::string& name) {
        const obs::Counter* c = reg.find_counter(name);
        return c != nullptr ? c->value() : 0L;
      };
      const auto sgauge = [&reg](const std::string& name) {
        const obs::Gauge* g = reg.find_gauge(name);
        return g != nullptr ? static_cast<long>(g->value()) : 0L;
      };
      for (std::size_t d = 0; d < server.memory_domains(); ++d) {
        const std::string dev = "device" + std::to_string(d);
        std::printf("  %s [%s]: placements %ld, clients %ld, faults %ld, "
                    "page-ins %ld, page-outs %ld, resident %ld B\n",
                    dev.c_str(),
                    sched::placement_name(server.config().placement.policy),
                    scnt("rt." + dev + ".placements"),
                    sgauge("rt." + dev + ".clients"),
                    scnt("vmem." + dev + ".faults"),
                    scnt("vmem." + dev + ".page_ins"),
                    scnt("vmem." + dev + ".page_outs"),
                    sgauge("vmem." + dev + ".resident_bytes"));
      }
    }
  }
}

/// Real-machine run: forked clients against an in-process GVM server.
int run_live(const Flags& flags, const std::string& workload_name, int procs,
             int rounds, const gvm::GvmConfig& gvm_config) {
  ipc::TransportKind transport = ipc::TransportKind::kMessageQueue;
  if (flags.has("transport") &&
      !ipc::parse_transport(flags.get_string("transport"), &transport)) {
    std::fprintf(stderr, "unknown transport '%s' (try: mq shm)\n",
                 flags.get_string("transport").c_str());
    return 2;
  }
  rt::DataPlane data_plane = rt::DataPlane::kStaged;
  if (flags.has("data-plane") &&
      !rt::parse_data_plane(flags.get_string("data-plane"), &data_plane)) {
    std::fprintf(stderr,
                 "unknown data plane '%s' (try: staged zero_copy)\n",
                 flags.get_string("data-plane").c_str());
    return 2;
  }
  rt::ExecMode exec = rt::ExecMode::kSerial;
  if (flags.has("exec") &&
      !rt::parse_exec_mode(flags.get_string("exec"), &exec)) {
    std::fprintf(stderr, "unknown exec mode '%s' (try: serial sharded)\n",
                 flags.get_string("exec").c_str());
    return 2;
  }
  const LiveKernelPlan plan = live_plan(workload_name);
  const std::string fault_spec = flags.get_string("fault-plan", "");
  std::optional<fault::Injector> server_faults;
  if (!fault_spec.empty()) {
    auto fault_plan = fault::FaultPlan::parse(fault_spec);
    if (!fault_plan.ok()) {
      std::fprintf(stderr, "bad --fault-plan: %s\n",
                   fault_plan.status().to_string().c_str());
      return 2;
    }
    server_faults.emplace(std::move(*fault_plan));
  }

  rt::RtServerConfig config;
  config.prefix = "/vgpu_live_" + std::to_string(::getpid());
  config.expected_clients = procs;
  config.workers = procs < 4 ? procs : 4;
  if (flags.has("workers")) {
    config.workers = static_cast<int>(flags.get_long("workers", config.workers));
  }
  config.sched = gvm_config.sched;
  config.per_client_quota = gvm_config.per_client_quota;
  config.transport = transport;
  config.data_plane = data_plane;
  config.exec = exec;
  // Any vmem knob implies --vmem; the geometry defaults force real paging
  // for the stock workloads (8 vecadd clients ask ~96 MiB of a 64 MiB
  // device) while the ledger keeps the virtual budget comfortable.
  if (flags.get_bool("vmem") || flags.has("page-size") ||
      flags.has("host-ledger-mb") || flags.has("device-mb")) {
    config.vmem.enabled = true;
    config.vmem.page_size =
        static_cast<Bytes>(flags.get_long("page-size", 64 * 1024));
    config.vmem.device_capacity =
        static_cast<Bytes>(flags.get_long("device-mb", 64)) * kMiB;
    config.vmem.host_ledger =
        static_cast<Bytes>(flags.get_long("host-ledger-mb", 256)) * kMiB;
    // Multi-device paging: N memory domains placed at REQ time.
    config.vmem.devices =
        static_cast<int>(flags.get_long("devices", 1));
    if (flags.has("placement") &&
        !sched::parse_placement(flags.get_string("placement"),
                                &config.placement.policy)) {
      std::fprintf(stderr,
                   "unknown placement '%s' (try: static pack spread "
                   "locality)\n",
                   flags.get_string("placement").c_str());
      return 2;
    }
  } else if (flags.get_long("devices", 1) > 1) {
    std::fprintf(stderr,
                 "live --devices=N shards the vmem pager: add --vmem (or "
                 "a vmem knob)\n");
    return 2;
  }
  const std::string metrics_path = flags.get_string("metrics-json", "");
  const std::string trace_path = flags.get_string("trace-out", "");
  // Span tracing is opt-in: a trace file request (or --trace) turns it on.
  config.obs.tracing = !trace_path.empty() || flags.get_bool("trace");
  if (server_faults.has_value()) {
    config.fault = &*server_faults;
    // Chaos runs lean on lease expiry to release the survivors' barrier
    // when a kill rule fires; keep the detection latency demo-friendly.
    config.lease_timeout = std::chrono::milliseconds(750);
    config.lease_check_interval = std::chrono::milliseconds(20);
  }
  if (const int clients = static_cast<int>(flags.get_long("clients", 0));
      clients > 0) {
    // Population mode: threaded open-loop clients instead of forked SPMD
    // processes; --rounds defaults to 1 full verb cycle per client.
    const int pop_rounds =
        static_cast<int>(flags.get_long("rounds", 1));
    return run_live_population(flags, std::move(config), workload_name,
                               clients, pop_rounds, transport);
  }
  rt::RtServer server(config, rt::builtin_registry());
  const Status st = server.start();
  if (!st.ok()) {
    std::fprintf(stderr, "live server start failed: %s\n",
                 st.to_string().c_str());
    return 1;
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<pid_t> children;
  for (int c = 0; c < procs; ++c) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      ::_exit(run_live_client(config.prefix, c, plan, rounds, transport,
                              fault_spec, flags.get_bool("graph")));
    }
    children.push_back(pid);
  }
  bool ok = true;
  int clients_killed = 0;
  for (const pid_t pid : children) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid) {
      ok = false;
      continue;
    }
    if (!fault_spec.empty() && WIFSIGNALED(status) &&
        WTERMSIG(status) == SIGKILL) {
      ++clients_killed;  // a kill rule fired: an expected chaos casualty
      continue;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ok = false;
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  if (clients_killed > 0) {
    // Let the lease sweep detect and reclaim the chaos casualties before
    // stop(), so the recovery counters below reflect the cleanup.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.stats().clients_reclaimed.load() < clients_killed &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  server.stop();

  std::printf("  %-10s %10.1f ms  [%s/%s, kernel %s]\n", "live", wall_ms,
              ipc::transport_name(transport), rt::data_plane_name(data_plane),
              plan.kernel);
  print_live_stats(server);
  if (server_faults.has_value()) {
    // Server-side injector counters (the forked clients' injectors die
    // with their processes; their visible effect is clients_killed and the
    // rt.* recovery counters above).
    std::printf("  fault plan: %s\n",
                server_faults->plan().to_string().c_str());
    std::printf("  fault: %d client(s) killed;", clients_killed);
    for (const fault::Point point : fault::all_points()) {
      const long n = server_faults->occurrences(point);
      if (n > 0) std::printf(" %s=%ld", fault::point_name(point), n);
    }
    std::printf("\n");
    const obs::Counter* leases =
        server.obs().metrics().find_counter("rt.leases_expired");
    const obs::Counter* reclaimed =
        server.obs().metrics().find_counter("rt.clients_reclaimed");
    std::printf("  recovery: leases_expired %ld, clients_reclaimed %ld\n",
                leases != nullptr ? leases->value() : 0L,
                reclaimed != nullptr ? reclaimed->value() : 0L);
  }
  const auto kernel_name = [](int id) {
    const std::string* name = rt::builtin_registry().name_of(id);
    return name != nullptr ? *name : "kernel " + std::to_string(id);
  };
  if (config.obs.tracing) {
    // Phase spans carry the kernel id in aux; name the trace events and
    // residual rows after the kernel they measured.
    const obs::Tracer::NameFn name_fn =
        [&kernel_name](const obs::SpanRecord& span) -> std::string {
      switch (span.phase) {
        case obs::Phase::kCopyIn:
        case obs::Phase::kKernel:
        case obs::Phase::kCopyOut:
        case obs::Phase::kQueueWait:
          return std::string(obs::phase_name(span.phase)) + " " +
                 kernel_name(span.aux);
        default:
          return "";
      }
    };
    if (!trace_path.empty()) {
      const Status ts = server.obs().tracer().write_chrome_trace(trace_path,
                                                                 name_fn);
      if (!ts.ok()) {
        std::fprintf(stderr, "trace write failed: %s\n",
                     ts.to_string().c_str());
        return 1;
      }
      std::printf("  trace: %s (%zu spans, %ld dropped)\n",
                  trace_path.c_str(),
                  server.obs().tracer().collect().size(),
                  server.obs().tracer().dropped());
    }
    const std::vector<obs::KernelResidual> residuals =
        obs::compute_residuals(server.obs().tracer().collect(), kernel_name);
    std::fputs(obs::format_residuals(residuals).c_str(), stdout);
  }
  if (!metrics_path.empty()) {
    const Status ms = server.obs().metrics().write_json(metrics_path);
    if (!ms.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   ms.to_string().c_str());
      return 1;
    }
    std::printf("  metrics: %s\n", metrics_path.c_str());
  }
  if (!ok) {
    std::fprintf(stderr, "live run failed: a client exited non-zero\n");
    return 1;
  }
  return 0;
}

void print_sched_counters(const gvm::RunResult& r, sched::Policy policy) {
  const sched::SchedStats& s = r.sched;
  const sched::AdmissionStats& a = r.admission;
  std::printf("scheduler [%s]: %ld grants in %ld batches, mean wait "
              "%.2f ms, p95 wait %.2f ms\n",
              sched::policy_name(policy), s.grants, s.batches,
              s.mean_wait() * 1e3, s.wait_percentile(0.95) * 1e3);
  std::printf("  quanta %ld, rotations %ld, aging promotions %ld\n",
              s.quanta_granted, s.rotations, s.aging_promotions);
  std::printf("admission: %ld admitted, %ld rejected (over quota), "
              "%ld backpressured, %ld evictions\n",
              a.admitted, a.rejected, a.backpressured, a.evictions);
}

/// `--trace-gen=<mix>`: synthesize a canonical multi-tenant trace and
/// write it to `--trace-file=` (stdout if omitted). `--trace-out=` is
/// already the span-trace flag, hence the distinct spelling.
int run_trace_gen(const Flags& flags) {
  const std::string mix = flags.get_string("trace-gen");
  auto trace = workloads::trace::canonical_mix(
      mix, flags.get_long("horizon-us", 0),
      static_cast<std::uint64_t>(flags.get_long("seed", 42)));
  if (!trace.ok()) {
    std::fprintf(stderr, "trace-gen: %s (try:", trace.status().to_string().c_str());
    for (const auto& name : workloads::trace::canonical_mix_names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }
  const std::string text = trace->serialize();
  const std::string path = flags.get_string("trace-file", "");
  if (path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace-gen: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("wrote %s: mix %s, %zu tenants, %zu ops\n", path.c_str(),
              trace->mix.c_str(), trace->tenants.size(), trace->ops.size());
  return 0;
}

/// `--trace-in=<file>`: replay a trace on the DES path (`--mode=virt`,
/// default) or the live RtServer path (`--mode=live`), printing the
/// per-tenant SLO table.
int run_trace_in(const Flags& flags) {
  std::string text;
  {
    const std::string path = flags.get_string("trace-in");
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) {
      std::fprintf(stderr, "trace-in: cannot read %s\n", path.c_str());
      return 1;
    }
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  auto trace = workloads::trace::parse(text);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace-in: %s\n", trace.status().to_string().c_str());
    return 2;
  }

  sched::SchedulerConfig sched_config;
  const std::string sched_name = flags.get_string("sched", "fair");
  if (!sched::parse_policy(sched_name, &sched_config.policy)) {
    std::fprintf(stderr, "unknown scheduler '%s'\n", sched_name.c_str());
    return 2;
  }

  StatusOr<workloads::trace::ReplayResult> result =
      InvalidArgument("unreached");
  const std::string mode = flags.get_string("mode", "virt");
  if (mode == "virt") {
    const gpu::DeviceSpec spec =
        select_device(flags.get_string("device", "c2070"));
    gvm::GvmConfig config;
    config.sched = sched_config;
    result = workloads::trace::replay_des(*trace, spec, config);
  } else if (mode == "live") {
    workloads::trace::LiveReplayOptions opts;
    opts.sched = sched_config;
    opts.transport = flags.get_string("transport", "shm");
    opts.data_plane = flags.get_string("data-plane", "zero_copy");
    opts.exec = flags.get_string("exec", "serial");
    opts.workers = static_cast<int>(flags.get_long("workers", 2));
    opts.vmem = flags.get_bool("vmem");
    opts.vmem_device_mb = flags.get_long("device-mb", 64);
    result = workloads::trace::replay_live(*trace, opts);
  } else {
    std::fprintf(stderr, "trace-in supports --mode=virt or --mode=live\n");
    return 2;
  }
  if (!result.ok()) {
    std::fprintf(stderr, "trace replay failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  std::printf("mix %s on %s (%s): %zu ops replayed\n", trace->mix.c_str(),
              mode.c_str(), sched_name.c_str(), trace->ops.size());
  std::printf("%s", result->report.format_table().c_str());
  if (mode == "live") {
    std::printf("errors %ld | leaked slots %ld | leaked segments %ld\n",
                result->errors, result->leaked_slots,
                result->leaked_segments);
  }
  return result->errors > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("trace-gen")) return run_trace_gen(flags);
  if (flags.has("trace-in")) return run_trace_in(flags);
  if (!flags.has("workload")) {
    std::printf(
        "usage: %s --workload=<vecadd|ep|mm|mg|blackscholes|cg|"
        "electrostatics>\n"
        "          [--procs=8] [--rounds=<default>] [--device=c2070]\n"
        "          [--mode=native|virt|remote|remote10g|vm|merge|live]\n"
        "          [--sched=barrier|tq|fair|prio] [--quota-mb=<N>]\n"
        "          [--devices=<N>] [--placement=static|pack|spread|"
        "locality]\n"
        "          [--sessions=<N>] [--rebalance]\n"
        "          [--transport=mq|shm] [--data-plane=staged|zero_copy]\n"
        "          [--exec=serial|sharded] [--workers=<N>] [--graph]\n"
        "          [--clients=<N>] [--arrival=burst|poisson] [--rate=<N/s>]\n"
        "          [--vmem] [--page-size=<bytes>] [--device-mb=<N>]\n"
        "          [--host-ledger-mb=<N>]\n"
        "          [--metrics-json=<file>] [--trace-out=<file>]\n"
        "          [--fault-plan=<spec>] [--all-modes] [--model]\n"
        "       %s --trace-gen=<mix> [--trace-file=<out>] [--seed=S]\n"
        "          [--horizon-us=N]\n"
        "       %s --trace-in=<file> [--mode=virt|live] [--sched=...]\n"
        "          [--transport=...] [--exec=...] [--vmem]\n",
        flags.program().c_str(), flags.program().c_str(),
        flags.program().c_str());
    return flags.positional().empty() && argc <= 1 ? 0 : 2;
  }

  const workloads::Workload w =
      select_workload(flags.get_string("workload"));
  const gpu::DeviceSpec spec =
      select_device(flags.get_string("device", "c2070"));
  const int procs = static_cast<int>(flags.get_long("procs", 8));
  const int rounds = static_cast<int>(flags.get_long("rounds", w.rounds));

  gvm::GvmConfig gvm_config;
  const std::string sched_name = flags.get_string("sched", "barrier");
  if (!sched::parse_policy(sched_name, &gvm_config.sched.policy)) {
    std::fprintf(stderr,
                 "unknown scheduler '%s' (try: barrier tq fair prio)\n",
                 sched_name.c_str());
    return 2;
  }
  gvm_config.per_client_quota =
      static_cast<Bytes>(flags.get_long("quota-mb", 0)) * kMiB;
  // The counter block is noise for the default paper configuration; print
  // it whenever the user picked a policy, a quota, or asked for virt.
  const bool show_sched_counters =
      flags.has("sched") || flags.has("quota-mb");

  std::printf("workload %s, %d processes, %d round(s), device %s\n",
              w.name.c_str(), procs, rounds, spec.name.c_str());

  if (flags.get_string("mode", "virt") == "live" &&
      !flags.get_bool("all-modes")) {
    return run_live(flags, flags.get_string("workload"), procs, rounds,
                    gvm_config);
  }
  if (const int devices = static_cast<int>(flags.get_long("devices", 1));
      devices > 1 && !flags.get_bool("all-modes")) {
    if (flags.get_string("mode", "virt") != "virt") {
      std::fprintf(stderr, "--devices=N needs --mode=virt or --mode=live\n");
      return 2;
    }
    return run_pool_mode(flags, w, spec, devices, procs, rounds, gvm_config);
  }

  gvm::RunResult virt_result;
  bool ran_virt = false;
  if (flags.get_bool("all-modes")) {
    const SimDuration native =
        run_mode("native", spec, gvm_config, w, rounds, procs);
    std::printf("  %-10s %10.1f ms\n", "native", to_ms(native));
    for (const char* mode : {"virt", "merge", "vm", "remote10g", "remote"}) {
      const SimDuration t =
          run_mode(mode, spec, gvm_config, w, rounds, procs, &virt_result);
      if (std::string(mode) == "virt") ran_virt = true;
      std::printf("  %-10s %10.1f ms  (%.2fx vs native)\n", mode, to_ms(t),
                  static_cast<double>(native) / static_cast<double>(t));
    }
  } else {
    const std::string mode = flags.get_string("mode", "virt");
    const SimDuration t =
        run_mode(mode, spec, gvm_config, w, rounds, procs, &virt_result);
    ran_virt = mode == "virt";
    std::printf("  %-10s %10.1f ms\n", mode.c_str(), to_ms(t));
  }
  if (ran_virt && show_sched_counters) {
    print_sched_counters(virt_result, gvm_config.sched.policy);
  }

  if (flags.get_bool("model")) {
    const model::ExecutionProfile p =
        gvm::measure_profile(spec, w.plan, procs, w.name);
    std::printf("model: Tin %.2f ms, Tcomp %.2f ms, Tout %.2f ms, Tctx "
                "%.1f ms, Tinit %.1f ms -> S(%d) = %.2f, Smax = %.2f [%s]\n",
                to_ms(p.t_data_in), to_ms(p.t_comp), to_ms(p.t_data_out),
                to_ms(p.t_ctx_switch), to_ms(p.t_init), procs,
                model::speedup(p, procs), model::max_speedup(p),
                model::workload_class_name(model::classify(p)));
  }
  return 0;
}
