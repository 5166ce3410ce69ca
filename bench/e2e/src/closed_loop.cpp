// The closed-loop SPMD workloads: two client threads, one connection each,
// run equal fixed rounds against one server (the paper's Sec. VI method:
// every process runs the same task cycle R times). A task is one
// SND -> STR -> STP... -> RCV cycle, timed from SND start to RCV return.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <latch>
#include <mutex>
#include <thread>

#include "common/stats.hpp"
#include "jobs.hpp"
#include "live_common.hpp"
#include "rt/client.hpp"
#include "rt/registry.hpp"

namespace vgpu::bench_e2e {

namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;

struct ClosedSpec {
  const char* workload;
  const char* kernel;
  long size;
  /// Throughput on the reference host (4-vCPU Xeon KVM guest). It sizes
  /// the fixed work of a rep, so reps last about --seconds / kReps there
  /// and every commit is measured on the same work.
  double reference_tasks_per_s;
  int warmup_rounds;  // per client
  long traced_tasks;  // both clients, at --seconds 15
  sched::Policy policy;
  rt::DataPlane plane;
  rt::ExecMode exec;
  bool vmem;
};

const ClosedSpec kSpecs[] = {
    {"spmd_ctl", "vecadd", 1024, 128000.0, 2000, 20000,
     sched::Policy::kBarrierCoFlush, rt::DataPlane::kZeroCopy,
     rt::ExecMode::kSerial, false},
    {"spmd_compute", "sgemm", 256, 520.0, 20, 400,
     sched::Policy::kBarrierCoFlush, rt::DataPlane::kStaged,
     rt::ExecMode::kSharded, false},
    {"vmem_oversub", "blackscholes", 65536, 310.0, 20, 400,
     sched::Policy::kTimeQuantum, rt::DataPlane::kStaged,
     rt::ExecMode::kSerial, true},
};

rt::RtServerConfig server_config(const ClosedSpec& spec,
                                 const std::string& prefix) {
  rt::RtServerConfig config;
  config.prefix = prefix;
  config.workers = kWorkers;
  config.sched.policy = spec.policy;
  // The barrier width is expected_clients; the other policies need 1.
  config.expected_clients =
      spec.policy == sched::Policy::kBarrierCoFlush ? kClients : 1;
  config.transport = ipc::TransportKind::kShmRing;
  config.data_plane = spec.plane;
  config.exec = spec.exec;
  config.max_sessions = 16;
  // A loaded 4-vCPU host must not expire a live client's lease.
  config.lease_timeout = std::chrono::milliseconds(30000);
  config.lease_check_interval = std::chrono::milliseconds(20);
  config.release_linger = std::chrono::milliseconds(20);
  if (spec.vmem) {
    // 2 MiB modeled device, 64 KiB pages: two 1.25 MiB working sets are
    // 1.25x oversubscribed.
    config.vmem.enabled = true;
    config.vmem.page_size = 64 * kKiB;
    config.vmem.device_capacity = 2 * kMiB;
    config.vmem.host_ledger = 64 * kMiB;
  }
  return config;
}

struct Rep {
  bool ok = true;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  long total_tasks = 0;  // warm-up included: the server counters' base
  /// Client c writes round r at [c * rounds + r]: one buffer, sized up
  /// front, so the samples add little to the child's peak RSS.
  std::vector<double> latency_ms;
  std::vector<TaskSpan> tasks;
  std::vector<double> req_us;
  std::vector<double> rls_us;
  ServerSnapshot server;
};

Rep run_rep(const ClosedSpec& spec, const RunOptions& options,
            const std::string& prefix, long rounds, bool traced,
            Progress& progress) {
  Rep rep;
  rep.latency_ms.assign(static_cast<std::size_t>(rounds) * kClients, 0.0);
  const Clock::time_point t0 = Clock::now();
  const KernelJob job = make_job(spec.kernel, spec.size, options.seed);
  rt::RtServerConfig config = server_config(spec, prefix);
  if (traced) {
    config.obs.tracing = true;
    config.obs.ring_capacity =
        ring_capacity_for(rounds * kClients + spec.warmup_rounds * kClients);
  }
  rt::RtServer server(config, rt::builtin_registry());
  const Status started = server.start();
  auto context = rt::RtClientContext::open(prefix);
  if (!started.ok() || !context.ok()) {
    const Status& error = started.ok() ? context.status() : started;
    std::fprintf(stderr, "vgpu-bench: %s: server start failed: %s\n",
                 spec.workload, error.to_string().c_str());
    progress.op(false);
    rep.ok = false;
    return rep;
  }
  obs::Tracer* tracer = traced ? &server.obs().tracer() : nullptr;

  std::latch ready(kClients);
  std::latch go(1);
  std::latch measured(kClients);
  std::atomic<bool> abort{false};
  std::mutex merge_mu;  // guards rep's vectors while clients merge

  const auto client_main = [&](int id) {
    Rep local;
    double* latency_ms =
        rep.latency_ms.data() + static_cast<std::size_t>(id) * rounds;
    rt::RtClientOptions copts;
    copts.transport = ipc::TransportKind::kShmRing;
    copts.tracer = tracer;
    copts.done_timeout = std::chrono::milliseconds(20000);
    auto client = rt::RtClient::connect(*context, id, job.bytes_in,
                                        job.bytes_out, copts);
    const Clock::time_point r0 = Clock::now();
    const bool attached =
        client.ok() && client->req(job.kernel_id, job.params).ok();
    local.req_us.push_back(seconds_since(r0) * 1e6);
    progress.op(attached);
    long round = 0;
    // One task; a timed one stores its latency through `latency`.
    const auto task = [&](double* latency) {
      const int set = static_cast<int>(round & 1);
      std::memcpy(client->input().data(), job.input[set].data(),
                  job.input[set].size());
      const SimTime begin = tracer != nullptr ? tracer->now() : 0;
      const Clock::time_point start = Clock::now();
      const bool verbs = client->snd().ok() && client->str().ok() &&
                         client->wait_done().ok() && client->rcv().ok();
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      const SimTime end = tracer != nullptr ? tracer->now() : 0;
      progress.op(verbs && matches_reference(job, set, client->output()));
      if (!verbs) abort.store(true);
      if (latency != nullptr && verbs) {
        *latency = ms;
        if (tracer != nullptr) {
          local.tasks.push_back(TaskSpan{id, round, begin, end});
        }
      }
      ++round;
      ++local.total_tasks;
    };
    if (!attached) abort.store(true);
    for (int w = 0; w < spec.warmup_rounds && !abort.load(); ++w) {
      task(nullptr);
    }
    ready.count_down();
    go.wait();
    for (long r = 0; r < rounds && !abort.load(); ++r) task(&latency_ms[r]);
    measured.count_down();
    if (attached) {
      const Clock::time_point l0 = Clock::now();
      const bool released = client->rls().ok();
      local.rls_us.push_back(seconds_since(l0) * 1e6);
      progress.op(released);
    }
    std::lock_guard<std::mutex> lock(merge_mu);
    rep.total_tasks += local.total_tasks;
    rep.tasks.insert(rep.tasks.end(), local.tasks.begin(), local.tasks.end());
    rep.req_us.insert(rep.req_us.end(), local.req_us.begin(),
                      local.req_us.end());
    rep.rls_us.insert(rep.rls_us.end(), local.rls_us.begin(),
                      local.rls_us.end());
  };

  std::vector<std::thread> threads;
  for (int id = 0; id < kClients; ++id) threads.emplace_back(client_main, id);
  ready.wait();
  rep.setup_s = seconds_since(t0);
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point m0 = Clock::now();
  go.count_down();
  measured.wait();
  rep.wall_s = seconds_since(m0);
  rep.cpu_s = process_cpu_seconds() - cpu0;
  for (std::thread& t : threads) t.join();
  rep.server = stop_and_snapshot(server);
  rep.ok = !abort.load();
  return rep;
}

}  // namespace

RunReport run_closed_loop(const RunOptions& options, Progress& progress) {
  const ClosedSpec* spec = nullptr;
  for (const ClosedSpec& s : kSpecs) {
    if (options.workload == s.workload) spec = &s;
  }
  RunReport report;
  if (spec == nullptr) return report;
  const auto rounds_for = [&](double seconds) {
    return std::max<long>(
        8, std::lround(spec->reference_tasks_per_s * seconds / kClients));
  };

  if (!options.traced) {
    const long rounds = rounds_for(options.seconds / kReps);
    report.lines.push_back(std::to_string(rounds) + " rounds per client");
    std::vector<RepResult> reps;
    for (int r = 0; r < kReps; ++r) {
      Rep rep = run_rep(*spec, options,
                        options.prefix + "_" + std::to_string(r), rounds,
                        false, progress);
      if (!rep.ok) return report;
      reps.push_back(summarize_rep(std::move(rep.latency_ms), rep.wall_s,
                                   rep.cpu_s, rep.setup_s));
    }
    report_reps(reps, report);
    return report;
  }

  // Per-layer run: counters from an untraced rep, spans from a short
  // traced one on the same server configuration.
  const Rep base = run_rep(*spec, options, options.prefix + "_0",
                           rounds_for(options.seconds / 2), false, progress);
  if (!base.ok) return report;
  report_counters(base.server, base.total_tasks, report);
  report_bare_kernels(options.seed, report);
  const long traced_rounds = std::max<long>(
      8, std::lround(static_cast<double>(spec->traced_tasks) / kClients *
                     std::min(1.0, options.seconds / 15.0)));
  const Rep traced = run_rep(*spec, options, options.prefix + "_1",
                             traced_rounds, true, progress);
  if (!traced.ok) return report;
  TracedWindow window;
  window.server = &traced.server;
  window.tasks = traced.tasks;
  window.sharded = spec->exec == rt::ExecMode::kSharded;
  window.workers = kWorkers;
  window.primary_kernel_id = *rt::builtin_registry().id_of(spec->kernel);
  window.primary_bare_s = bare_seconds(
      make_job(spec->kernel, spec->size, options.seed), kBareCalls);
  window.req_us = traced.req_us;
  window.rls_us = traced.rls_us;
  report_traced(options, window, report);
  report.set("obs.trace_overhead_pct",
             (SampleStats(traced.latency_ms).median() /
                  SampleStats(base.latency_ms).median() -
              1.0) * 100.0,
             static_cast<long>(traced.latency_ms.size()));
  return report;
}

}  // namespace vgpu::bench_e2e
