// Shared pieces of the workloads: the end-to-end summary of a timed rep
// (all five), and for the live ones the server snapshot read after stop(),
// the per-layer metrics derived from it, the traced run's span analysis
// (verb times, attribution, residuals) and its Chrome trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "attribution.hpp"
#include "obs/trace.hpp"
#include "rt/server.hpp"
#include "sched/scheduler.hpp"
#include "vmem/pager.hpp"
#include "workload.hpp"

namespace vgpu::bench_e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU time (all threads, user + system), seconds.
double process_cpu_seconds();

/// One timed rep of an untraced run, reduced to the end-to-end metrics.
struct RepResult {
  double setup_s = 0.0;
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  double tail_q = 0.0;  // tail_quantile() of the rep's sample count
  double tail_ms = 0.0;
  double cpu_ms_per_op = 0.0;
  long ops = 0;
};

/// `latency_ms` holds one sample per completed op; `wall_s` and `cpu_s`
/// cover the timed phase only.
RepResult summarize_rep(std::vector<double> latency_ms, double wall_s,
                        double cpu_s, double setup_s);

/// Sets every end-to-end metric but peak_rss_mb (the parent measures it)
/// to its median over `reps`, and prints one line per rep.
void report_reps(const std::vector<RepResult>& reps, RunReport& report);

/// What the benchmark reads from a server, captured after stop(): the
/// counters its public accessors expose and, when tracing, the spans.
struct ServerSnapshot {
  long requests = 0;
  long syscalls_saved = 0;
  long bytes_copied = 0;
  long serve_cpu_ns = 0;
  long spin_wakeups = 0;
  long doorbell_blocks = 0;
  long ctrl_stp = 0;
  long ctrl_graph = 0;
  long graph_replays = 0;
  long graph_nodes_run = 0;
  long graph_nodes_fused = 0;
  long batches = 0;  // serve-loop wakeups that handled at least one request
  sched::SchedStats sched;
  rt::RtExecCounters exec;
  vmem::PagerCounters pager;
  std::vector<obs::SpanRecord> spans;
  long spans_dropped = 0;
};

ServerSnapshot stop_and_snapshot(rt::RtServer& server);

/// Counter-derived per-layer metrics; ratios are over the `tasks` the
/// server ran (warm-up included, as in the counters).
void report_counters(const ServerSnapshot& s, long tasks, RunReport& report);

/// Bare single-thread kernel calls at the closed-loop workloads' sizes
/// (vecadd 1024, sgemm 256, blackscholes 65536) on seeded inputs:
/// kernels.*.
void report_bare_kernels(std::uint64_t seed, RunReport& report);

/// Calls behind a bare kernel time (a median), except vecadd's, which
/// takes about 0.2 us and gets more.
inline constexpr int kBareCalls = 31;

/// The traced window of a live workload.
struct TracedWindow {
  const ServerSnapshot* server = nullptr;
  std::vector<TaskSpan> tasks;
  bool sharded = false;
  int workers = 0;
  /// Kernel whose in-server span is compared with its bare call, at the
  /// size the workload runs it.
  int primary_kernel_id = -1;
  double primary_bare_s = 0.0;
  /// REQ and RLS round trips, timed by the benchmark around req()/rls().
  std::vector<double> req_us;
  std::vector<double> rls_us;
};

/// Span-derived per-layer metrics, the self-time table (report lines and
/// <out_dir>/<workload>.selftime.txt) and <out_dir>/<workload>.trace.json.
void report_traced(const RunOptions& options, const TracedWindow& window,
                   RunReport& report);

/// Tracer ring records per thread for a traced window of `tasks` tasks.
std::size_t ring_capacity_for(long tasks);

}  // namespace vgpu::bench_e2e
