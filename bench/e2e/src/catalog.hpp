// The benchmark's vocabulary: its workloads and every metric it prints,
// with unit and direction. BENCHMARK.json at the repository root lists the
// same names and units; tests/smoke_check.py fails when the two disagree.
#pragma once

#include <span>
#include <string_view>

namespace vgpu::bench_e2e {

struct WorkloadInfo {
  std::string_view name;
  std::string_view why;
};

inline constexpr WorkloadInfo kWorkloads[] = {
    {"spmd_ctl",
     "vecadd n=1024 zero-copy over the shm ring: task cost is ipc, the rt "
     "serve loop and the sched barrier"},
    {"spmd_compute",
     "sgemm n=256 staged and sharded: exec and kernels dominate, control "
     "cost stays in microseconds"},
    {"vmem_oversub",
     "blackscholes 1.25x oversubscribed under TimeQuantum: page-in and "
     "page-out memcpys run on the grant path"},
    {"mix_open",
     "open-loop bursty lc graph tenant (SLO p99 4 ms), Poisson risk and "
     "closed-loop mqueue legacy under FairShare: jobs queue behind other "
     "tenants"},
    {"des_paper",
     "Fig. 9 and Fig. 16 DES sweeps on one thread: bypasses ipc, rt, exec "
     "and vmem; the golden CSVs are its oracle"},
};

struct MetricInfo {
  std::string_view name;
  std::string_view unit;
  bool higher_is_better;
};

/// End-to-end metrics, measured with tracing off; every workload reports
/// each one (see README.md for what an "op" is per workload).
inline constexpr MetricInfo kEndToEnd[] = {
    {"ops_per_s", "1/s", true},
    {"op_p50_ms", "ms", false},
    {"op_tail_ms", "ms", false},
    {"cpu_ms_per_op", "ms", false},
    {"peak_rss_mb", "MiB", false},
    {"setup_s", "s", false},
};

/// Per-layer metrics, from the traced run. A layer a workload bypasses
/// reads 0 there.
inline constexpr MetricInfo kPerLayer[] = {
    // ipc (the zero-copy SND round trip is rt.verb_us.snd)
    {"ipc.syscalls_saved_per_task", "count", true},
    // rt client
    {"rt.verb_us.req", "us", false},
    {"rt.verb_us.snd", "us", false},
    {"rt.verb_us.str", "us", false},
    {"rt.verb_us.stp", "us", false},
    {"rt.verb_us.rcv", "us", false},
    {"rt.verb_us.rls", "us", false},
    {"rt.stp_polls_per_task", "count", false},
    // rt serve loop
    {"rt.serve_cpu_us_per_task", "us", false},
    {"rt.msgs_per_task", "count", false},
    {"rt.batch_depth_mean", "count", true},
    {"rt.doorbell_blocks_per_task", "count", false},
    {"rt.spin_wakeups_per_task", "count", false},
    // sched
    {"sched.wait_p50_ms", "ms", false},
    {"sched.wait_p99_ms", "ms", false},
    {"sched.rotations", "count", false},
    {"sched.resident_holds", "count", true},
    {"sched.grants_per_pump", "count", true},
    // exec
    {"exec.shards_per_launch", "count", true},
    {"exec.steals_per_launch", "count", false},
    {"exec.overflow_pushes", "count", false},
    {"exec.worker_busy_share", "ratio", true},
    // kernels
    {"kernels.sgemm_ms", "ms", false},
    {"kernels.blackscholes_ms", "ms", false},
    {"kernels.vecadd_us", "us", false},
    {"kernels.sgemm_gflops_computed", "GFLOP/s", true},
    {"rt.kernel_overhead_pct", "%", false},
    // data plane
    {"rt.bytes_copied_per_task", "bytes", false},
    {"rt.copy_in_us", "us", false},
    {"rt.copy_out_us", "us", false},
    // vmem
    {"vmem.page_ins_per_task", "count", false},
    {"vmem.page_outs_per_task", "count", false},
    {"vmem.faults_per_task", "count", false},
    {"vmem.clean_drop_ratio", "ratio", true},
    {"vmem.prefetch_hit_ratio", "ratio", true},
    {"vmem.pin_shortfalls", "count", false},
    {"vmem.page_in_us", "us", false},
    {"vmem.page_out_us", "us", false},
    // rt graph
    {"graph.msgs_per_job", "count", false},
    {"graph.fused_ratio", "ratio", true},
    {"graph.replay_us", "us", false},
    // mix_open tenants and the rate ladder
    {"mix.lc_p99_ms", "ms", false},
    {"mix.slo_attain_pct", "%", true},
    {"mix.max_rate_x", "x", true},
    {"gen.wake_late_p99_us", "us", false},
    {"gen.blocked_late_p99_ms", "ms", false},
    // des / gpu / gvm
    {"des.sweep_wall_s", "s", false},
    {"des.baseline_wall_s", "s", false},
    {"des.virt_wall_s", "s", false},
    {"des.chunks_per_s", "1/s", true},
    {"des.kernels_completed", "count", false},
    {"des.sched_grants", "count", false},
    // model / obs
    {"model.eq4_residual_pct", "%", false},
    {"obs.trace_overhead_pct", "%", false},
    {"obs.spans_dropped", "count", false},
    // self-time attribution of task latency (traced run)
    {"attr.task_us", "us", false},
    {"attr.ipc_us", "us", false},
    {"attr.rt_serve_us", "us", false},
    {"attr.sched_us", "us", false},
    {"attr.data_plane_us", "us", false},
    {"attr.vmem_us", "us", false},
    {"attr.graph_us", "us", false},
    {"attr.exec_us", "us", false},
    {"attr.kernels_us", "us", false},
    {"attr.unattributed_us", "us", false},
    {"attr.unattributed_share", "%", false},
};

inline std::span<const MetricInfo> metric_catalog(bool traced) {
  if (traced) return kPerLayer;
  return kEndToEnd;
}

}  // namespace vgpu::bench_e2e
