#include "live_common.hpp"

#include <sys/resource.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "common/stats.hpp"
#include "jobs.hpp"
#include "obs/residuals.hpp"
#include "rt/messages.hpp"
#include "stats.hpp"

namespace vgpu::bench_e2e {

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double p50_us(const std::vector<double>& ns) {
  return SampleStats(ns).median() / 1e3;
}

/// Chrome trace lanes: clients keep their id, the serve loop and engine
/// workers move to tids that cannot collide with client ids.
long chrome_tid(std::int32_t lane) {
  if (lane >= 0) return lane;
  if (lane == obs::kLaneServer) return 100000;
  return 100001 + (obs::kLaneWorkerBase - lane);
}

void write_chrome_trace(const std::string& path, const TracedWindow& window) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "vgpu-bench: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  std::map<std::int32_t, bool> lanes;
  bool first = true;
  const auto event = [&](const std::string& name, const char* cat,
                         std::int32_t lane, SimTime begin, SimTime end,
                         const std::string& args) {
    lanes[lane] = true;
    out << (first ? "" : ",\n") << "{\"name\":\"" << name << "\",\"cat\":\""
        << cat << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << chrome_tid(lane)
        << ",\"ts\":" << static_cast<double>(begin) / 1e3
        << ",\"dur\":" << static_cast<double>(end - begin) / 1e3
        << ",\"args\":{" << args << "}}";
    first = false;
  };
  for (const TaskSpan& t : window.tasks) {
    event("task " + std::to_string(t.client) + "." + std::to_string(t.round),
          "task", t.client, t.begin, t.end,
          "\"client\":" + std::to_string(t.client) +
              ",\"round\":" + std::to_string(t.round));
  }
  for (const obs::SpanRecord& s : window.server->spans) {
    event(obs::phase_name(s.phase), obs::phase_category(s.phase), s.lane,
          s.begin, s.end, "\"aux\":" + std::to_string(s.aux));
  }
  for (const auto& [lane, unused] : lanes) {
    (void)unused;
    out << (first ? "" : ",\n")
        << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << chrome_tid(lane) << ",\"args\":{\"name\":\""
        << obs::lane_name(lane) << "\"}}";
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

RepResult summarize_rep(std::vector<double> latency_ms, double wall_s,
                        double cpu_s, double setup_s) {
  const SampleStats lat(std::move(latency_ms));
  RepResult r;
  r.ops = static_cast<long>(lat.count());
  const auto n = static_cast<double>(r.ops);
  r.setup_s = setup_s;
  r.ops_per_s = ratio(n, wall_s);
  r.p50_ms = lat.median();
  r.tail_q = tail_quantile(lat.count());
  r.tail_ms = lat.percentile(r.tail_q);
  r.cpu_ms_per_op = ratio(cpu_s * 1e3, n);
  return r;
}

void report_reps(const std::vector<RepResult>& reps, RunReport& report) {
  std::vector<double> setup, ops, p50, tail, cpu;
  long samples = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    setup.push_back(r.setup_s);
    ops.push_back(r.ops_per_s);
    p50.push_back(r.p50_ms);
    tail.push_back(r.tail_ms);
    cpu.push_back(r.cpu_ms_per_op);
    samples += r.ops;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "rep %zu: %.6g ops/s, p50 %.6g ms, p%.1f %.6g ms, "
                  "%.6g cpu ms/op, set-up %.4g s (n=%ld)",
                  i, r.ops_per_s, r.p50_ms, r.tail_q * 100.0, r.tail_ms,
                  r.cpu_ms_per_op, r.setup_s, r.ops);
    report.lines.push_back(line);
  }
  report.set("ops_per_s", median(ops), samples);
  report.set("op_p50_ms", median(p50), samples);
  report.set("op_tail_ms", median(tail), samples);
  report.set("cpu_ms_per_op", median(cpu), samples);
  report.set("setup_s", median(setup), static_cast<long>(reps.size()));
}

ServerSnapshot stop_and_snapshot(rt::RtServer& server) {
  server.stop();
  ServerSnapshot s;
  const rt::RtServerStats& st = server.stats();
  s.requests = st.requests.load();
  s.syscalls_saved = st.syscalls_saved.load();
  s.bytes_copied = st.bytes_copied.load();
  s.serve_cpu_ns = st.serve_cpu_ns.load();
  s.spin_wakeups = st.spin_wakeups.load();
  s.doorbell_blocks = st.doorbell_blocks.load();
  s.ctrl_stp = st.ctrl_stp.load();
  s.ctrl_graph = st.ctrl_graph.load();
  s.graph_replays = st.graph_replays.load();
  s.graph_nodes_run = st.graph_nodes_run.load();
  s.graph_nodes_fused = st.graph_nodes_fused.load();
  for (const auto& bucket : st.batch_depth) s.batches += bucket.load();
  s.sched = server.scheduler().stats();
  s.exec = server.exec_counters();
  if (server.pager() != nullptr) {
    s.pager = server.pager()->counters();
  }
  const obs::Tracer& tracer = server.obs().tracer();
  if (tracer.enabled()) {
    s.spans = tracer.collect();
    s.spans_dropped = tracer.dropped();
  }
  return s;
}

void report_counters(const ServerSnapshot& s, long tasks, RunReport& report) {
  const double n = static_cast<double>(tasks);
  report.set("ipc.syscalls_saved_per_task", ratio(s.syscalls_saved, n),
             tasks);
  report.set("rt.stp_polls_per_task", ratio(s.ctrl_stp, n), tasks);
  report.set("rt.serve_cpu_us_per_task", ratio(s.serve_cpu_ns / 1e3, n),
             tasks);
  report.set("rt.msgs_per_task", ratio(s.requests, n), tasks);
  report.set("rt.batch_depth_mean", ratio(s.requests, s.batches), s.batches);
  report.set("rt.doorbell_blocks_per_task", ratio(s.doorbell_blocks, n),
             tasks);
  report.set("rt.spin_wakeups_per_task", ratio(s.spin_wakeups, n), tasks);
  const SampleStats wait(s.sched.wait_seconds);
  const long grants = static_cast<long>(wait.count());
  report.set("sched.wait_p50_ms", wait.median() * 1e3, grants);
  report.set("sched.wait_p99_ms", wait.percentile(0.99) * 1e3, grants);
  report.set("sched.rotations", static_cast<double>(s.sched.rotations), 1);
  report.set("sched.resident_holds",
             static_cast<double>(s.sched.resident_holds), 1);
  report.set("sched.grants_per_pump", ratio(s.sched.grants, s.sched.pumps),
             s.sched.pumps);
  report.set("exec.shards_per_launch",
             ratio(s.exec.shards_executed, s.exec.launches), s.exec.launches);
  report.set("exec.steals_per_launch", ratio(s.exec.steals, s.exec.launches),
             s.exec.launches);
  report.set("exec.overflow_pushes",
             static_cast<double>(s.exec.overflow_pushes), 1);
  report.set("rt.bytes_copied_per_task", ratio(s.bytes_copied, n), tasks);
  const vmem::PagerCounters& p = s.pager;
  report.set("vmem.page_ins_per_task", ratio(p.page_ins, n), tasks);
  report.set("vmem.page_outs_per_task", ratio(p.page_outs, n), tasks);
  report.set("vmem.faults_per_task", ratio(p.faults, n), tasks);
  report.set("vmem.clean_drop_ratio", ratio(p.clean_drops, p.evicted_pages),
             p.evicted_pages);
  report.set("vmem.prefetch_hit_ratio",
             ratio(p.prefetch_hits, p.prefetch_issued), p.prefetch_issued);
  report.set("vmem.pin_shortfalls", static_cast<double>(p.pin_shortfalls), 1);
  report.set("graph.msgs_per_job", ratio(s.ctrl_graph, s.graph_replays),
             s.graph_replays);
  report.set("graph.fused_ratio",
             ratio(s.graph_nodes_fused, s.graph_nodes_run), s.graph_nodes_run);
}

void report_bare_kernels(std::uint64_t seed, RunReport& report) {
  constexpr int kVecaddCalls = 4001;
  const double vecadd_s =
      bare_seconds(make_job("vecadd", 1024, seed), kVecaddCalls);
  const double sgemm_s = bare_seconds(make_job("sgemm", 256, seed), kBareCalls);
  const double blackscholes_s =
      bare_seconds(make_job("blackscholes", 65536, seed), kBareCalls);
  report.set("kernels.vecadd_us", vecadd_s * 1e6, kVecaddCalls);
  report.set("kernels.sgemm_ms", sgemm_s * 1e3, kBareCalls);
  report.set("kernels.blackscholes_ms", blackscholes_s * 1e3, kBareCalls);
  // 2 n^3 flops per n = 256 multiply, computed from the problem size.
  const double flops = 2.0 * 256.0 * 256.0 * 256.0;
  report.set("kernels.sgemm_gflops_computed", flops / sgemm_s / 1e9,
             kBareCalls);
}

std::size_t ring_capacity_for(long tasks) {
  // The serve thread records the most: queue wait, drains, parks and
  // copies come to well under 32 records per task.
  return std::bit_ceil(static_cast<std::size_t>(tasks) * 32 + 65536);
}

void report_traced(const RunOptions& options, const TracedWindow& window,
                   RunReport& report) {
  const ServerSnapshot& s = *window.server;
  // Only spans that start inside the timed window count: set-up and
  // warm-up ran on the same tracer.
  SimTime lo = kTimeInfinity;
  SimTime hi = 0;
  for (const TaskSpan& t : window.tasks) {
    lo = std::min(lo, t.begin);
    hi = std::max(hi, t.end);
  }
  std::vector<obs::SpanRecord> spans;
  for (const obs::SpanRecord& span : s.spans) {
    if (span.begin >= lo && span.begin < hi) spans.push_back(span);
  }
  std::map<int, std::vector<double>> verb_ns;  // RtOp -> durations
  std::vector<double> copy_in, copy_out, page_in, page_out, graph_ns,
      primary_kernel_ns;
  double worker_busy_ns = 0.0;
  for (const obs::SpanRecord& span : spans) {
    const auto d = static_cast<double>(std::min(span.end, hi) - span.begin);
    switch (span.phase) {
      case obs::Phase::kClientVerb: verb_ns[span.aux].push_back(d); break;
      case obs::Phase::kCopyIn: copy_in.push_back(d); break;
      case obs::Phase::kCopyOut: copy_out.push_back(d); break;
      case obs::Phase::kPageIn: page_in.push_back(d); break;
      case obs::Phase::kPageOut: page_out.push_back(d); break;
      case obs::Phase::kGraph:
        graph_ns.push_back(d);
        if (!window.sharded) worker_busy_ns += d;
        break;
      case obs::Phase::kKernel:
        if (span.aux == window.primary_kernel_id) {
          primary_kernel_ns.push_back(d);
        }
        if (!window.sharded) worker_busy_ns += d;
        break;
      case obs::Phase::kShard:
        if (window.sharded) worker_busy_ns += d;
        break;
      default: break;
    }
  }
  const auto verb = [&](rt::RtOp op) -> const std::vector<double>& {
    return verb_ns[static_cast<int>(op)];
  };
  report.set("rt.verb_us.req", SampleStats(window.req_us).median(),
             static_cast<long>(window.req_us.size()));
  report.set("rt.verb_us.snd", p50_us(verb(rt::RtOp::kSnd)),
             static_cast<long>(verb(rt::RtOp::kSnd).size()));
  report.set("rt.verb_us.str", p50_us(verb(rt::RtOp::kStr)),
             static_cast<long>(verb(rt::RtOp::kStr).size()));
  report.set("rt.verb_us.stp", p50_us(verb(rt::RtOp::kStp)),
             static_cast<long>(verb(rt::RtOp::kStp).size()));
  report.set("rt.verb_us.rcv", p50_us(verb(rt::RtOp::kRcv)),
             static_cast<long>(verb(rt::RtOp::kRcv).size()));
  report.set("rt.verb_us.rls", SampleStats(window.rls_us).median(),
             static_cast<long>(window.rls_us.size()));
  report.set("rt.copy_in_us", p50_us(copy_in),
             static_cast<long>(copy_in.size()));
  report.set("rt.copy_out_us", p50_us(copy_out),
             static_cast<long>(copy_out.size()));
  report.set("vmem.page_in_us", p50_us(page_in),
             static_cast<long>(page_in.size()));
  report.set("vmem.page_out_us", p50_us(page_out),
             static_cast<long>(page_out.size()));
  report.set("graph.replay_us", p50_us(graph_ns),
             static_cast<long>(graph_ns.size()));
  const double window_ns = static_cast<double>(hi - lo);
  report.set("exec.worker_busy_share",
             ratio(worker_busy_ns, window.workers * window_ns),
             static_cast<long>(spans.size()));
  const double kernel_us = p50_us(primary_kernel_ns);
  if (!primary_kernel_ns.empty() && window.primary_bare_s > 0.0) {
    report.set("rt.kernel_overhead_pct",
               (kernel_us / (window.primary_bare_s * 1e6) - 1.0) * 100.0,
               static_cast<long>(primary_kernel_ns.size()));
  }
  for (const obs::KernelResidual& row : obs::compute_residuals(spans)) {
    if (row.kernel_id == window.primary_kernel_id) {
      report.set("model.eq4_residual_pct", row.relative_error() * 100.0,
                 row.tasks);
    }
  }
  report.set("obs.spans_dropped", static_cast<double>(s.spans_dropped),
             static_cast<long>(s.spans.size()));

  const Attribution a = attribute(window.tasks, spans, window.sharded);
  const double tasks = static_cast<double>(a.tasks);
  report.set("attr.task_us", ratio(a.task_ns / 1e3, tasks), a.tasks);
  SimDuration layer_sum = 0;
  std::ostringstream table;
  table << "self time per task, " << options.workload << " (" << a.tasks
        << " tasks, " << a.spans_attached << " spans attached, "
        << a.spans_unmatched << " unmatched):\n";
  char row[128];
  for (int l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    const SimDuration ns = a.self(layer);
    layer_sum += ns;
    report.set(std::string("attr.") + layer_name(layer) + "_us",
               ratio(ns / 1e3, tasks), a.tasks);
    std::snprintf(row, sizeof(row), "  %-13s %12.3f us  %6.2f %%\n",
                  layer_name(layer), ratio(ns / 1e3, tasks),
                  100.0 * ratio(static_cast<double>(ns),
                                static_cast<double>(a.task_ns)));
    table << row;
  }
  std::snprintf(row, sizeof(row), "  %-13s %12.3f us  (layers sum to it: %s)\n",
                "task latency", ratio(a.task_ns / 1e3, tasks),
                layer_sum == a.task_ns ? "yes" : "NO");
  table << row;
  report.set("attr.unattributed_share",
             100.0 * ratio(static_cast<double>(a.self(Layer::kUnattributed)),
                           static_cast<double>(a.task_ns)),
             a.tasks);

  const std::string stem = options.out_dir + "/" + options.workload;
  std::ofstream(stem + ".selftime.txt") << table.str();
  write_chrome_trace(stem + ".trace.json", window);
  std::istringstream lines(table.str());
  for (std::string line; std::getline(lines, line);) {
    report.lines.push_back(line);
  }
  report.lines.push_back("chrome trace: " + stem + ".trace.json");
}

}  // namespace vgpu::bench_e2e
