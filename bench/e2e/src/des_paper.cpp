// des_paper: the paper's Fig. 9 sweep (vecadd 50M and NPB EP class B, 1-8
// processes) and its Fig. 16 sweep (the five application benchmarks at 8
// processes), run row by row through gvm::run_baseline and then
// gvm::run_virtualized on this one thread; the seed only shuffles the
// rows. Every simulated turnaround, formatted as the figure benches print
// it, must equal the row in golden/ (copied from the fig9/fig16 CSVs), or
// the row counts as a failed op.
//
// The timed op is a whole sweep, the time to regenerate both figures. Its
// 42 runs take from microseconds to a second each, so percentiles over
// single runs or rows would only name whichever run sits at that rank.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "gvm/experiment.hpp"
#include "live_common.hpp"
#include "workloads/workloads.hpp"

namespace vgpu::bench_e2e {

namespace {

/// One full sweep on the reference host; sizes the sweeps per rep.
constexpr double kReferenceSweepSeconds = 3.6;
constexpr int kFig9MaxProcs = 8;
constexpr int kFig16Procs = 8;

struct Row {
  std::string csv;   // golden file stem
  std::string name;  // first CSV column: process count or benchmark name
  const workloads::Workload* workload = nullptr;
  int procs = 1;
};

struct Sweep {
  double wall_s = 0.0;
  double baseline_wall_s = 0.0;
  double virt_wall_s = 0.0;
  double cpu_s = 0.0;
  long rows = 0;
  long chunks = 0;
  long kernels_completed = 0;
  long sched_grants = 0;
};

std::vector<Row> rows(const std::vector<workloads::Workload>& fig9,
                      const std::vector<workloads::Workload>& apps,
                      bool smoke) {
  std::vector<Row> out;
  if (!smoke) {
    const char* csv[] = {"fig9_vecadd", "fig9_ep"};
    for (std::size_t w = 0; w < fig9.size(); ++w) {
      for (int n = 1; n <= kFig9MaxProcs; ++n) {
        out.push_back(Row{csv[w], std::to_string(n), &fig9[w], n});
      }
    }
  }
  for (const workloads::Workload& w : apps) {
    out.push_back(Row{"fig16_speedups", w.name, &w, kFig16Procs});
  }
  return out;
}

/// golden/<csv>.csv, keyed by the row's first column.
std::map<std::string, std::string> load_golden(const std::string& csv) {
  std::map<std::string, std::string> rows;
  const std::string path =
      std::string(VGPU_BENCH_SOURCE_DIR) + "/golden/" + csv + ".csv";
  std::ifstream in(path);
  if (!in) std::fprintf(stderr, "vgpu-bench: missing %s\n", path.c_str());
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) rows[line.substr(0, line.find(','))] = line;
  return rows;
}

/// Runs `order` shuffled by `seed` and checks every row against golden/.
Sweep run_sweep(std::vector<Row> order, std::uint64_t seed,
                Progress& progress) {
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_u64() % i]);
  }
  std::map<std::string, std::map<std::string, std::string>> golden;
  for (const Row& row : order) {
    if (golden.count(row.csv) == 0) golden[row.csv] = load_golden(row.csv);
  }
  Sweep sweep;
  const gpu::DeviceSpec device = gpu::tesla_c2070();
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  for (const Row& row : order) {
    const workloads::Workload& w = *row.workload;
    const Clock::time_point r0 = Clock::now();
    const gvm::RunResult base =
        gvm::run_baseline(device, w.plan, w.rounds, row.procs);
    const Clock::time_point r1 = Clock::now();
    const gvm::RunResult virt = gvm::run_virtualized(
        device, gvm::GvmConfig{}, w.plan, w.rounds, row.procs);
    const Clock::time_point r2 = Clock::now();
    ++sweep.rows;
    sweep.baseline_wall_s += std::chrono::duration<double>(r1 - r0).count();
    sweep.virt_wall_s += std::chrono::duration<double>(r2 - r1).count();
    for (const gvm::RunResult* r : {&base, &virt}) {
      sweep.chunks += r->device.chunks_executed;
      sweep.kernels_completed += r->device.kernels_completed;
    }
    sweep.sched_grants += virt.sched.grants;

    const double base_s = to_seconds(base.turnaround);
    const double virt_s = to_seconds(virt.turnaround);
    const std::string line = row.name + "," + TablePrinter::num(base_s) +
                             "," + TablePrinter::num(virt_s) + "," +
                             TablePrinter::num(base_s / virt_s, 2);
    const auto& expected = golden[row.csv];
    const auto it = expected.find(row.name);
    const bool ok = it != expected.end() && it->second == line;
    if (!ok) {
      std::fprintf(stderr, "vgpu-bench: des_paper %s row '%s' != golden '%s'\n",
                   row.csv.c_str(), line.c_str(),
                   it != expected.end() ? it->second.c_str() : "(missing)");
    }
    progress.op(ok);
  }
  sweep.wall_s = seconds_since(t0);
  sweep.cpu_s = process_cpu_seconds() - cpu0;
  return sweep;
}

}  // namespace

RunReport run_des_paper(const RunOptions& options, Progress& progress) {
  RunReport report;
  const int sweeps_per_rep = std::max(
      1, static_cast<int>(std::lround(options.seconds / kReps /
                                      kReferenceSweepSeconds)));
  const int reps = options.traced ? 1 : kReps;
  std::vector<RepResult> rep_results;
  Sweep last;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<workloads::Workload> fig9 = {workloads::vector_add(),
                                                   workloads::npb_ep(30)};
    const std::vector<workloads::Workload> apps =
        workloads::application_benchmarks();
    const std::vector<Row> all = rows(fig9, apps, options.smoke);
    // Warm-up: the first row of each figure.
    std::vector<Row> warmup;
    for (const Row& row : all) {
      if (std::none_of(warmup.begin(), warmup.end(),
                       [&](const Row& w) { return w.csv == row.csv; })) {
        warmup.push_back(row);
      }
    }
    run_sweep(warmup, options.seed, progress);
    const double setup_s = seconds_since(t0);
    std::vector<double> sweep_ms;
    double wall = 0.0, cpu_s = 0.0;
    for (int s = 0; s < sweeps_per_rep; ++s) {
      last = run_sweep(all,
                       options.seed * 64 +
                           static_cast<std::uint64_t>(r * sweeps_per_rep + s),
                       progress);
      sweep_ms.push_back(last.wall_s * 1e3);
      wall += last.wall_s;
      cpu_s += last.cpu_s;
    }
    rep_results.push_back(
        summarize_rep(std::move(sweep_ms), wall, cpu_s, setup_s));
  }
  if (!options.traced) {
    report.lines.push_back(std::to_string(sweeps_per_rep) +
                           " sweeps per rep");
    report_reps(rep_results, report);
    return report;
  }
  const long n = last.rows;
  report.set("des.sweep_wall_s", last.wall_s, n);
  report.set("des.baseline_wall_s", last.baseline_wall_s, n);
  report.set("des.virt_wall_s", last.virt_wall_s, n);
  report.set("des.chunks_per_s", static_cast<double>(last.chunks) / last.wall_s,
             n);
  report.set("des.kernels_completed",
             static_cast<double>(last.kernels_completed), n);
  report.set("des.sched_grants", static_cast<double>(last.sched_grants), n);
  report_bare_kernels(options.seed, report);
  return report;
}

}  // namespace vgpu::bench_e2e
