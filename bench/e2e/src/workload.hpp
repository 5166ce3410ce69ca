// One workload run, executed inside its own child process: options in,
// catalog metric values and report lines out.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vgpu::bench_e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured time the run is sized for (fixed work, calibrated on the
  /// reference host so the timed reps add up to about this long).
  double seconds = 15.0;
  /// Per-layer run: one untraced rep for the counters, then a short run
  /// with the server's tracer on for spans and attribution.
  bool traced = false;
  /// Runs a reduced DES sweep (fig16 only); live workloads just scale
  /// with `seconds`.
  bool smoke = false;
  /// Fresh POSIX IPC name prefix ("/vgpub_<pid>_<n>").
  std::string prefix;
  /// Where the traced run writes its Chrome trace and self-time table.
  std::string out_dir;
};

/// Op counters in an anonymous shared mapping: the parent reads them even
/// when the child crashes, and then counts every attempted op as failed.
struct Progress {
  std::atomic<long> attempted{0};
  std::atomic<long> failed{0};

  void op(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
};

struct Value {
  double value = 0.0;
  long samples = 0;
};

struct RunReport {
  std::map<std::string, Value> metrics;  // catalog name -> value
  std::vector<std::string> lines;        // printed before the metrics

  void set(const std::string& name, double value, long samples) {
    metrics[name] = Value{value, samples};
  }
};

/// Timed reps per untraced run; end-to-end values are their medians.
inline constexpr int kReps = 3;

RunReport run_closed_loop(const RunOptions& options, Progress& progress);
RunReport run_mix_open(const RunOptions& options, Progress& progress);
RunReport run_des_paper(const RunOptions& options, Progress& progress);

}  // namespace vgpu::bench_e2e
