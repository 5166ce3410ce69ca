// vgpu-bench: one command that measures the live GVM and the DES end to
// end, with per-layer attribution, over five named workloads (README.md).
//
//   vgpu-bench [--workload=NAME|all] [--seed=N] [--seconds=S] [--trace=0|1]
//              [--smoke] [--calibrate=K] [--out-dir=DIR]
//
// Each workload runs in its own child process, forked before any thread
// exists, under a fresh IPC name prefix. The parent adds what only it can
// see — the child's peak RSS, a crash or a timeout, leaked shm and mqueue
// names — prints every metric with its unit and sample count, and ends
// with one JSON line: {"correct", "attempted", "failed", "metrics"}.
#include <fcntl.h>
#include <malloc.h>
#include <mqueue.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "catalog.hpp"
#include "stats.hpp"
#include "workload.hpp"

using namespace vgpu::bench_e2e;

namespace {

/// The seed changes are developed against, and the one a claimed gain
/// must also hold on, so a gain tuned to one input does not count.
constexpr std::uint64_t kDevSeed = 1;
constexpr std::uint64_t kHoldoutSeed = 7919;

struct Cli {
  std::string workload = "all";
  std::uint64_t seed = kDevSeed;
  double seconds = 15.0;
  bool seconds_set = false;
  bool traced = false;
  bool smoke = false;
  int calibrate = 0;
  std::string out_dir;
};

constexpr const char* kUsage =
    "usage: vgpu-bench [--workload=NAME|all] [--seed=N] [--seconds=S]\n"
    "                  [--trace=0|1] [--smoke] [--calibrate=K] "
    "[--out-dir=DIR]\n"
    "workloads: spmd_ctl spmd_compute vmem_oversub mix_open des_paper\n";

/// Accepts "--flag=value" and "--flag value"; a bare --trace means 1.
bool parse_cli(int argc, char** argv, Cli* cli) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (arg != "--smoke" && arg != "--help" && i + 1 < argc &&
               std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    if (arg == "--help") {
      std::printf("%sdev seed %llu, hold-out seed %llu\n", kUsage,
                  static_cast<unsigned long long>(kDevSeed),
                  static_cast<unsigned long long>(kHoldoutSeed));
      std::exit(0);
    } else if (arg == "--smoke") {
      cli->smoke = true;
    } else if (arg == "--trace") {
      cli->traced = value != "0";
    } else if (value.empty()) {
      std::fprintf(stderr, "vgpu-bench: %s needs a value\n%s", arg.c_str(),
                   kUsage);
      return false;
    } else if (arg == "--workload") {
      cli->workload = value;
    } else if (arg == "--seed") {
      cli->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cli->seconds = std::atof(value.c_str());
      cli->seconds_set = true;
    } else if (arg == "--calibrate") {
      cli->calibrate = std::atoi(value.c_str());
    } else if (arg == "--out-dir") {
      cli->out_dir = value;
    } else {
      std::fprintf(stderr, "vgpu-bench: unknown flag %s\n%s", arg.c_str(),
                   kUsage);
      return false;
    }
  }
  if (cli->smoke && !cli->seconds_set) cli->seconds = 1.0;
  if (!(cli->seconds > 0.0)) {
    std::fprintf(stderr, "vgpu-bench: --seconds must be positive\n");
    return false;
  }
  if (cli->workload != "all") {
    bool known = false;
    for (const WorkloadInfo& w : kWorkloads) known |= w.name == cli->workload;
    if (!known) {
      std::fprintf(stderr, "vgpu-bench: unknown workload '%s'\n",
                   cli->workload.c_str());
      return false;
    }
  }
  return true;
}

/// What the parent learns about one child run.
struct Outcome {
  RunReport report;
  long attempted = 0;
  long failed = 0;
  long leaked_names = 0;
  bool crashed = false;
  bool timed_out = false;
  double peak_rss_mb = 0.0;
  std::string stderr_tail;

  bool correct() const {
    return failed == 0 && leaked_names == 0 && !crashed && !timed_out;
  }
};

RunReport run_workload(const RunOptions& options, Progress& progress) {
  if (options.workload == "mix_open") return run_mix_open(options, progress);
  if (options.workload == "des_paper") return run_des_paper(options, progress);
  return run_closed_loop(options, progress);
}

void write_report(int fd, const RunReport& report) {
  std::ostringstream out;
  out.precision(17);
  for (const std::string& line : report.lines) out << "L " << line << "\n";
  for (const auto& [name, v] : report.metrics) {
    out << "M " << name << " " << v.value << " " << v.samples << "\n";
  }
  const std::string text = out.str();
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
}

void parse_report(const std::string& text, RunReport* report) {
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("L ", 0) == 0) {
      report->lines.push_back(line.substr(2));
    } else if (line.rfind("M ", 0) == 0) {
      std::istringstream fields(line.substr(2));
      std::string name;
      Value v;
      fields >> name >> v.value >> v.samples;
      report->metrics[name] = v;
    }
  }
}

/// Removes and counts POSIX IPC names a run left behind under `prefix`:
/// /dev/shm entries, and the message queues the protocol names (the
/// mqueue filesystem need not be mounted, so those are probed).
long reap_leaked_names(const std::string& prefix) {
  long leaked = 0;
  const std::string stem = prefix.substr(1) + "_";
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/dev/shm", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(stem, 0) != 0) continue;
    ::shm_unlink(("/" + name).c_str());
    ++leaked;
  }
  for (const char* run : {"_0", "_1", "_2", "_3", "_t"}) {
    std::vector<std::string> names = {prefix + run + "_req"};
    for (int k = 0; k < 4; ++k) {
      names.push_back(prefix + run + "_resp" + std::to_string(k));
    }
    for (const std::string& name : names) {
      const mqd_t q = ::mq_open(name.c_str(), O_RDONLY | O_NONBLOCK);
      if (q == static_cast<mqd_t>(-1)) continue;
      ::mq_close(q);
      ::mq_unlink(name.c_str());
      ++leaked;
    }
  }
  return leaked;
}

Outcome run_child(const RunOptions& options, double timeout_s) {
  Outcome outcome;
  void* shared = ::mmap(nullptr, sizeof(Progress), PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (shared == MAP_FAILED) {
    std::perror("vgpu-bench: mmap");
    outcome.crashed = true;
    outcome.attempted = outcome.failed = 1;
    return outcome;
  }
  Progress* progress = new (shared) Progress();
  int result_pipe[2];
  int err_pipe[2];
  if (::pipe(result_pipe) != 0 || ::pipe(err_pipe) != 0) {
    std::perror("vgpu-bench: pipe");
    std::exit(2);
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("vgpu-bench: fork");
    std::exit(2);
  }
  if (pid == 0) {
    ::close(result_pipe[0]);
    ::close(err_pipe[0]);
    ::dup2(err_pipe[1], STDERR_FILENO);
    int code = 0;
    try {
      write_report(result_pipe[1], run_workload(options, *progress));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "vgpu-bench: %s threw: %s\n",
                   options.workload.c_str(), e.what());
      code = 3;
    }
    std::fflush(stderr);
    ::_exit(code);
  }
  ::close(result_pipe[1]);
  ::close(err_pipe[1]);

  std::string result_text, err_text;
  pollfd fds[2] = {{result_pipe[0], POLLIN, 0}, {err_pipe[0], POLLIN, 0}};
  std::string* sinks[2] = {&result_text, &err_text};
  int open_fds = 2;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (open_fds > 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      outcome.timed_out = true;
      ::kill(pid, SIGKILL);
      break;
    }
    if (::poll(fds, 2, static_cast<int>(left.count())) < 0) continue;
    for (int i = 0; i < 2; ++i) {
      if (fds[i].fd < 0 || fds[i].revents == 0) continue;
      char buf[4096];
      const ssize_t n = ::read(fds[i].fd, buf, sizeof(buf));
      if (n <= 0) {
        ::close(fds[i].fd);
        fds[i].fd = -1;
        --open_fds;
        continue;
      }
      sinks[i]->append(buf, static_cast<std::size_t>(n));
      if (i == 1) std::fwrite(buf, 1, static_cast<std::size_t>(n), stderr);
    }
  }
  for (const pollfd& f : fds) {
    if (f.fd >= 0) ::close(f.fd);
  }
  int status = 0;
  rusage usage{};
  ::wait4(pid, &status, 0, &usage);
  outcome.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  outcome.crashed = !WIFEXITED(status) || WEXITSTATUS(status) != 0;
  parse_report(result_text, &outcome.report);
  outcome.attempted = progress->attempted.load();
  outcome.failed = progress->failed.load();
  ::munmap(shared, sizeof(Progress));
  outcome.leaked_names = reap_leaked_names(options.prefix);
  outcome.attempted += outcome.leaked_names;
  outcome.failed += outcome.leaked_names;
  if (outcome.crashed || outcome.timed_out) {
    outcome.attempted = std::max(1L, outcome.attempted);
    outcome.failed = outcome.attempted;
  }
  outcome.stderr_tail =
      err_text.size() > 2000 ? err_text.substr(err_text.size() - 2000)
                             : err_text;
  return outcome;
}

/// The catalog metrics of one run, in catalog order; a metric the run
/// did not produce (a layer the workload bypasses) reads 0.
std::vector<std::pair<MetricInfo, Value>> metrics_of(const Outcome& o,
                                                     bool traced) {
  std::vector<std::pair<MetricInfo, Value>> out;
  for (const MetricInfo& m : metric_catalog(traced)) {
    Value v;
    if (m.name == "peak_rss_mb") {
      v = Value{o.peak_rss_mb, 1};
    } else if (const auto it = o.report.metrics.find(std::string(m.name));
               it != o.report.metrics.end()) {
      v = it->second;
    }
    out.emplace_back(m, v);
  }
  return out;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

std::string default_out_dir() {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string("vgpu-bench-out")
            : (exe.parent_path() / "out").string();
}

RunOptions options_for(const Cli& cli, const std::string& workload,
                       std::uint64_t seed, int index) {
  RunOptions o;
  o.workload = workload;
  o.seed = seed;
  o.seconds = cli.seconds;
  o.traced = cli.traced;
  o.smoke = cli.smoke;
  o.prefix = "/vgpub_" + std::to_string(::getpid()) + "_" +
             std::to_string(index);
  o.out_dir = cli.out_dir;
  return o;
}

/// A child gets twice the run's budget: the measured seconds plus set-up.
double timeout_for(const Cli& cli) { return 2.0 * (cli.seconds + 30.0); }

std::string host_fingerprint_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  utsname uts{};
  ::uname(&uts);
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": \"" + cpu + "\", \"kernel\": \"" + uts.release + "\"}";
}

int calibrate(const Cli& cli) {
  std::ostringstream json;
  json << "{\n  \"host\": " << host_fingerprint_json() << ",\n"
       << "  \"seconds\": " << cli.seconds << ",\n"
       << "  \"runs\": " << cli.calibrate << ",\n"
       << "  \"seeds\": \"" << kDevSeed << ".." << kDevSeed + cli.calibrate - 1
       << "\",\n  \"metrics\": {";
  bool ok = true;
  bool first = true;
  int index = 0;
  for (const WorkloadInfo& w : kWorkloads) {
    if (cli.workload != "all" && cli.workload != w.name) continue;
    std::map<std::string, std::vector<double>> values;
    for (int k = 0; k < cli.calibrate; ++k) {
      Cli untraced = cli;
      untraced.traced = false;
      const Outcome o = run_child(
          options_for(untraced, std::string(w.name), kDevSeed + k, index++),
          timeout_for(cli));
      ok &= o.correct();
      for (const auto& [m, v] : metrics_of(o, false)) {
        values[std::string(m.name)].push_back(v.value);
      }
    }
    for (const MetricInfo& m : kEndToEnd) {
      std::vector<double> vs = values[std::string(m.name)];
      const double med = median(vs);
      const auto q = quartiles(vs);
      const auto [lo, hi] = std::minmax_element(vs.begin(), vs.end());
      const double rel = med != 0.0 ? 1.0 / med : 0.0;
      const double iqr = (q[2] - q[0]) * rel;
      const double spread = (*hi - *lo) * rel;
      // The larger of 5 %, twice the half-range (the full range), and three
      // IQRs, so the bound also holds the spread of ten seeded runs.
      const double bound = std::max({0.05, spread, 3.0 * iqr});
      json << (first ? "\n" : ",\n") << "    \"" << w.name << "/" << m.name
           << "\": {\"median\": " << fmt(med) << ", \"iqr_rel\": " << fmt(iqr)
           << ", \"max_spread_rel\": " << fmt(spread)
           << ", \"bound\": " << fmt(bound) << "}";
      first = false;
      std::printf("%-13s %-14s median %12.6g  iqr %6.2f %%  spread %6.2f %%\n",
                  std::string(w.name).c_str(), std::string(m.name).c_str(),
                  med, 100.0 * iqr, 100.0 * spread);
    }
  }
  json << "\n  }\n}\n";
  const std::string path =
      std::string(VGPU_BENCH_SOURCE_DIR) + "/calibration.json";
  std::ofstream(path) << json.str();
  std::printf("calibration written to %s\n", path.c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's adaptive one, which otherwise
  // keeps freed large blocks in the heap depending on the order threads
  // free them, and makes peak_rss_mb jump by megabytes between runs.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Cli cli;
  if (!parse_cli(argc, argv, &cli)) return 2;
  if (cli.out_dir.empty()) cli.out_dir = default_out_dir();
  std::error_code ec;
  std::filesystem::create_directories(cli.out_dir, ec);
  if (cli.calibrate > 0) return calibrate(cli);

  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::string metrics_json;
  int index = 0;
  for (const WorkloadInfo& w : kWorkloads) {
    if (cli.workload != "all" && cli.workload != w.name) continue;
    const std::string name(w.name);
    const RunOptions options = options_for(cli, name, cli.seed, index++);
    std::printf("== %s (seed %llu, %.4g s, %s) ==\n", name.c_str(),
                static_cast<unsigned long long>(cli.seed), cli.seconds,
                cli.traced ? "traced" : "untraced");
    std::printf("  why: %s\n", std::string(w.why).c_str());
    const Outcome o = run_child(options, timeout_for(cli));
    for (const std::string& line : o.report.lines) {
      std::printf("  %s\n", line.c_str());
    }
    for (const auto& [m, v] : metrics_of(o, cli.traced)) {
      std::printf("  %-30s %16.6f %-8s %-6s n=%ld\n",
                  std::string(m.name).c_str(), v.value,
                  std::string(m.unit).c_str(),
                  m.higher_is_better ? "higher" : "lower", v.samples);
      const std::string key =
          cli.workload == "all" ? name + "/" + std::string(m.name)
                                : std::string(m.name);
      metrics_json += (metrics_json.empty() ? "" : ", ");
      metrics_json += "\"" + key + "\": {\"value\": " + fmt(v.value) +
                      ", \"unit\": \"" + std::string(m.unit) + "\"}";
    }
    std::printf("  ops attempted %ld, failed %ld\n", o.attempted, o.failed);
    if (!o.correct()) {
      std::printf("  FAILED: workload %s, seed %llu:%s%s%s\n", name.c_str(),
                  static_cast<unsigned long long>(cli.seed),
                  o.crashed ? " child crashed" : "",
                  o.timed_out ? " child timed out" : "",
                  o.leaked_names > 0 ? " leaked IPC names" : "");
      if (o.crashed || o.timed_out) {
        std::printf("  stderr tail:\n%s\n", o.stderr_tail.c_str());
      }
    }
    correct &= o.correct();
    attempted += o.attempted;
    failed += o.failed;
    std::fflush(stdout);
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", std::max(1L, attempted), failed,
              metrics_json.c_str());
  return correct ? 0 : 1;
}
