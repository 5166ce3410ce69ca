// Live SPMD demo: REAL processes sharing a GVM daemon over POSIX IPC.
//
//   $ ./examples/spmd_live [nprocs] [--exec=serial|sharded] [--workers=N]
//                          [--trace-out=<file>]
//
// The parent starts the GVM server (message-queue control plane, worker
// pool — or, with --exec=sharded, the src/exec work-stealing engine — as
// the functional executor), then fork()s `nprocs` child processes.
// Each child connects to its Virtual GPU, writes a distinct vector-addition
// problem into its virtual shared memory, runs the full
// REQ/SND/STR/STP/RCV/RLS protocol, and verifies the result that came back.
//
// With --trace-out= the server records per-client Tin/Tcomp/Tout phase
// spans, writes them as a Chrome/Perfetto trace, and prints the
// measured-vs-model residual report (docs/observability.md).
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/residuals.hpp"
#include "rt/client.hpp"
#include "rt/registry.hpp"
#include "rt/server.hpp"

using namespace vgpu;

namespace {

constexpr long kElements = 1 << 20;  // 1M floats per vector

int run_child(const std::string& prefix, int id) {
  auto client =
      rt::RtClient::connect(prefix, id, 2 * kElements * 4, kElements * 4);
  if (!client.ok()) {
    std::fprintf(stderr, "[child %d] connect failed: %s\n", id,
                 client.status().to_string().c_str());
    return 1;
  }

  // SPMD: same program, different data per process.
  auto* in = reinterpret_cast<float*>(client->input().data());
  Rng rng(1000 + static_cast<std::uint64_t>(id));
  for (long i = 0; i < 2 * kElements; ++i) {
    in[i] = static_cast<float>(rng.uniform(-100.0, 100.0));
  }

  auto kernel = rt::builtin_registry().id_of("vecadd");
  if (!kernel.ok()) return 1;
  const std::int64_t params[4] = {kElements, 0, 0, 0};

  if (!client->req(*kernel, params).ok()) return 1;
  if (!client->snd().ok()) return 1;
  if (!client->str().ok()) return 1;
  if (!client->wait_done().ok()) return 1;
  if (!client->rcv().ok()) return 1;

  const auto* out = reinterpret_cast<const float*>(client->output().data());
  long errors = 0;
  for (long i = 0; i < kElements; ++i) {
    if (out[i] != in[i] + in[kElements + i]) ++errors;
  }
  if (!client->rls().ok()) return 1;

  std::printf("[child %d] %ld elements verified through the VGPU, %ld "
              "errors\n",
              id, kElements, errors);
  std::fflush(stdout);  // _exit() below skips stdio flushing
  return errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int nprocs = 4;
  rt::ExecMode exec = rt::ExecMode::kSerial;
  int workers = 4;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--exec=", 0) == 0) {
      if (!rt::parse_exec_mode(arg.substr(7), &exec)) {
        std::fprintf(stderr, "unknown exec mode '%s' (try: serial sharded)\n",
                     arg.substr(7).c_str());
        return 2;
      }
    } else if (arg.rfind("--workers=", 0) == 0) {
      workers = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_path = arg.substr(12);
    } else {
      nprocs = std::atoi(arg.c_str());
    }
  }
  const std::string prefix = "/vgpu_live_" + std::to_string(::getpid());

  rt::RtServerConfig config;
  config.prefix = prefix;
  config.expected_clients = nprocs;
  config.workers = workers;
  config.exec = exec;
  config.obs.tracing = !trace_path.empty();
  rt::RtServer server(config, rt::builtin_registry());
  const Status st = server.start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.to_string().c_str());
    return 1;
  }
  std::printf("GVM daemon up at %s_req; forking %d SPMD processes...\n",
              prefix.c_str(), nprocs);

  std::vector<pid_t> children;
  for (int c = 0; c < nprocs; ++c) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) ::_exit(run_child(prefix, c));
    children.push_back(pid);
  }

  int failures = 0;
  for (const pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++failures;
  }
  server.stop();

  std::printf("GVM served %ld requests, ran %ld kernels in %ld flushes; "
              "%d/%d processes OK\n",
              server.stats().requests.load(), server.stats().jobs_run.load(),
              server.stats().flushes.load(), nprocs - failures, nprocs);
  const rt::RtExecCounters& e = server.exec_counters();
  std::printf("exec [%s, %d workers]: %ld jobs, %ld launches, %ld shards, "
              "%ld steals, overlap %ld B\n",
              rt::exec_mode_name(exec), workers, e.external_jobs, e.launches,
              e.shards_executed, e.steals,
              server.stats().overlap_bytes.load());
  if (!trace_path.empty()) {
    const auto kernel_name = [](int id) {
      const std::string* name = rt::builtin_registry().name_of(id);
      return name != nullptr ? *name : "kernel " + std::to_string(id);
    };
    const Status ts = server.obs().tracer().write_chrome_trace(
        trace_path, [&kernel_name](const obs::SpanRecord& span) {
          if (span.phase == obs::Phase::kKernel) return kernel_name(span.aux);
          return std::string();
        });
    if (!ts.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", ts.to_string().c_str());
      return 1;
    }
    std::printf("trace written to %s (open in ui.perfetto.dev)\n",
                trace_path.c_str());
    std::fputs(obs::format_residuals(
                   obs::compute_residuals(server.obs().tracer().collect(),
                                          kernel_name))
                   .c_str(),
               stdout);
  }
  return failures == 0 ? 0 : 1;
}
