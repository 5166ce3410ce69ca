// Microbenchmarks of the src/exec grid-sharded execution engine: the two
// acceptance claims of the engine PR, measured head-to-head.
//
//   BM_SgemmSharded     one sgemm n=2048 launch, serial vs. sharded at
//                       1/2/4 workers — single-kernel scaling (the paper's
//                       "one context fills the SMs" claim, on host cores).
//   BM_FullTaskCycle    the live protocol at N=2 clients, --exec=serial
//                       vs. --exec=sharded — cohort throughput including
//                       the chunked copy/compute overlap on the staged
//                       data plane.
//
// Run with --reps=K for warmup + K-repetition median/p95 aggregates.
#include <benchmark/benchmark.h>

#include "support.hpp"

#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "exec/engine.hpp"
#include "kernels/matmul.hpp"
#include "rt/client.hpp"
#include "rt/registry.hpp"
#include "rt/server.hpp"

using namespace vgpu;

namespace {

std::string unique_prefix(const char* tag) {
  return std::string("/vgpu_mex_") + tag + "_" + std::to_string(::getpid());
}

// Arg 0: worker count; 0 = the serial oracle (no engine at all).
void BM_SgemmSharded(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const int n = 2048;
  std::vector<float> a(static_cast<std::size_t>(n) * n);
  std::vector<float> b(a.size());
  std::vector<float> c(a.size());
  Rng rng(42);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  if (workers == 0) {
    for (auto _ : state) {
      kernels::sgemm(a, b, c, n);
      benchmark::DoNotOptimize(c.data());
    }
    state.SetLabel("serial");
  } else {
    exec::ExecConfig config;
    config.workers = workers;
    exec::ExecEngine engine(config);
    for (auto _ : state) {
      kernels::sgemm(a, b, c, n, engine.executor());
      benchmark::DoNotOptimize(c.data());
    }
    engine.shutdown();
    state.SetLabel("sharded/" + std::to_string(workers));
    state.counters["shards"] =
        static_cast<double>(engine.stats().shards_executed.load());
    state.counters["steals"] =
        static_cast<double>(engine.stats().steals.load());
  }
  const double flops = 2.0 * n * static_cast<double>(n) * n;
  state.counters["flops"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
VGPU_MICRO_BENCHMARK(BM_SgemmSharded)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"workers"})
    ->UseRealTime();

// Arg 0: exec mode (0 = serial, 1 = sharded). Two in-process client
// threads drive full SND/STR/STP/RCV cycles against one server, so the
// sharded number includes chunked stage-in/write-back overlap.
void BM_FullTaskCycle(benchmark::State& state) {
  const bool sharded = state.range(0) != 0;
  const long n = 1 << 18;
  const int clients = 2;
  const std::string prefix = unique_prefix(sharded ? "shard" : "serial");
  rt::RtServerConfig config;
  config.prefix = prefix;
  config.expected_clients = clients;
  config.workers = sharded ? 4 : clients;
  config.exec = sharded ? rt::ExecMode::kSharded : rt::ExecMode::kSerial;
  rt::RtServer server(config, rt::builtin_registry());
  if (!server.start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  auto kid = rt::builtin_registry().id_of("vecadd");
  const std::int64_t params[4] = {n, 0, 0, 0};

  for (auto _ : state) {
    // The STR barrier is cohort-wide, so each iteration runs both clients
    // through one full cycle on their own threads.
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int id = 0; id < clients; ++id) {
      threads.emplace_back([&, id] {
        auto client = rt::RtClient::connect(prefix, id, 2 * n * 4, n * 4);
        if (!client.ok()) {
          failures.fetch_add(1);
          return;
        }
        auto* in = reinterpret_cast<float*>(client->input().data());
        for (long i = 0; i < 2 * n; ++i) in[i] = static_cast<float>(i);
        bool ok = client->req(*kid, params).ok();
        ok = ok && client->snd().ok();
        ok = ok && client->str().ok();
        ok = ok && client->wait_done().ok();
        ok = ok && client->rcv().ok();
        ok = ok && client->rls().ok();
        if (!ok) failures.fetch_add(1);
      });
    }
    for (auto& t : threads) t.join();
    if (failures.load() != 0) {
      state.SkipWithError("client cycle failed");
      break;
    }
  }
  server.stop();
  state.SetLabel(rt::exec_mode_name(config.exec));
  state.SetBytesProcessed(state.iterations() * clients * 3 * n * 4);
  state.counters["overlap_bytes"] =
      static_cast<double>(server.stats().overlap_bytes.load());
  state.counters["shards"] =
      static_cast<double>(server.exec_counters().shards_executed);
  state.counters["steals"] =
      static_cast<double>(server.exec_counters().steals);
  // Registry snapshot (rt.*/exec.*/sched.* after stop()) into the JSON.
  bench::report_registry(state, server.obs().metrics());
}
VGPU_MICRO_BENCHMARK(BM_FullTaskCycle)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"sharded"})
    ->UseRealTime();

}  // namespace

VGPU_MICRO_MAIN()
