// Microbenchmarks of the live GVM runtime: protocol round-trip latency and
// end-to-end task throughput, swept across the control-plane transport
// (message queue vs shm ring) and the data plane (staged vs zero-copy).
#include <benchmark/benchmark.h>

#include "support.hpp"

#include <unistd.h>

#include "rt/client.hpp"
#include "rt/registry.hpp"
#include "rt/server.hpp"

using namespace vgpu;

namespace {

std::string unique_prefix(const char* tag) {
  return std::string("/vgpu_mrt_") + tag + "_" + std::to_string(::getpid());
}

rt::RtServerConfig make_config(const std::string& prefix, int clients,
                               int workers, std::int64_t transport,
                               std::int64_t data_plane) {
  rt::RtServerConfig config;
  config.prefix = prefix;
  config.expected_clients = clients;
  config.workers = workers;
  config.transport = transport != 0 ? ipc::TransportKind::kShmRing
                                    : ipc::TransportKind::kMessageQueue;
  config.data_plane = data_plane != 0 ? rt::DataPlane::kZeroCopy
                                      : rt::DataPlane::kStaged;
  return config;
}

rt::RtClientOptions client_options(std::int64_t transport) {
  rt::RtClientOptions options;
  options.transport = transport != 0 ? ipc::TransportKind::kShmRing
                                     : ipc::TransportKind::kMessageQueue;
  return options;
}

void report_server_stats(benchmark::State& state, const rt::RtServer& server) {
  const rt::RtServerStats& stats = server.stats();
  state.counters["bytes_copied"] = static_cast<double>(stats.bytes_copied);
  state.counters["syscalls_saved"] =
      static_cast<double>(stats.syscalls_saved);
  state.counters["ring_requests"] = static_cast<double>(stats.ring_requests);
  // Full registry snapshot (rt.*/sched.*/admission.* after stop()) into
  // the JSON the bench jobs upload.
  bench::report_registry(state, server.obs().metrics());
}

// Arg 0: transport (0 = mqueue, 1 = shm ring).
void BM_ProtocolRoundTrip(benchmark::State& state) {
  const std::int64_t transport = state.range(0);
  const std::string prefix = unique_prefix("rtt");
  rt::RtServer server(make_config(prefix, 1, 1, transport, 0),
                      rt::builtin_registry());
  if (!server.start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  auto client =
      rt::RtClient::connect(prefix, 0, 64, 64, client_options(transport));
  if (!client.ok()) {
    state.SkipWithError("client connect failed");
    return;
  }
  auto kid = rt::builtin_registry().id_of("vecadd");
  const std::int64_t params[4] = {8, 0, 0, 0};
  (void)client->req(*kid, params);
  for (auto _ : state) {
    // SND is the lightest request with a full round trip.
    benchmark::DoNotOptimize(client->snd().ok());
  }
  (void)client->rls();
  server.stop();
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(ipc::transport_name(client->transport()));
  report_server_stats(state, server);
}
VGPU_MICRO_BENCHMARK(BM_ProtocolRoundTrip)->Arg(0)->Arg(1)->ArgNames({"shm"});

// Arg 0: vecadd n, Arg 1: transport, Arg 2: data plane (0 = staged,
// 1 = zero-copy). The acceptance check for the zero-copy plane is the
// bytes_copied counter staying at 0 on the job path.
void BM_FullTaskCycle(benchmark::State& state) {
  const long n = state.range(0);
  const std::int64_t transport = state.range(1);
  const std::int64_t data_plane = state.range(2);
  const std::string prefix = unique_prefix("task");
  rt::RtServer server(make_config(prefix, 1, 2, transport, data_plane),
                      rt::builtin_registry());
  if (!server.start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  auto client = rt::RtClient::connect(prefix, 0, 2 * n * 4, n * 4,
                                      client_options(transport));
  if (!client.ok()) {
    state.SkipWithError("client connect failed");
    return;
  }
  auto kid = rt::builtin_registry().id_of("vecadd");
  const std::int64_t params[4] = {n, 0, 0, 0};
  (void)client->req(*kid, params);
  auto* in = reinterpret_cast<float*>(client->input().data());
  for (long i = 0; i < 2 * n; ++i) in[i] = static_cast<float>(i);
  for (auto _ : state) {
    bool ok = client->snd().ok();
    ok = ok && client->str().ok();
    ok = ok && client->wait_done().ok();
    ok = ok && client->rcv().ok();
    benchmark::DoNotOptimize(ok);
  }
  (void)client->rls();
  server.stop();
  state.SetBytesProcessed(state.iterations() * 3 * n * 4);
  state.SetLabel(std::string(ipc::transport_name(client->transport())) +
                 "/" +
                 rt::data_plane_name(server.config().data_plane));
  report_server_stats(state, server);
}
VGPU_MICRO_BENCHMARK(BM_FullTaskCycle)
    ->ArgsProduct({{1024, 262144}, {0, 1}, {0, 1}})
    ->ArgNames({"n", "shm", "zc"});

// Arg 0: span tracing on/off. The observability overhead gate: the CI
// bench-obs job compares the two medians and fails the build if tracing
// off is more than noise away from BM_FullTaskCycle, or tracing on costs
// more than the budgeted ring writes (shm ring + staged plane, n = 1024,
// like the BENCH_rt baseline row).
void BM_FullTaskCycleObs(benchmark::State& state) {
  const std::int64_t tracing = state.range(0);
  const long n = 1024;
  const std::string prefix = unique_prefix("obs");
  rt::RtServerConfig config = make_config(prefix, 1, 2, 1, 0);
  config.obs.tracing = tracing != 0;
  rt::RtServer server(config, rt::builtin_registry());
  if (!server.start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  auto client =
      rt::RtClient::connect(prefix, 0, 2 * n * 4, n * 4, client_options(1));
  if (!client.ok()) {
    state.SkipWithError("client connect failed");
    return;
  }
  auto kid = rt::builtin_registry().id_of("vecadd");
  const std::int64_t params[4] = {n, 0, 0, 0};
  (void)client->req(*kid, params);
  auto* in = reinterpret_cast<float*>(client->input().data());
  for (long i = 0; i < 2 * n; ++i) in[i] = static_cast<float>(i);
  for (auto _ : state) {
    bool ok = client->snd().ok();
    ok = ok && client->str().ok();
    ok = ok && client->wait_done().ok();
    ok = ok && client->rcv().ok();
    benchmark::DoNotOptimize(ok);
  }
  (void)client->rls();
  server.stop();
  state.SetLabel(tracing != 0 ? "tracing" : "no-tracing");
  state.counters["spans"] = static_cast<double>(
      tracing != 0 ? server.obs().tracer().collect().size() : 0);
  state.counters["spans_dropped"] =
      static_cast<double>(server.obs().tracer().dropped());
  report_server_stats(state, server);
}
VGPU_MICRO_BENCHMARK(BM_FullTaskCycleObs)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"trace"});

}  // namespace

VGPU_MICRO_MAIN()
