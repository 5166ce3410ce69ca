// Integration tests for the live GVM runtime: real POSIX message queues and
// shared memory, a server thread with an exec engine, and concurrent clients
// running the full REQ/SND/STR/STP/RCV/RLS protocol with functional kernels.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "kernels/ep.hpp"
#include "kernels/mg.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rt/client.hpp"
#include "rt/registry.hpp"
#include "rt/server.hpp"

namespace vgpu::rt {
namespace {

std::string unique_prefix(const char* tag) {
  return std::string("/vgpu_rt_") + tag + "_" + std::to_string(::getpid());
}

RtServerConfig server_config(
    const std::string& prefix, int clients, int workers,
    ipc::TransportKind transport = ipc::TransportKind::kMessageQueue,
    DataPlane data_plane = DataPlane::kStaged) {
  RtServerConfig config;
  config.prefix = prefix;
  config.expected_clients = clients;
  config.workers = workers;
  config.transport = transport;
  config.data_plane = data_plane;
  return config;
}

/// Runs one full vecadd task through a client; returns true if the result
/// that came back through the vsm is correct. `negotiated` (optional)
/// receives the transport the REQ handshake selected.
bool run_vecadd_client(const std::string& prefix, int id, long n,
                       RtClientOptions options = {},
                       ipc::TransportKind* negotiated = nullptr) {
  auto client = RtClient::connect(prefix, id, 2 * n * 4, n * 4, options);
  if (!client.ok()) return false;

  const auto un = static_cast<std::size_t>(n);
  auto* in = reinterpret_cast<float*>(client->input().data());
  Rng rng(static_cast<std::uint64_t>(id) + 1);
  for (std::size_t i = 0; i < 2 * un; ++i) {
    in[i] = static_cast<float>(rng.uniform(-4.0, 4.0));
  }

  auto kid = builtin_registry().id_of("vecadd");
  if (!kid.ok()) return false;
  const std::int64_t params[4] = {n, 0, 0, 0};
  if (!client->req(*kid, params).ok()) return false;
  if (negotiated != nullptr) *negotiated = client->transport();
  if (!client->snd().ok()) return false;
  if (!client->str().ok()) return false;
  if (!client->wait_done().ok()) return false;
  if (!client->rcv().ok()) return false;

  const auto* out = reinterpret_cast<const float*>(client->output().data());
  for (std::size_t i = 0; i < un; ++i) {
    if (out[i] != in[i] + in[un + i]) return false;
  }
  return client->rls().ok();
}

TEST(RtRegistry, BuiltinsRegisteredWithStableIds) {
  KernelRegistry& reg = builtin_registry();
  EXPECT_GE(reg.size(), 6u);
  auto id = reg.id_of("vecadd");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*reg.name_of(*id), "vecadd");
  EXPECT_NE(reg.find(*id), nullptr);
  EXPECT_EQ(reg.find(9999), nullptr);
  EXPECT_FALSE(reg.id_of("no_such_kernel").ok());
}

TEST(RtServer, SingleClientVecaddRoundTrip) {
  const std::string prefix = unique_prefix("single");
  RtServer server(server_config(prefix, /*expected_clients=*/1, /*workers=*/2),
                  builtin_registry());
  ASSERT_TRUE(server.start().ok());
  EXPECT_TRUE(run_vecadd_client(prefix, 0, 1024));
  server.stop();
  EXPECT_EQ(server.stats().jobs_run.load(), 1);
  EXPECT_EQ(server.stats().flushes.load(), 1);
}

TEST(RtServer, FourConcurrentClientThreads) {
  const std::string prefix = unique_prefix("four");
  constexpr int kClients = 4;
  RtServer server(server_config(prefix, kClients, /*workers=*/4), builtin_registry());
  ASSERT_TRUE(server.start().ok());

  std::vector<std::thread> threads;
  std::vector<char> ok(kClients, 0);  // one byte per writer thread
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ok[static_cast<std::size_t>(c)] = run_vecadd_client(prefix, c, 2048);
    });
  }
  for (auto& t : threads) t.join();
  server.stop();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(c)]) << "client " << c;
  }
  EXPECT_EQ(server.stats().jobs_run.load(), kClients);
  // Barrier: one flush for the whole SPMD wave.
  EXPECT_EQ(server.stats().flushes.load(), 1);
}

// A job far longer than a round trip still costs one STP message: the
// server parks the ack until the job lands, and the client blocks in the
// transport's receive instead of polling.
TEST(RtServer, SlowKernelCostsOneStp) {
  for (const auto transport :
       {ipc::TransportKind::kMessageQueue, ipc::TransportKind::kShmRing}) {
    SCOPED_TRACE(ipc::transport_name(transport));
    const std::string prefix = unique_prefix("slow");
    RtServer server(server_config(prefix, 1, 1, transport),
                    builtin_registry());
    ASSERT_TRUE(server.start().ok());
    constexpr Bytes kBytes = 256;
    RtClientOptions options;
    options.transport = transport;
    auto client = RtClient::connect(prefix, 0, kBytes, kBytes, options);
    ASSERT_TRUE(client.ok());
    // sleep_ms writes nothing, so the staged result it leaves is the
    // zero-filled staging buffer; the parked ack's copy-out must deliver
    // exactly that over the pattern the client left in its output area.
    std::memset(client->input().data(), 0x11, kBytes);
    auto* out = const_cast<std::byte*>(client->output().data());
    std::memset(out, 0x5a, kBytes);
    auto kid = builtin_registry().id_of("sleep_ms");
    ASSERT_TRUE(kid.ok());
    const std::int64_t params[4] = {50, 0, 0, 0};  // 50 ms busy kernel
    ASSERT_TRUE(client->req(*kid, params).ok());
    ASSERT_TRUE(client->snd().ok());
    ASSERT_TRUE(client->str().ok());
    ASSERT_TRUE(client->wait_done().ok());
    ASSERT_TRUE(client->rcv().ok());
    for (const std::byte b : client->output()) {
      ASSERT_EQ(b, std::byte{0});
    }
    EXPECT_EQ(client->waits_observed(), 0);
    ASSERT_TRUE(client->rls().ok());
    server.stop();
    const obs::Counter* stp =
        server.obs().metrics().find_counter("rt.ctrl_messages_stp");
    ASSERT_NE(stp, nullptr);
    EXPECT_EQ(stp->value(), 1);
    EXPECT_EQ(server.stats().waits_sent.load(), 0);
    EXPECT_EQ(server.stats().bytes_copied.load(), 2 * kBytes);
  }
}

TEST(RtServer, ReleaseWithAStrandedStrCancelsItInsteadOfAborting) {
  // Two clients at barrier width 2 run one round together; client 1 then
  // releases. Client 0's next STR can never meet its partner, so it times
  // out — and its RLS, arriving with that round still pending, must cancel
  // the round (not abort the server). Later clients attach and run a
  // round as usual (as a new width-2 wave: the strict barrier is kept).
  const std::string prefix = unique_prefix("strand");
  RtServer server(server_config(prefix, /*expected_clients=*/2, 2),
                  builtin_registry());
  ASSERT_TRUE(server.start().ok());
  auto kid = builtin_registry().id_of("vecadd");
  ASSERT_TRUE(kid.ok());
  constexpr long kN = 256;
  const std::int64_t params[4] = {kN, 0, 0, 0};
  RtClientOptions quick;
  quick.op_timeout = std::chrono::milliseconds(100);
  quick.max_retries = 1;

  auto first = RtClient::connect(prefix, 0, 2 * kN * 4, kN * 4, quick);
  auto second = RtClient::connect(prefix, 1, 2 * kN * 4, kN * 4);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  std::atomic<bool> partner_ok{false};
  std::thread partner([&] {
    partner_ok = second->req(*kid, params).ok() && second->snd().ok() &&
                 second->str().ok() && second->wait_done().ok() &&
                 second->rcv().ok() && second->rls().ok();
  });
  ASSERT_TRUE(first->req(*kid, params).ok());
  ASSERT_TRUE(first->snd().ok());
  ASSERT_TRUE(first->str().ok());
  ASSERT_TRUE(first->wait_done().ok());
  ASSERT_TRUE(first->rcv().ok());
  partner.join();
  ASSERT_TRUE(partner_ok.load());

  ASSERT_TRUE(first->snd().ok());
  EXPECT_FALSE(first->str().ok());  // stranded at the barrier
  EXPECT_TRUE(first->rls().ok());

  std::vector<char> ok(2, 0);  // one byte per writer thread
  std::vector<std::thread> wave;
  for (int c = 0; c < 2; ++c) {
    wave.emplace_back([&, c] {
      ok[static_cast<std::size_t>(c)] = run_vecadd_client(prefix, 2 + c, kN);
    });
  }
  for (auto& t : wave) t.join();
  server.stop();
  EXPECT_TRUE(ok[0]);
  EXPECT_TRUE(ok[1]);
  EXPECT_EQ(server.scheduler().stats().failures, 1);
  EXPECT_EQ(server.stats().jobs_run.load(), 4);
}

TEST(RtServer, EpKernelMatchesSequentialReference) {
  const std::string prefix = unique_prefix("ep");
  RtServer server(server_config(prefix, 1, 2), builtin_registry());
  ASSERT_TRUE(server.start().ok());
  auto client =
      RtClient::connect(prefix, 0, 0, sizeof(kernels::EpResult));
  ASSERT_TRUE(client.ok());
  auto kid = builtin_registry().id_of("ep");
  ASSERT_TRUE(kid.ok());
  const int m = 14;
  const std::int64_t params[4] = {m, 4, 0, 0};
  ASSERT_TRUE(client->req(*kid, params).ok());
  ASSERT_TRUE(client->snd().ok());
  ASSERT_TRUE(client->str().ok());
  ASSERT_TRUE(client->wait_done().ok());
  ASSERT_TRUE(client->rcv().ok());
  kernels::EpResult got;
  std::memcpy(&got, client->output().data(), sizeof(got));
  const kernels::EpResult expect = kernels::ep_sequential(m);
  EXPECT_EQ(got.q, expect.q);
  EXPECT_EQ(got.pairs_accepted, expect.pairs_accepted);
  EXPECT_NEAR(got.sx, expect.sx, 1e-9);
  ASSERT_TRUE(client->rls().ok());
  server.stop();
}

TEST(RtServer, MultiRoundReusesResources) {
  const std::string prefix = unique_prefix("rounds");
  RtServer server(server_config(prefix, 1, 2), builtin_registry());
  ASSERT_TRUE(server.start().ok());
  const long n = 256;
  auto client = RtClient::connect(prefix, 0, 2 * n * 4, n * 4);
  ASSERT_TRUE(client.ok());
  auto kid = builtin_registry().id_of("vecadd");
  const std::int64_t params[4] = {n, 0, 0, 0};
  ASSERT_TRUE(client->req(*kid, params).ok());
  auto* in = reinterpret_cast<float*>(client->input().data());
  for (int round = 0; round < 5; ++round) {
    for (long i = 0; i < 2 * n; ++i) {
      in[i] = static_cast<float>(i + round);
    }
    ASSERT_TRUE(client->snd().ok());
    ASSERT_TRUE(client->str().ok());
    ASSERT_TRUE(client->wait_done().ok());
    ASSERT_TRUE(client->rcv().ok());
    const auto* out =
        reinterpret_cast<const float*>(client->output().data());
    for (long i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], in[i] + in[n + i]) << "round " << round;
    }
  }
  ASSERT_TRUE(client->rls().ok());
  server.stop();
  EXPECT_EQ(server.stats().jobs_run.load(), 5);
}

TEST(RtServer, ForkedProcessClients) {
  const std::string prefix = unique_prefix("fork");
  constexpr int kClients = 2;
  RtServer server(server_config(prefix, kClients, 2), builtin_registry());
  ASSERT_TRUE(server.start().ok());

  std::vector<pid_t> children;
  for (int c = 0; c < kClients; ++c) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: real separate process driving its VGPU.
      const bool ok = run_vecadd_client(prefix, c, 512);
      ::_exit(ok ? 0 : 1);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  server.stop();
  EXPECT_EQ(server.stats().jobs_run.load(), kClients);
}


TEST(RtServer, UnknownKernelIdRejected) {
  const std::string prefix = unique_prefix("badkid");
  RtServer server(server_config(prefix, 1, 1), builtin_registry());
  ASSERT_TRUE(server.start().ok());
  auto client = RtClient::connect(prefix, 0, 16, 16);
  ASSERT_TRUE(client.ok());
  const std::int64_t params[4] = {};
  const Status st = client->req(/*kernel_id=*/9999, params);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kInternal);
  server.stop();
}

TEST(RtServer, TwoServersOnDistinctPrefixesCoexist) {
  const std::string p1 = unique_prefix("coex1");
  const std::string p2 = unique_prefix("coex2");
  RtServer s1(server_config(p1, 1, 1), builtin_registry());
  RtServer s2(server_config(p2, 1, 1), builtin_registry());
  ASSERT_TRUE(s1.start().ok());
  ASSERT_TRUE(s2.start().ok());
  EXPECT_TRUE(run_vecadd_client(p1, 0, 256));
  EXPECT_TRUE(run_vecadd_client(p2, 0, 256));
  s1.stop();
  s2.stop();
  EXPECT_EQ(s1.stats().jobs_run.load(), 1);
  EXPECT_EQ(s2.stats().jobs_run.load(), 1);
}

TEST(RtServer, ReduceAndDotKernels) {
  const std::string prefix = unique_prefix("reduce");
  RtServer server(server_config(prefix, 1, 1), builtin_registry());
  ASSERT_TRUE(server.start().ok());
  const long n = 1000;
  auto client = RtClient::connect(prefix, 0, 2 * n * 4, 4);
  ASSERT_TRUE(client.ok());
  auto* in = reinterpret_cast<float*>(client->input().data());
  double expect_sum = 0.0, expect_dot = 0.0;
  for (long i = 0; i < n; ++i) {
    in[i] = static_cast<float>(i % 17) * 0.25f;
    in[n + i] = 1.0f;
    expect_sum += in[i];
    expect_dot += in[i] * in[n + i];
  }
  auto run_kernel = [&](const char* name) -> float {
    auto kid = builtin_registry().id_of(name);
    EXPECT_TRUE(kid.ok());
    const std::int64_t params[4] = {n, 0, 0, 0};
    EXPECT_TRUE(client->req(*kid, params).ok());
    EXPECT_TRUE(client->snd().ok());
    EXPECT_TRUE(client->str().ok());
    EXPECT_TRUE(client->wait_done().ok());
    EXPECT_TRUE(client->rcv().ok());
    float out = 0.0f;
    std::memcpy(&out, client->output().data(), 4);
    return out;
  };
  EXPECT_NEAR(run_kernel("reduce_sum"), expect_sum, 1e-2);
  EXPECT_NEAR(run_kernel("dot"), expect_dot, 1e-2);
  ASSERT_TRUE(client->rls().ok());
  server.stop();
}

TEST(RtServer, MgVcycleKernelReducesResidual) {
  const std::string prefix = unique_prefix("mg");
  RtServer server(server_config(prefix, 1, 1), builtin_registry());
  ASSERT_TRUE(server.start().ok());
  const int n = 8;
  const auto cells = static_cast<std::size_t>(n) * n * n;
  auto client = RtClient::connect(prefix, 0,
                                  static_cast<Bytes>(cells) * 8,
                                  static_cast<Bytes>(cells) * 8);
  ASSERT_TRUE(client.ok());
  const kernels::Grid3 rhs = kernels::mg_make_rhs(n);
  std::memcpy(client->input().data(), rhs.data().data(), cells * 8);
  auto kid = builtin_registry().id_of("mg_vcycle");
  ASSERT_TRUE(kid.ok());
  const std::int64_t params[4] = {n, 3, 0, 0};
  ASSERT_TRUE(client->req(*kid, params).ok());
  ASSERT_TRUE(client->snd().ok());
  ASSERT_TRUE(client->str().ok());
  ASSERT_TRUE(client->wait_done().ok());
  ASSERT_TRUE(client->rcv().ok());
  kernels::Grid3 u(n), zero(n);
  std::memcpy(u.data().data(), client->output().data(), cells * 8);
  zero.fill(0.0);
  EXPECT_LT(kernels::mg_residual_norm(u, rhs),
            0.5 * kernels::mg_residual_norm(zero, rhs));
  ASSERT_TRUE(client->rls().ok());
  server.stop();
}

TEST(RtServer, ParseDataPlaneSpellings) {
  DataPlane plane = DataPlane::kStaged;
  EXPECT_TRUE(parse_data_plane("zero_copy", &plane));
  EXPECT_EQ(plane, DataPlane::kZeroCopy);
  EXPECT_TRUE(parse_data_plane("staged", &plane));
  EXPECT_EQ(plane, DataPlane::kStaged);
  EXPECT_FALSE(parse_data_plane("teleport", &plane));
  EXPECT_STREQ(data_plane_name(DataPlane::kStaged), "staged");
  EXPECT_STREQ(data_plane_name(DataPlane::kZeroCopy), "zero_copy");
}

TEST(RtServer, ShmRingTransportNegotiatedAndCorrect) {
  const std::string prefix = unique_prefix("ring");
  RtServer server(
      server_config(prefix, 1, 2, ipc::TransportKind::kShmRing),
      builtin_registry());
  ASSERT_TRUE(server.start().ok());
  RtClientOptions options;
  options.transport = ipc::TransportKind::kShmRing;
  ipc::TransportKind negotiated = ipc::TransportKind::kMessageQueue;
  EXPECT_TRUE(run_vecadd_client(prefix, 0, 1024, options, &negotiated));
  server.stop();
  EXPECT_EQ(negotiated, ipc::TransportKind::kShmRing);
  EXPECT_EQ(server.stats().jobs_run.load(), 1);
  EXPECT_EQ(server.stats().flushes.load(), 1);
  // Everything after the REQ handshake travelled over the ring.
  EXPECT_GT(server.stats().ring_requests.load(), 0);
  EXPECT_GT(server.stats().syscalls_saved.load(), 0);
}

TEST(RtServer, MqueueOnlyClientFallsBackAgainstRingServer) {
  const std::string prefix = unique_prefix("mixed");
  RtServer server(
      server_config(prefix, 1, 2, ipc::TransportKind::kShmRing),
      builtin_registry());
  ASSERT_TRUE(server.start().ok());
  RtClientOptions options;
  options.transport = ipc::TransportKind::kMessageQueue;
  ipc::TransportKind negotiated = ipc::TransportKind::kShmRing;
  EXPECT_TRUE(run_vecadd_client(prefix, 0, 512, options, &negotiated));
  server.stop();
  EXPECT_EQ(negotiated, ipc::TransportKind::kMessageQueue);
  EXPECT_EQ(server.stats().ring_requests.load(), 0);
  EXPECT_EQ(server.stats().jobs_run.load(), 1);
}

TEST(RtServer, RingCapableClientAgainstMqueueServerStaysOnMqueue) {
  const std::string prefix = unique_prefix("down");
  RtServer server(server_config(prefix, 1, 2), builtin_registry());
  ASSERT_TRUE(server.start().ok());
  RtClientOptions options;
  options.transport = ipc::TransportKind::kShmRing;
  ipc::TransportKind negotiated = ipc::TransportKind::kShmRing;
  EXPECT_TRUE(run_vecadd_client(prefix, 0, 512, options, &negotiated));
  server.stop();
  EXPECT_EQ(negotiated, ipc::TransportKind::kMessageQueue);
  EXPECT_EQ(server.stats().ring_requests.load(), 0);
}

TEST(RtServer, ZeroCopyPlaneMovesNoBytesOnJobPath) {
  const std::string prefix = unique_prefix("zc");
  RtServer server(server_config(prefix, 1, 2, ipc::TransportKind::kShmRing,
                                DataPlane::kZeroCopy),
                  builtin_registry());
  ASSERT_TRUE(server.start().ok());
  RtClientOptions options;
  options.transport = ipc::TransportKind::kShmRing;
  EXPECT_TRUE(run_vecadd_client(prefix, 0, 4096, options));
  server.stop();
  EXPECT_EQ(server.stats().bytes_copied.load(), 0);
  EXPECT_EQ(server.stats().jobs_run.load(), 1);
}

TEST(RtServer, StagedPlaneAccountsCopiedBytes) {
  const std::string prefix = unique_prefix("staged");
  const long n = 1024;
  RtServer server(server_config(prefix, 1, 2), builtin_registry());
  ASSERT_TRUE(server.start().ok());
  EXPECT_TRUE(run_vecadd_client(prefix, 0, n));
  server.stop();
  // SND staged 2n floats in, STP staged n floats out.
  EXPECT_EQ(server.stats().bytes_copied.load(), 3 * n * 4);
}

TEST(RtServer, RingTransportForkedProcessClients) {
  const std::string prefix = unique_prefix("rfork");
  constexpr int kClients = 2;
  RtServer server(
      server_config(prefix, kClients, 2, ipc::TransportKind::kShmRing),
      builtin_registry());
  ASSERT_TRUE(server.start().ok());
  std::vector<pid_t> children;
  for (int c = 0; c < kClients; ++c) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: separate process, ring control plane over shared memory
      // and a cross-process futex doorbell.
      RtClientOptions options;
      options.transport = ipc::TransportKind::kShmRing;
      ipc::TransportKind negotiated = ipc::TransportKind::kMessageQueue;
      const bool ok = run_vecadd_client(prefix, c, 512, options, &negotiated);
      ::_exit(ok && negotiated == ipc::TransportKind::kShmRing ? 0 : 1);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  server.stop();
  EXPECT_EQ(server.stats().jobs_run.load(), kClients);
  EXPECT_GT(server.stats().ring_requests.load(), 0);
}

/// Serial mode runs every granted kernel whole on one engine worker: the
/// engine sees one external job per kernel and never fans a launch out.
TEST(RtServer, SerialModeRunsJobsOnTheEngineWithoutSharding) {
  const std::string prefix = unique_prefix("serialeng");
  constexpr int kClients = 3;
  RtServer server(server_config(prefix, kClients, /*workers=*/2),
                  builtin_registry());
  ASSERT_EQ(server.config().exec, ExecMode::kSerial);
  ASSERT_TRUE(server.start().ok());
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      if (run_vecadd_client(prefix, c, 1 << 16)) ok_count.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  server.stop();
  EXPECT_EQ(ok_count.load(), kClients);
  const RtExecCounters& exec = server.exec_counters();
  EXPECT_EQ(server.stats().jobs_run.load(), kClients);
  EXPECT_EQ(exec.external_jobs, server.stats().jobs_run.load());
  EXPECT_EQ(exec.launches, 0);
  EXPECT_EQ(exec.shards_executed, 0);
}

/// Sharded-mode servers must serve the same protocol with the same
/// results, on both transports and both data planes.
TEST(RtServer, ShardedExecServesClientsCorrectly) {
  for (const auto transport :
       {ipc::TransportKind::kMessageQueue, ipc::TransportKind::kShmRing}) {
    for (const auto plane : {DataPlane::kStaged, DataPlane::kZeroCopy}) {
      const std::string prefix = unique_prefix("shardex");
      RtServerConfig config = server_config(prefix, 2, 2, transport, plane);
      config.exec = ExecMode::kSharded;
      RtServer server(config, builtin_registry());
      ASSERT_TRUE(server.start().ok());
      std::vector<std::thread> threads;
      std::atomic<int> ok_count{0};
      RtClientOptions options;
      options.transport = transport;
      for (int id = 0; id < 2; ++id) {
        threads.emplace_back([&, id] {
          if (run_vecadd_client(prefix, id, 100000, options)) {
            ok_count.fetch_add(1);
          }
        });
      }
      for (auto& t : threads) t.join();
      server.stop();
      EXPECT_EQ(ok_count.load(), 2)
          << ipc::transport_name(transport) << "/" << data_plane_name(plane);
      const RtExecCounters& e = server.exec_counters();
      EXPECT_GT(e.shards_executed, 0);
      long histogram_sum = 0;
      for (const long c : e.worker_shards) histogram_sum += c;
      EXPECT_EQ(histogram_sum, e.shards_executed);
      if (plane == DataPlane::kStaged) {
        EXPECT_GT(server.stats().bytes_copied.load(), 0);
      } else {
        EXPECT_EQ(server.stats().bytes_copied.load(), 0);
      }
    }
  }
}

TEST(RtServer, ShardedSgemmMatchesSerialOracle) {
  const int n = 96;
  const auto un = static_cast<std::size_t>(n) * n;
  std::vector<float> a(un);
  std::vector<float> b(un);
  Rng rng(77);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  auto kid = builtin_registry().id_of("sgemm");
  ASSERT_TRUE(kid.ok());
  const std::int64_t params[4] = {n, 0, 0, 0};

  auto run_mode = [&](ExecMode mode, std::vector<float>* out) {
    const std::string prefix =
        unique_prefix(mode == ExecMode::kSharded ? "gemm_s" : "gemm_0");
    RtServerConfig config = server_config(prefix, 1, 2);
    config.exec = mode;
    RtServer server(config, builtin_registry());
    ASSERT_TRUE(server.start().ok());
    auto client = RtClient::connect(prefix, 0, 2 * un * 4, un * 4);
    ASSERT_TRUE(client.ok());
    auto* in = reinterpret_cast<float*>(client->input().data());
    std::memcpy(in, a.data(), un * sizeof(float));
    std::memcpy(in + un, b.data(), un * sizeof(float));
    ASSERT_TRUE(client->req(*kid, params).ok());
    ASSERT_TRUE(client->snd().ok());
    ASSERT_TRUE(client->str().ok());
    ASSERT_TRUE(client->wait_done().ok());
    ASSERT_TRUE(client->rcv().ok());
    out->resize(un);
    std::memcpy(out->data(), client->output().data(), un * sizeof(float));
    ASSERT_TRUE(client->rls().ok());
    server.stop();
  };
  std::vector<float> serial_out;
  std::vector<float> sharded_out;
  run_mode(ExecMode::kSerial, &serial_out);
  run_mode(ExecMode::kSharded, &sharded_out);
  ASSERT_EQ(std::memcmp(serial_out.data(), sharded_out.data(),
                        un * sizeof(float)),
            0);
}

TEST(RtServer, KernelExceptionSurfacesAsClientErrorNotCrash) {
  for (const auto mode : {ExecMode::kSerial, ExecMode::kSharded}) {
    KernelRegistry registry;
    const int boom = registry.add(
        "boom", [](std::span<const std::byte>, std::span<std::byte>,
                   const std::int64_t*, const ParallelFor&) {
          throw std::runtime_error("kernel boom");
        });
    const std::string prefix =
        unique_prefix(mode == ExecMode::kSharded ? "boom_s" : "boom_0");
    RtServerConfig config = server_config(prefix, 1, 1);
    config.exec = mode;
    RtServer server(config, registry);
    ASSERT_TRUE(server.start().ok());
    {
      auto client = RtClient::connect(prefix, 0, 64, 64);
      ASSERT_TRUE(client.ok());
      const std::int64_t params[4] = {0, 0, 0, 0};
      ASSERT_TRUE(client->req(boom, params).ok());
      ASSERT_TRUE(client->snd().ok());
      ASSERT_TRUE(client->str().ok());
      const Status done = client->wait_done();
      EXPECT_FALSE(done.ok()) << exec_mode_name(mode);
      ASSERT_TRUE(client->rls().ok());
    }
    server.stop();
    EXPECT_EQ(server.stats().jobs_failed.load(), 1) << exec_mode_name(mode);
  }
}

TEST(RtServer, ParseExecModeSpellings) {
  ExecMode mode = ExecMode::kSerial;
  EXPECT_TRUE(parse_exec_mode("sharded", &mode));
  EXPECT_EQ(mode, ExecMode::kSharded);
  EXPECT_TRUE(parse_exec_mode("serial", &mode));
  EXPECT_EQ(mode, ExecMode::kSerial);
  EXPECT_FALSE(parse_exec_mode("warp", &mode));
  EXPECT_STREQ(exec_mode_name(ExecMode::kSharded), "sharded");
  EXPECT_STREQ(exec_mode_name(ExecMode::kSerial), "serial");
}

TEST(RtServer, StopIsIdempotentAndRestartable) {
  const std::string prefix = unique_prefix("restart");
  {
    RtServer server(server_config(prefix, 1, 1), builtin_registry());
    ASSERT_TRUE(server.start().ok());
    server.stop();
    server.stop();  // no-op
  }
  // Fresh server on the same prefix works.
  RtServer server(server_config(prefix, 1, 1), builtin_registry());
  ASSERT_TRUE(server.start().ok());
  EXPECT_TRUE(run_vecadd_client(prefix, 0, 128));
  server.stop();
}

// With tracing on, every completed job must carry the full phase chain
// queue -> Tin -> Tcomp -> Tout on its client lane, with monotone
// non-overlapping timestamps. Sharded + staged sgemm keeps the three data
// phases strictly sequential inside the job (no streamed overlap), so the
// ordering assertion is exact.
TEST(RtServer, TracedJobCarriesFullSpanChain) {
  const int n = 64;
  const auto un = static_cast<std::size_t>(n) * n;
  const int clients = 2;
  const std::string prefix = unique_prefix("spans");
  RtServerConfig config = server_config(prefix, clients, 2);
  config.exec = ExecMode::kSharded;
  config.obs.tracing = true;
  RtServer server(config, builtin_registry());
  ASSERT_TRUE(server.start().ok());

  auto kid = builtin_registry().id_of("sgemm");
  ASSERT_TRUE(kid.ok());
  RtClientOptions options;
  options.tracer = &server.obs().tracer();  // client verbs join the trace
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int id = 0; id < clients; ++id) {
    threads.emplace_back([&, id] {
      auto client =
          RtClient::connect(prefix, id, 2 * un * 4, un * 4, options);
      if (!client.ok()) return;
      auto* in = reinterpret_cast<float*>(client->input().data());
      for (std::size_t i = 0; i < 2 * un; ++i) {
        in[i] = static_cast<float>(i % 7) * 0.25f;
      }
      const std::int64_t params[4] = {n, 0, 0, 0};
      bool ok = client->req(*kid, params).ok();
      ok = ok && client->snd().ok();
      ok = ok && client->str().ok();
      ok = ok && client->wait_done().ok();
      ok = ok && client->rcv().ok();
      ok = ok && client->rls().ok();
      if (ok) ok_count.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  server.stop();
  ASSERT_EQ(ok_count.load(), clients);

  const std::vector<obs::SpanRecord> spans = server.obs().tracer().collect();
  EXPECT_EQ(server.obs().tracer().dropped(), 0);
  int barriers = 0;
  int verbs = 0;
  for (int id = 0; id < clients; ++id) {
    const obs::SpanRecord* queue = nullptr;
    const obs::SpanRecord* copy_in = nullptr;
    const obs::SpanRecord* kernel = nullptr;
    const obs::SpanRecord* copy_out = nullptr;
    for (const obs::SpanRecord& span : spans) {
      EXPECT_GE(span.begin, 0);
      EXPECT_GE(span.end, span.begin);
      if (span.lane == obs::kLaneServer &&
          span.phase == obs::Phase::kFlushBarrier && id == 0) {
        ++barriers;
      }
      if (span.lane != id) continue;
      if (span.phase == obs::Phase::kClientVerb && id == 0) ++verbs;
      auto take = [&](const obs::SpanRecord*& slot) {
        EXPECT_EQ(slot, nullptr) << "duplicate phase span on lane " << id;
        EXPECT_EQ(span.aux, static_cast<std::int32_t>(*kid));
        slot = &span;
      };
      switch (span.phase) {
        case obs::Phase::kQueueWait: take(queue); break;
        case obs::Phase::kCopyIn: take(copy_in); break;
        case obs::Phase::kKernel: take(kernel); break;
        case obs::Phase::kCopyOut: take(copy_out); break;
        default: break;
      }
    }
    ASSERT_NE(queue, nullptr) << "lane " << id;
    ASSERT_NE(copy_in, nullptr) << "lane " << id;
    ASSERT_NE(kernel, nullptr) << "lane " << id;
    ASSERT_NE(copy_out, nullptr) << "lane " << id;
    // queue ends at the scheduler grant, before the job's data phases;
    // the three data phases neither overlap nor reorder.
    EXPECT_LE(queue->end, copy_in->begin) << "lane " << id;
    EXPECT_LE(copy_in->end, kernel->begin) << "lane " << id;
    EXPECT_LE(kernel->end, copy_out->begin) << "lane " << id;
  }
  EXPECT_GE(barriers, 1);   // the cohort co-flush span on the server lane
  EXPECT_GE(verbs, 5);      // REQ/SND/STR/RCV/RLS round trips, client 0
}

// After stop(), the legacy RtServerStats atomics and the obs registry must
// agree: the registry is the single code path vgpu-sim prints from.
TEST(RtServer, RegistryMirrorsLegacyCountersAfterStop) {
  const std::string prefix = unique_prefix("mirror");
  RtServer server(server_config(prefix, 1, 2), builtin_registry());
  ASSERT_TRUE(server.start().ok());
  EXPECT_TRUE(run_vecadd_client(prefix, 0, 4096));
  server.stop();

  const obs::Registry& metrics = server.obs().metrics();
  auto counter = [&](const char* name) {
    const obs::Counter* c = metrics.find_counter(name);
    return c != nullptr ? c->value() : -1;
  };
  const RtServerStats& stats = server.stats();
  EXPECT_EQ(counter("rt.requests"), stats.requests.load());
  EXPECT_EQ(counter("rt.jobs_run"), stats.jobs_run.load());
  EXPECT_EQ(counter("rt.flushes"), stats.flushes.load());
  EXPECT_EQ(counter("rt.bytes_copied"), stats.bytes_copied.load());
  EXPECT_EQ(counter("rt.jobs_failed"), 0);
  // The batch-depth histogram carries one sample per non-empty drain
  // sweep, so its total count sits between 1 and the request count.
  const obs::Histogram* depth = metrics.find_histogram("rt.batch_depth");
  ASSERT_NE(depth, nullptr);
  const long drains = depth->count();
  EXPECT_GE(drains, 1);
  EXPECT_LE(drains, stats.requests.load());
  // Tracing was off: no spans, and the disabled tracer recorded nothing.
  EXPECT_TRUE(server.obs().tracer().collect().empty());
  // Stop is idempotent for the export too: a second stop() must not
  // double-count the delta-synced histogram.
  server.stop();
  EXPECT_EQ(depth->count(), drains);
}

TEST(RtServer, ParkCeilRoundsUpToWholeMilliseconds) {
  using std::chrono::microseconds;
  using std::chrono::milliseconds;
  // The old truncation cut 1.9ms to 1ms and doubled idle wakeups.
  EXPECT_EQ(park_ceil_ms(microseconds(1900)), milliseconds(2));
  EXPECT_EQ(park_ceil_ms(microseconds(1000)), milliseconds(1));
  EXPECT_EQ(park_ceil_ms(microseconds(1001)), milliseconds(2));
  EXPECT_EQ(park_ceil_ms(microseconds(250)), milliseconds(1));
  EXPECT_EQ(park_ceil_ms(microseconds(0)), milliseconds(1));
}

TEST(RtServer, ArenaClientCompletesVecaddRoundTrip) {
  const std::string prefix = unique_prefix("arena");
  RtServerConfig config =
      server_config(prefix, 1, 2, ipc::TransportKind::kShmRing);
  config.arena_size = 1 * kMiB;
  RtServer server(config, builtin_registry());
  ASSERT_TRUE(server.start().ok());

  const long n = 512;
  auto ctx = RtClientContext::open(prefix);
  ASSERT_TRUE(ctx.ok()) << ctx.status().to_string();
  RtClientOptions options;
  options.transport = ipc::TransportKind::kShmRing;
  options.arena = true;
  auto client = RtClient::connect(*ctx, 0, 2 * n * 4, n * 4, options);
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  auto kid = builtin_registry().id_of("vecadd");
  ASSERT_TRUE(kid.ok());
  const std::int64_t params[4] = {n, 0, 0, 0};
  ASSERT_TRUE(client->req(*kid, params).ok());
  // The grant landed inside the pooled arena, the ack came through a
  // handshake mailbox, and the session rides the ring from here on.
  EXPECT_TRUE(client->in_arena());
  EXPECT_EQ(client->transport(), ipc::TransportKind::kShmRing);
  EXPECT_NE(client->session(), 0);

  auto* in = reinterpret_cast<float*>(client->input().data());
  const auto un = static_cast<std::size_t>(n);
  for (std::size_t i = 0; i < 2 * un; ++i) {
    in[i] = static_cast<float>(i) * 0.25f;
  }
  ASSERT_TRUE(client->snd().ok());
  ASSERT_TRUE(client->str().ok());
  ASSERT_TRUE(client->wait_done().ok());
  ASSERT_TRUE(client->rcv().ok());
  const auto* out = reinterpret_cast<const float*>(client->output().data());
  for (std::size_t i = 0; i < un; ++i) {
    ASSERT_EQ(out[i], in[i] + in[un + i]) << "element " << i;
  }
  EXPECT_TRUE(client->rls().ok());

  server.stop();
  EXPECT_EQ(server.stats().arena_grants.load(), 1);
  EXPECT_GE(server.stats().mailbox_acks.load(), 1);
  EXPECT_GT(server.stats().ring_requests.load(), 0);
}

TEST(RtServer, SessionChurnReusesSlotsWithFreshGenerations) {
  const std::string prefix = unique_prefix("churn");
  constexpr int kSlots = 16;
  constexpr int kAttaches = 1000;
  RtServerConfig config =
      server_config(prefix, 1, 2, ipc::TransportKind::kShmRing);
  config.max_sessions = kSlots;
  config.arena_size = 1 * kMiB;
  config.release_linger = std::chrono::milliseconds(1);
  config.lease_check_interval = std::chrono::milliseconds(5);
  RtServer server(config, builtin_registry());
  ASSERT_TRUE(server.start().ok());

  auto ctx = RtClientContext::open(prefix);
  ASSERT_TRUE(ctx.ok());
  auto kid = builtin_registry().id_of("vecadd");
  ASSERT_TRUE(kid.ok());
  const std::int64_t params[4] = {8, 0, 0, 0};

  // 1000 attach/release cycles through a 16-slot table: ids repeat, so
  // each re-REQ retires its predecessor's (lingering) session and the
  // slot recycles under a bumped generation.
  std::uint32_t max_generation = 0;
  for (int i = 0; i < kAttaches; ++i) {
    RtClientOptions options;
    options.transport = ipc::TransportKind::kShmRing;
    options.arena = true;
    auto client =
        RtClient::connect(*ctx, i % kSlots, 8 * 4 * 2, 8 * 4, options);
    ASSERT_TRUE(client.ok()) << "attach " << i;
    ASSERT_TRUE(client->req(*kid, params).ok()) << "attach " << i;
    const std::int64_t token = client->session();
    ASSERT_NE(token, 0);
    EXPECT_LT(session_slot(token), static_cast<std::uint32_t>(kSlots));
    max_generation = std::max(max_generation, session_generation(token));
    ASSERT_TRUE(client->rls().ok()) << "attach " << i;
  }
  server.stop();
  // Slots were genuinely reused (generation advanced well past 1) and
  // every retired incarnation was recycled, not leaked.
  EXPECT_GT(max_generation, 1u);
  EXPECT_EQ(server.stats().sessions_attached.load(), kAttaches);
  EXPECT_GE(server.stats().slots_recycled.load(), kAttaches - kSlots);
  EXPECT_EQ(server.stats().arena_grants.load(), kAttaches);
}

TEST(RtServer, StaleGenerationTokenIsRejected) {
  const std::string prefix = unique_prefix("stale");
  RtServer server(server_config(prefix, 1, 2), builtin_registry());
  ASSERT_TRUE(server.start().ok());

  // Drive the wire protocol by hand: RtClient never sends a stale token,
  // so the test owns the client-side queues and forges one.
  const int id = 7;
  auto resp = ipc::MessageQueue<RtResponse>::create(prefix + "_resp" +
                                                    std::to_string(id));
  ASSERT_TRUE(resp.ok());
  auto vsm = ipc::SharedMemory::create(
      prefix + "_vsm" + std::to_string(id),
      vsm_region_size(ipc::kTransportCapMqueue, 64, 64));
  ASSERT_TRUE(vsm.ok());
  auto req = ipc::MessageQueue<RtRequest>::open(prefix + "_req");
  ASSERT_TRUE(req.ok());
  auto kid = builtin_registry().id_of("vecadd");
  ASSERT_TRUE(kid.ok());

  RtRequest request;
  request.op = RtOp::kReq;
  request.client = id;
  request.kernel_id = *kid;
  request.pid = static_cast<std::int32_t>(::getpid());
  request.seq = 1;
  request.bytes_in = 64;
  request.bytes_out = 64;
  request.params[0] = 8;
  ASSERT_TRUE(req->send(request).ok());
  auto first = resp->receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->ack, RtAck::kAck);
  const std::int64_t token1 = first->session;
  ASSERT_NE(token1, 0);

  // Re-REQ (crash/reconnect path): the same id gets the same slot back
  // under a fresh generation, invalidating the first token.
  request.seq = 2;
  ASSERT_TRUE(req->send(request).ok());
  auto second = resp->receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->ack, RtAck::kAck);
  const std::int64_t token2 = second->session;
  ASSERT_NE(token2, token1);
  EXPECT_EQ(session_slot(token2), session_slot(token1));
  EXPECT_GT(session_generation(token2), session_generation(token1));

  // A verb under the recycled generation is dropped without a response.
  RtRequest stale;
  stale.op = RtOp::kSnd;
  stale.client = id;
  stale.seq = 3;
  stale.session = token1;
  ASSERT_TRUE(req->send(stale).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().stale_sessions.load() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.stats().stale_sessions.load(), 1);

  // The live token still works.
  RtRequest good = stale;
  good.seq = 4;
  good.session = token2;
  ASSERT_TRUE(req->send(good).ok());
  auto acked = resp->receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(acked.ok());
  EXPECT_EQ(acked->ack, RtAck::kAck);

  RtRequest rls = good;
  rls.op = RtOp::kRls;
  rls.seq = 5;
  ASSERT_TRUE(req->send(rls).ok());
  auto done = resp->receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->ack, RtAck::kAck);
  server.stop();
}

}  // namespace
}  // namespace vgpu::rt
