// Crash-recovery tests for the hardened live GVM: forked clients SIGKILLed
// at every protocol verb boundary on both transports, lease expiry and full
// resource reclamation, barrier wave release for the survivors, bounded
// client retry against lost messages and dead servers, graceful degradation
// to DENIED under sustained admission overload, and a randomized seed sweep
// whose failures reprint as replayable --fault-plan specs.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "ipc/shm.hpp"
#include "obs/trace.hpp"
#include "rt/client.hpp"
#include "rt/registry.hpp"
#include "rt/server.hpp"

namespace vgpu::rt {
namespace {

std::string unique_prefix(const char* tag) {
  return std::string("/vgpu_rec_") + tag + "_" + std::to_string(::getpid());
}

/// Short leases so death detection fits in test time.
RtServerConfig chaos_config(const std::string& prefix, int clients,
                            ipc::TransportKind transport) {
  RtServerConfig config;
  config.prefix = prefix;
  config.expected_clients = clients;
  config.workers = 2;
  config.transport = transport;
  config.lease_timeout = std::chrono::milliseconds(250);
  config.lease_check_interval = std::chrono::milliseconds(10);
  config.release_linger = std::chrono::milliseconds(30);
  return config;
}

/// Retry options tuned for tests: fail fast against a dead server, but
/// carry enough attempts to ride out injected message loss and barrier
/// waits that only release after a lease expiry.
RtClientOptions chaos_options(ipc::TransportKind transport,
                              fault::Injector* injector = nullptr) {
  RtClientOptions options;
  options.transport = transport;
  options.op_timeout = std::chrono::milliseconds(500);
  options.max_retries = 8;
  options.fault = injector;
  return options;
}

/// One full vecadd task; returns true iff every output float is bitwise
/// equal to the serial oracle in[i] + in[n+i] computed from the same
/// deterministic per-id input (the survivors' parity check).
bool run_vecadd_client(const std::string& prefix, int id, long n,
                       RtClientOptions options) {
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

/// Forks a victim client that SIGKILLs itself at `boundary`; returns its
/// pid. The parent must waitpid it (the server's pid probe only sees the
/// death once the zombie is reaped).
pid_t fork_victim(const std::string& prefix, int id, long n,
                  ipc::TransportKind transport, fault::Point boundary) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  fault::FaultPlan plan;
  fault::Rule rule;
  rule.point = boundary;
  rule.action = fault::Action::kKill;
  plan.add(rule);
  fault::Injector injector{std::move(plan)};
  (void)run_vecadd_client(prefix, id, n, chaos_options(transport, &injector));
  ::_exit(2);  // reached only if the kill never fired
}

constexpr fault::Point kBoundaries[] = {
    fault::Point::kClientAfterReq, fault::Point::kClientAfterSnd,
    fault::Point::kClientAfterStr, fault::Point::kClientAfterStp,
    fault::Point::kClientAfterRcv,
};

// ---------------------------------------------------------------------------
// Kill sweep: 1 victim of N=8 dies at every verb boundary, on both
// transports. The 7 survivors must complete with oracle-identical results
// (the barrier wave releases once the lease expires), and the victim's
// resources must be fully reclaimed.
// ---------------------------------------------------------------------------

class KillSweep
    : public ::testing::TestWithParam<
          std::tuple<fault::Point, ipc::TransportKind>> {};

TEST_P(KillSweep, SurvivorsCompleteAndVictimIsReclaimed) {
  const auto [boundary, transport] = GetParam();
  const std::string prefix = unique_prefix("sweep");
  constexpr int kClients = 8;
  constexpr long kN = 512;
  RtServer server(chaos_config(prefix, kClients, transport),
                  builtin_registry());
  ASSERT_TRUE(server.start().ok());

  const auto t0 = std::chrono::steady_clock::now();
  const pid_t victim =
      fork_victim(prefix, kClients - 1, kN, transport, boundary);
  ASSERT_GT(victim, 0);
  std::vector<std::thread> threads;
  std::atomic<int> survivors_ok{0};
  for (int id = 0; id + 1 < kClients; ++id) {
    threads.emplace_back([&, id] {
      if (run_vecadd_client(prefix, id, kN, chaos_options(transport))) {
        survivors_ok.fetch_add(1);
      }
    });
  }
  int status = 0;
  ASSERT_EQ(::waitpid(victim, &status, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(status)) << "victim should die by SIGKILL";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  for (auto& t : threads) t.join();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(survivors_ok.load(), kClients - 1)
      << fault::point_name(boundary) << " / " << ipc::transport_name(transport);
  // The survivors' barrier must release within the lease deadline plus
  // scheduling slack — not only eventually.
  EXPECT_LT(elapsed, std::chrono::seconds(5));

  // Wait for the reclamation sweep to finish before stopping.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().clients_reclaimed.load() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.stop();
  EXPECT_EQ(server.stats().leases_expired.load(), 1);
  EXPECT_EQ(server.stats().clients_reclaimed.load(), 1);
  EXPECT_EQ(server.stats().reclaimed_bytes.load(), 3 * kN * 4);
  // The victim's kernel names are gone: nothing to attach to, no leak.
  EXPECT_FALSE(ipc::SharedMemory::open(
                   prefix + "_vsm" + std::to_string(kClients - 1), 1)
                   .ok());
}

std::string sweep_name(
    const ::testing::TestParamInfo<KillSweep::ParamType>& info) {
  std::string name = fault::point_name(std::get<0>(info.param));
  for (char& c : name) {
    if (c == '.') c = '_';
  }
  return name + "_" + ipc::transport_name(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    VerbBoundaries, KillSweep,
    ::testing::Combine(::testing::ValuesIn(kBoundaries),
                       ::testing::Values(ipc::TransportKind::kMessageQueue,
                                         ipc::TransportKind::kShmRing)),
    sweep_name);

// ---------------------------------------------------------------------------
// Arena reclamation: an arena-placed client that dies mid-protocol must
// give back its session slot AND its arena slice with the lease — at
// scale a leaked slice is a leaked segment's worth of pooled memory.
// ---------------------------------------------------------------------------

/// run_vecadd_client for arena placement: an arena client's region only
/// exists after req() granted it, so the input fill moves after REQ.
bool run_arena_vecadd_client(const std::string& prefix, int id, long n,
                             RtClientOptions options) {
  options.arena = true;
  auto client = RtClient::connect(prefix, id, 2 * n * 4, n * 4, options);
  if (!client.ok()) return false;
  auto kid = builtin_registry().id_of("vecadd");
  if (!kid.ok()) return false;
  const std::int64_t params[4] = {n, 0, 0, 0};
  if (!client->req(*kid, params).ok()) return false;
  const auto un = static_cast<std::size_t>(n);
  auto* in = reinterpret_cast<float*>(client->input().data());
  Rng rng(static_cast<std::uint64_t>(id) + 1);
  for (std::size_t i = 0; i < 2 * un; ++i) {
    in[i] = static_cast<float>(rng.uniform(-4.0, 4.0));
  }
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

/// fork_victim for the pooled-arena path: same kill plan, but the client
/// asks for arena placement (mailbox handshake, no private queues).
pid_t fork_arena_victim(const std::string& prefix, int id, long n,
                        fault::Point boundary) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  fault::FaultPlan plan;
  fault::Rule rule;
  rule.point = boundary;
  rule.action = fault::Action::kKill;
  plan.add(rule);
  fault::Injector injector{std::move(plan)};
  (void)run_arena_vecadd_client(
      prefix, id, n, chaos_options(ipc::TransportKind::kShmRing, &injector));
  ::_exit(2);  // reached only if the kill never fired
}

TEST(Recovery, ExpiredArenaLeaseRecyclesSlotAndSlice) {
  const std::string prefix = unique_prefix("arena");
  constexpr long kN = 512;
  RtServerConfig config =
      chaos_config(prefix, 2, ipc::TransportKind::kShmRing);
  config.arena_size = 1 * kMiB;
  RtServer server(config, builtin_registry());
  ASSERT_TRUE(server.start().ok());

  const pid_t victim =
      fork_arena_victim(prefix, 1, kN, fault::Point::kClientAfterSnd);
  ASSERT_GT(victim, 0);
  const bool survivor_ok = run_arena_vecadd_client(
      prefix, 0, kN, chaos_options(ipc::TransportKind::kShmRing));
  int status = 0;
  ASSERT_EQ(::waitpid(victim, &status, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_TRUE(survivor_ok);

  // Reclamation (victim) and linger GC (survivor's RLS) must both land:
  // every attached session's slot recycles and its slice frees.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((server.stats().clients_reclaimed.load() < 1 ||
          server.stats().slots_recycled.load() < 2) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.stop();
  EXPECT_EQ(server.stats().leases_expired.load(), 1);
  EXPECT_EQ(server.stats().clients_reclaimed.load(), 1);
  EXPECT_EQ(server.stats().arena_grants.load(), 2);
  EXPECT_GE(server.stats().slots_recycled.load(), 2);
  // The pooled arena is whole again: no slice leaked with the death.
  const obs::Gauge* in_use =
      server.obs().metrics().find_gauge("arena.in_use_bytes");
  ASSERT_NE(in_use, nullptr);
  EXPECT_EQ(in_use->value(), 0.0);
}

// ---------------------------------------------------------------------------
// vmem reclamation: a SIGKILLed client's pages — device frames and
// host-ledger slots alike — must come back with its lease.
// ---------------------------------------------------------------------------

TEST(Recovery, VmemKilledClientsLedgerPagesDieWithItsLease) {
  const std::string prefix = unique_prefix("vmem");
  constexpr long kN = 2048;       // 24 KiB per client: 6 pages of 4 KiB
  constexpr Bytes kPage = 4096;
  RtServerConfig config = chaos_config(prefix, 2, ipc::TransportKind::kShmRing);
  config.sched.policy = sched::Policy::kFairShare;  // no barrier: serialize
  // Detection must wait until we reap the victim (pid probe), not trip
  // the silent deadline while the survivor is still running.
  config.lease_timeout = std::chrono::milliseconds(5000);
  config.vmem.enabled = true;
  config.vmem.page_size = kPage;
  config.vmem.device_capacity = 8 * kPage;  // holds one working set, not two
  config.vmem.host_ledger = 64 * kPage;
  RtServer server(config, builtin_registry());
  ASSERT_TRUE(server.start().ok());

  // The victim runs its whole job first (working set device-resident) and
  // dies right after STP, leaving the pages cold but still owned.
  const pid_t victim = fork_victim(prefix, 1, kN, ipc::TransportKind::kShmRing,
                                   fault::Point::kClientAfterStp);
  ASSERT_GT(victim, 0);
  // Wait for the death but leave the zombie unreaped: the pid probe
  // cannot see it yet, so the victim's pages stay owned while the
  // survivor runs.
  siginfo_t info{};
  ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(victim), &info,
                     WEXITED | WNOWAIT),
            0);
  ASSERT_EQ(info.si_code, CLD_KILLED);

  // The survivor's pin must now page the dead client's cold set out to
  // the host ledger to make room (6 + 6 pages on an 8-page device).
  EXPECT_TRUE(run_vecadd_client(prefix, 0, kN,
                                chaos_options(ipc::TransportKind::kShmRing)));

  // Reap: the next lease sweep's pid probe now reclaims the victim —
  // ledger slots and all — with its lease.
  int status = 0;
  ASSERT_EQ(::waitpid(victim, &status, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(status));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().clients_reclaimed.load() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.stop();
  EXPECT_EQ(server.stats().leases_expired.load(), 1);
  EXPECT_EQ(server.stats().clients_reclaimed.load(), 1);
  EXPECT_EQ(server.stats().reclaimed_bytes.load(), 3 * kN * 4);

  const vmem::Pager* pager = server.pager();
  ASSERT_NE(pager, nullptr);
  // The victim's pages really did transit the ledger (the survivor had to
  // evict at least 4 of its 6 to pin), and only the lease-expiry path can
  // free a dead client's slots — so an empty pager proves the reclaim.
  EXPECT_GE(pager->counters().page_outs, 4);
  EXPECT_EQ(pager->resident_bytes(), 0);
  EXPECT_EQ(pager->ledger_bytes(), 0);
  // Oversubscription promise: paging, never whole-client eviction.
  const obs::Counter* whole =
      server.obs().metrics().find_counter("vmem.evictions_whole_client");
  ASSERT_NE(whole, nullptr);
  EXPECT_EQ(whole->value(), 0);
}

// Two memory domains behind one front door: concurrent clients must be
// routed across both by the spread placement (sequential ones would all
// fall back to domain 0 once the counts drain), results stay oracle-exact
// regardless of which pager served them, and the pooled vmem.* aggregates
// must equal the sum of the per-device labels so the single-device
// dashboards and CI gates keep reading true numbers.
TEST(Recovery, MultiDomainSpreadRoutesClientsAndKeepsAggregatesExact) {
  const std::string prefix = unique_prefix("mdom");
  constexpr long kN = 2048;  // 24 KiB per client: 6 pages of 4 KiB
  constexpr Bytes kPage = 4096;
  constexpr int kClients = 4;
  RtServerConfig config =
      chaos_config(prefix, kClients, ipc::TransportKind::kShmRing);
  config.sched.policy = sched::Policy::kFairShare;  // no barrier
  config.vmem.enabled = true;
  config.vmem.page_size = kPage;
  config.vmem.device_capacity = 8 * kPage;  // per domain: one set, not two
  config.vmem.host_ledger = 64 * kPage;
  config.vmem.devices = 2;
  config.placement.policy = sched::PlacementPolicy::kSpread;
  RtServer server(config, builtin_registry());
  ASSERT_TRUE(server.start().ok());
  ASSERT_EQ(server.memory_domains(), 2u);

  // All four in flight at once so the spread router sees live per-domain
  // client counts at REQ time.
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int id = 0; id < kClients; ++id) {
    threads.emplace_back([&, id] {
      if (run_vecadd_client(prefix, id, kN,
                            chaos_options(ipc::TransportKind::kShmRing))) {
        completed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  server.stop();
  EXPECT_EQ(completed.load(), kClients);

  const obs::Registry& reg = server.obs().metrics();
  auto counter = [&](const std::string& name) {
    const obs::Counter* c = reg.find_counter(name);
    EXPECT_NE(c, nullptr) << name;
    return c != nullptr ? c->value() : -1;
  };
  // Both domains took placements, and every REQ was placed exactly once.
  const long placed0 = counter("rt.device0.placements");
  const long placed1 = counter("rt.device1.placements");
  EXPECT_GT(placed0, 0);
  EXPECT_GT(placed1, 0);
  EXPECT_EQ(placed0 + placed1, kClients);
  // The pooled aggregate is the exact sum of the per-device labels.
  EXPECT_EQ(counter("vmem.faults"),
            counter("vmem.device0.faults") + counter("vmem.device1.faults"));
  EXPECT_GT(counter("vmem.faults"), 0);
  // Clean teardown on every domain: all pages released, nothing stranded
  // in either ledger, and no whole-client evictions anywhere.
  for (std::size_t d = 0; d < server.memory_domains(); ++d) {
    const vmem::Pager* pager = server.pager(d);
    ASSERT_NE(pager, nullptr);
    EXPECT_EQ(pager->resident_bytes(), 0) << "domain " << d;
    EXPECT_EQ(pager->ledger_bytes(), 0) << "domain " << d;
  }
  EXPECT_EQ(counter("vmem.evictions_whole_client"), 0);
}

// ---------------------------------------------------------------------------
// Reclamation completeness
// ---------------------------------------------------------------------------

// 100 kill/reclaim iterations against one server: every iteration's vsm
// segment, response queue, quota bytes and scheduler entry must come back,
// or iteration ~8 would already fail (mq name reuse) and the quota total
// would drift.
TEST(Recovery, HundredKillIterationsLeakNothing) {
  const std::string prefix = unique_prefix("leak");
  constexpr long kN = 64;
  constexpr int kIterations = 100;
  RtServer server(
      chaos_config(prefix, 1, ipc::TransportKind::kMessageQueue),
      builtin_registry());
  ASSERT_TRUE(server.start().ok());
  for (int i = 0; i < kIterations; ++i) {
    // Alternate the death point: before the barrier and after the grant.
    const fault::Point boundary = (i % 2 == 0)
                                      ? fault::Point::kClientAfterSnd
                                      : fault::Point::kClientAfterStr;
    const pid_t victim = fork_victim(
        prefix, 0, kN, ipc::TransportKind::kMessageQueue, boundary);
    ASSERT_GT(victim, 0);
    int status = 0;
    ASSERT_EQ(::waitpid(victim, &status, 0), victim);
    ASSERT_TRUE(WIFSIGNALED(status)) << "iteration " << i;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.stats().clients_reclaimed.load() < i + 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(server.stats().clients_reclaimed.load(), i + 1)
        << "iteration " << i << " never reclaimed";
    ASSERT_FALSE(ipc::SharedMemory::open(prefix + "_vsm0", 1).ok())
        << "vsm leaked at iteration " << i;
  }
  // A healthy client on the same id works after 100 reclamations — queues,
  // segments and quota are all genuinely reusable, not half-freed.
  EXPECT_TRUE(run_vecadd_client(
      prefix, 0, kN, chaos_options(ipc::TransportKind::kMessageQueue)));
  server.stop();
  EXPECT_EQ(server.stats().clients_reclaimed.load(), kIterations);
  EXPECT_EQ(server.stats().reclaimed_bytes.load(), kIterations * 3 * kN * 4);
  EXPECT_EQ(server.stats().leases_expired.load(), kIterations);
}

// A silent in-process client (alive pid, so the probe passes) must expire
// via the deadline path, record a kLeaseExpiry span, and be reclaimed.
TEST(Recovery, SilentClientExpiresByDeadlineWithSpan) {
  const std::string prefix = unique_prefix("silent");
  RtServerConfig config =
      chaos_config(prefix, 1, ipc::TransportKind::kMessageQueue);
  config.obs.tracing = true;
  RtServer server(config, builtin_registry());
  ASSERT_TRUE(server.start().ok());
  {
    auto client = RtClient::connect(
        prefix, 0, 64, 64, chaos_options(ipc::TransportKind::kMessageQueue));
    ASSERT_TRUE(client.ok());
    auto kid = builtin_registry().id_of("vecadd");
    const std::int64_t params[4] = {8, 0, 0, 0};
    ASSERT_TRUE(client->req(*kid, params).ok());
    // Go silent: no SND/STR, nothing queued or running, past the lease.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.stats().leases_expired.load() < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  server.stop();
  EXPECT_EQ(server.stats().leases_expired.load(), 1);
  EXPECT_EQ(server.stats().clients_reclaimed.load(), 1);
  bool found = false;
  for (const obs::SpanRecord& span : server.obs().tracer().collect()) {
    if (span.phase == obs::Phase::kLeaseExpiry && span.lane == 0) {
      found = true;
      EXPECT_GE(span.end - span.begin,
                std::chrono::nanoseconds(
                    std::chrono::milliseconds(250)).count());
    }
  }
  EXPECT_TRUE(found) << "no kLeaseExpiry span recorded";
}

// A client with work queued or running is exempt from deadline expiry —
// only true silence (or a dead pid) expires a lease.
TEST(Recovery, BusyClientIsNotExpiredByDeadline) {
  const std::string prefix = unique_prefix("busy");
  RtServer server(
      chaos_config(prefix, 1, ipc::TransportKind::kMessageQueue),
      builtin_registry());
  ASSERT_TRUE(server.start().ok());
  auto client = RtClient::connect(
      prefix, 0, 0, 0, chaos_options(ipc::TransportKind::kMessageQueue));
  ASSERT_TRUE(client.ok());
  auto kid = builtin_registry().id_of("sleep_ms");
  ASSERT_TRUE(kid.ok());
  const std::int64_t params[4] = {600, 0, 0, 0};  // >> 250 ms lease
  ASSERT_TRUE(client->req(*kid, params).ok());
  ASSERT_TRUE(client->snd().ok());
  ASSERT_TRUE(client->str().ok());
  ASSERT_TRUE(client->wait_done().ok());
  ASSERT_TRUE(client->rls().ok());
  server.stop();
  EXPECT_EQ(server.stats().leases_expired.load(), 0);
  EXPECT_EQ(server.stats().jobs_run.load(), 1);
}

// ---------------------------------------------------------------------------
// Client-side timeout and retry
// ---------------------------------------------------------------------------

// The paper client blocked forever when the server died mid-protocol; the
// retry layer must surface kTimedOut instead, on both transports.
TEST(Recovery, DeadServerSurfacesTimedOutNotHang) {
  for (const auto transport :
       {ipc::TransportKind::kMessageQueue, ipc::TransportKind::kShmRing}) {
    const std::string prefix = unique_prefix("deadsrv");
    RtServer server(chaos_config(prefix, 1, transport), builtin_registry());
    ASSERT_TRUE(server.start().ok());
    RtClientOptions options = chaos_options(transport);
    options.op_timeout = std::chrono::milliseconds(50);
    options.max_retries = 2;
    auto client = RtClient::connect(prefix, 0, 64, 64, options);
    ASSERT_TRUE(client.ok());
    auto kid = builtin_registry().id_of("vecadd");
    const std::int64_t params[4] = {8, 0, 0, 0};
    ASSERT_TRUE(client->req(*kid, params).ok());
    server.stop();  // server dies between REQ and SND
    const Status st = client->snd();
    EXPECT_FALSE(st.ok()) << ipc::transport_name(transport);
    EXPECT_EQ(st.code(), ErrorCode::kTimedOut)
        << ipc::transport_name(transport) << ": " << st.to_string();
  }
}

// wait_done() with a done_timeout bounds the completion wait even while the
// server is alive and the job legitimately still running.
TEST(Recovery, WaitDoneHonorsDoneTimeout) {
  const std::string prefix = unique_prefix("donet");
  RtServer server(
      chaos_config(prefix, 1, ipc::TransportKind::kMessageQueue),
      builtin_registry());
  ASSERT_TRUE(server.start().ok());
  RtClientOptions options = chaos_options(ipc::TransportKind::kMessageQueue);
  options.done_timeout = std::chrono::milliseconds(50);
  auto client = RtClient::connect(prefix, 0, 0, 0, options);
  ASSERT_TRUE(client.ok());
  auto kid = builtin_registry().id_of("sleep_ms");
  const std::int64_t params[4] = {400, 0, 0, 0};
  ASSERT_TRUE(client->req(*kid, params).ok());
  ASSERT_TRUE(client->snd().ok());
  ASSERT_TRUE(client->str().ok());
  const Status st = client->wait_done();
  EXPECT_EQ(st.code(), ErrorCode::kTimedOut);
  // Let the job drain so stop() tears down cleanly.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  server.stop();
}

// A job longer than the whole retry budget, (max_retries + 1) x op_timeout,
// still completes: each same-seq resend of the parked STP gets a kWait
// heartbeat, which restarts the budget.
TEST(Recovery, HeartbeatOutlastsTheRetryBudget) {
  for (const auto transport :
       {ipc::TransportKind::kMessageQueue, ipc::TransportKind::kShmRing}) {
    SCOPED_TRACE(ipc::transport_name(transport));
    const std::string prefix = unique_prefix("beat");
    RtServer server(chaos_config(prefix, 1, transport), builtin_registry());
    ASSERT_TRUE(server.start().ok());
    RtClientOptions options = chaos_options(transport);
    options.op_timeout = std::chrono::milliseconds(50);
    options.max_retries = 2;
    auto client = RtClient::connect(prefix, 0, 0, 0, options);
    ASSERT_TRUE(client.ok());
    auto kid = builtin_registry().id_of("sleep_ms");
    const std::int64_t params[4] = {400, 0, 0, 0};  // > 3 x 50 ms
    ASSERT_TRUE(client->req(*kid, params).ok());
    ASSERT_TRUE(client->snd().ok());
    ASSERT_TRUE(client->str().ok());
    EXPECT_TRUE(client->wait_done().ok());
    EXPECT_GT(client->waits_observed(), 0);
    EXPECT_TRUE(client->rls().ok());
    server.stop();
    EXPECT_EQ(server.stats().waits_sent.load(), client->waits_observed());
    EXPECT_EQ(server.stats().jobs_run.load(), 1);
  }
}

// A server that stops while an STP is parked sends no more heartbeats: the
// wait gives up after max_retries silent resends, not when the job ends.
TEST(Recovery, StopWhileStpParkedTimesOutNotHang) {
  for (const auto transport :
       {ipc::TransportKind::kMessageQueue, ipc::TransportKind::kShmRing}) {
    SCOPED_TRACE(ipc::transport_name(transport));
    const std::string prefix = unique_prefix("parkstop");
    RtServer server(chaos_config(prefix, 1, transport), builtin_registry());
    ASSERT_TRUE(server.start().ok());
    RtClientOptions options = chaos_options(transport);
    options.op_timeout = std::chrono::milliseconds(50);
    options.max_retries = 2;
    auto client = RtClient::connect(prefix, 0, 0, 0, options);
    ASSERT_TRUE(client.ok());
    auto kid = builtin_registry().id_of("sleep_ms");
    const std::int64_t params[4] = {1000, 0, 0, 0};
    ASSERT_TRUE(client->req(*kid, params).ok());
    ASSERT_TRUE(client->snd().ok());
    ASSERT_TRUE(client->str().ok());
    Status waited = Status::Ok();
    std::chrono::steady_clock::duration elapsed{};
    std::thread waiter([&] {
      const auto t0 = std::chrono::steady_clock::now();
      waited = client->wait_done();
      elapsed = std::chrono::steady_clock::now() - t0;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.stop();  // returns once the engine has run the job out
    waiter.join();
    EXPECT_EQ(waited.code(), ErrorCode::kTimedOut) << waited.to_string();
    // (max_retries + 1) x op_timeout, plus the resend backoffs and
    // scheduling slack; well short of the 1 s job.
    EXPECT_LT(elapsed, std::chrono::milliseconds(3 * 50 + 250));
  }
}

// The completion ack itself is lost (server.respond drops the third
// response: SND ack, STR grant ack, then the completion). The same-seq
// resend replays the recorded ack, and the staged copy-out it carried
// left the output bitwise correct.
TEST(Recovery, DroppedCompletionAckIsReplayed) {
  for (const auto transport :
       {ipc::TransportKind::kMessageQueue, ipc::TransportKind::kShmRing}) {
    SCOPED_TRACE(ipc::transport_name(transport));
    const std::string prefix = unique_prefix("ackdrop");
    fault::Injector server_faults{
        fault::FaultPlan::parse("seed=5,drop@server.respond:after=2:limit=1")
            .value()};
    RtServerConfig config = chaos_config(prefix, 1, transport);
    config.lease_timeout = std::chrono::milliseconds(2000);
    config.fault = &server_faults;
    RtServer server(config, builtin_registry());
    ASSERT_TRUE(server.start().ok());
    RtClientOptions options = chaos_options(transport);
    options.op_timeout = std::chrono::milliseconds(100);
    // 1 MiB per operand: the job is still running when STP arrives, so
    // the ack that gets dropped is the parked one.
    EXPECT_TRUE(run_vecadd_client(prefix, 0, 1L << 18, options));
    server.stop();
    EXPECT_EQ(server_faults.fired(fault::Action::kDrop), 1);
    EXPECT_GE(server.stats().duplicates_absorbed.load(), 1);
    EXPECT_EQ(server.stats().jobs_run.load(), 1);
  }
}

// Injected message loss on the control plane: dropped requests are resent,
// dropped responses are replayed from the server's recorded answer, and
// the result still matches the oracle bitwise.
TEST(Recovery, ClientRetriesAbsorbDroppedMessages) {
  for (const auto transport :
       {ipc::TransportKind::kMessageQueue, ipc::TransportKind::kShmRing}) {
    const std::string prefix = unique_prefix("drop");
    // The retry cadence must outpace the lease: a client whose sends are
    // being swallowed looks silent to the server, and a lease shorter
    // than op_timeout x drops would (correctly) expire it.
    RtServerConfig config = chaos_config(prefix, 1, transport);
    config.lease_timeout = std::chrono::milliseconds(2000);
    RtServer server(config, builtin_registry());
    ASSERT_TRUE(server.start().ok());
    fault::Injector injector{
        fault::FaultPlan::parse("seed=9,drop@ctrl.send:limit=2,"
                                "drop@ctrl.recv:after=4:limit=1")
            .value()};
    RtClientOptions options = chaos_options(transport, &injector);
    options.op_timeout = std::chrono::milliseconds(100);
    EXPECT_TRUE(run_vecadd_client(prefix, 0, 256, options))
        << ipc::transport_name(transport);
    server.stop();
    EXPECT_GT(injector.fired(fault::Action::kDrop), 0);
  }
}

// Duplicated requests must be absorbed by seq-replay, not re-executed:
// the verb runs once, the duplicate gets the recorded response.
TEST(Recovery, DuplicateRequestsAreAbsorbedByReplay) {
  const std::string prefix = unique_prefix("dup");
  RtServer server(
      chaos_config(prefix, 1, ipc::TransportKind::kMessageQueue),
      builtin_registry());
  ASSERT_TRUE(server.start().ok());
  fault::Injector injector{
      fault::FaultPlan::parse("seed=9,dup@ctrl.send:limit=3").value()};
  EXPECT_TRUE(run_vecadd_client(
      prefix, 0, 256,
      chaos_options(ipc::TransportKind::kMessageQueue, &injector)));
  server.stop();
  EXPECT_GE(server.stats().duplicates_absorbed.load(), 1);
  EXPECT_EQ(server.stats().jobs_run.load(), 1);  // STR ran exactly once
}

// Server-side loss: a dropped response forces the client's same-seq retry
// through the replay path; a dropped incoming request is simply resent.
TEST(Recovery, ServerSideDropsAreSurvivable) {
  const std::string prefix = unique_prefix("sdrop");
  fault::Injector server_faults{
      fault::FaultPlan::parse("seed=3,drop@server.respond:limit=1,"
                              "drop@server.handle:after=2:limit=1")
          .value()};
  RtServerConfig config =
      chaos_config(prefix, 1, ipc::TransportKind::kMessageQueue);
  config.lease_timeout = std::chrono::milliseconds(2000);
  config.fault = &server_faults;
  RtServer server(config, builtin_registry());
  ASSERT_TRUE(server.start().ok());
  RtClientOptions options = chaos_options(ipc::TransportKind::kMessageQueue);
  options.op_timeout = std::chrono::milliseconds(100);
  EXPECT_TRUE(run_vecadd_client(prefix, 0, 256, options));
  server.stop();
  EXPECT_GT(server_faults.fired(fault::Action::kDrop), 0);
  EXPECT_EQ(server.stats().jobs_run.load(), 1);
}

// An injected exec.shard stall (straggler SM) slows a launch but must not
// change its result.
TEST(Recovery, ExecShardStallOnlySlowsTheJob) {
  const std::string prefix = unique_prefix("stall");
  fault::Injector server_faults{
      fault::FaultPlan::parse("seed=3,stall@exec.shard:p=0.5:delay_us=200")
          .value()};
  RtServerConfig config =
      chaos_config(prefix, 1, ipc::TransportKind::kMessageQueue);
  config.exec = ExecMode::kSharded;
  config.fault = &server_faults;
  RtServer server(config, builtin_registry());
  ASSERT_TRUE(server.start().ok());
  EXPECT_TRUE(run_vecadd_client(
      prefix, 0, 8192, chaos_options(ipc::TransportKind::kMessageQueue)));
  server.stop();
  EXPECT_GT(server_faults.occurrences(fault::Point::kExecShard), 0);
}

// ---------------------------------------------------------------------------
// Overload degradation
// ---------------------------------------------------------------------------

// Under sustained admission backpressure the server answers kWait a bounded
// number of times, then degrades to a firm DENIED — and recovers once the
// resident releases.
TEST(Recovery, SustainedOverloadDegradesToDeniedThenRecovers) {
  const std::string prefix = unique_prefix("deny");
  RtServerConfig config =
      chaos_config(prefix, 1, ipc::TransportKind::kMessageQueue);
  config.total_capacity = 1024;
  config.deny_after_backpressure = 3;
  RtServer server(config, builtin_registry());
  ASSERT_TRUE(server.start().ok());
  auto kid = builtin_registry().id_of("vecadd");
  const std::int64_t params[4] = {8, 0, 0, 0};

  // Resident holds 96 bytes of the 1024-byte capacity...
  auto resident = RtClient::connect(
      prefix, 0, 64, 32, chaos_options(ipc::TransportKind::kMessageQueue));
  ASSERT_TRUE(resident.ok());
  ASSERT_TRUE(resident->req(*kid, params).ok());
  // ...so a 1000-byte ask backpressures (fits capacity, not free space),
  // and after deny_after_backpressure strikes turns into DENIED.
  auto big = RtClient::connect(
      prefix, 1, 500, 500, chaos_options(ipc::TransportKind::kMessageQueue));
  ASSERT_TRUE(big.ok());
  const Status denied = big->req(*kid, params);
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.code(), ErrorCode::kInternal);  // DENIED, not a timeout
  EXPECT_GE(server.stats().backpressure.load(), 2);
  EXPECT_EQ(server.stats().denials.load(), 1);

  // Recovery: once the resident releases, the same ask is admitted.
  ASSERT_TRUE(resident->rls().ok());
  EXPECT_TRUE(big->req(*kid, params).ok());
  EXPECT_TRUE(big->rls().ok());
  server.stop();
}

// Asks that exceed total capacity outright are permanently rejected (no
// backpressure loop), and asks that fit are unaffected by the denial path.
TEST(Recovery, OversizedAskRejectedImmediately) {
  const std::string prefix = unique_prefix("oversz");
  RtServerConfig config =
      chaos_config(prefix, 1, ipc::TransportKind::kMessageQueue);
  config.total_capacity = 1024;  // the healthy 768-byte ask below fits
  RtServer server(config, builtin_registry());
  ASSERT_TRUE(server.start().ok());
  auto kid = builtin_registry().id_of("vecadd");
  const std::int64_t params[4] = {8, 0, 0, 0};
  auto big = RtClient::connect(
      prefix, 0, 1024, 1024, chaos_options(ipc::TransportKind::kMessageQueue));
  ASSERT_TRUE(big.ok());
  const Status st = big->req(*kid, params);
  EXPECT_EQ(st.code(), ErrorCode::kInternal);
  EXPECT_EQ(server.stats().backpressure.load(), 0);
  EXPECT_EQ(server.stats().denials.load(), 1);
  EXPECT_TRUE(run_vecadd_client(
      prefix, 1, 64, chaos_options(ipc::TransportKind::kMessageQueue)));
  server.stop();
}

// Injected allocation failure at REQ binding time surfaces as a rejection.
TEST(Recovery, InjectedAllocationFailureRejectsReq) {
  const std::string prefix = unique_prefix("alloc");
  fault::Injector server_faults{
      fault::FaultPlan::parse("seed=0,fail@device.alloc:limit=1").value()};
  RtServerConfig config =
      chaos_config(prefix, 1, ipc::TransportKind::kMessageQueue);
  config.fault = &server_faults;
  RtServer server(config, builtin_registry());
  ASSERT_TRUE(server.start().ok());
  auto kid = builtin_registry().id_of("vecadd");
  const std::int64_t params[4] = {8, 0, 0, 0};
  auto client = RtClient::connect(
      prefix, 0, 64, 64, chaos_options(ipc::TransportKind::kMessageQueue));
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client->req(*kid, params).code(), ErrorCode::kInternal);
  // The fault window was limit=1: the retry attaches cleanly.
  EXPECT_TRUE(client->req(*kid, params).ok());
  EXPECT_TRUE(client->rls().ok());
  server.stop();
  EXPECT_EQ(server_faults.fired(fault::Action::kFail), 1);
}

// ---------------------------------------------------------------------------
// Randomized seed sweep (the chaos property test)
// ---------------------------------------------------------------------------

/// One randomized chaos run: 7 surviving thread clients under a seeded
/// drop/delay/dup plan, plus 1 forked victim whose kill fires with p=0.6
/// at a seed-chosen verb boundary. Returns false (and prints the replay
/// specs) on any violation.
bool run_chaos_seed(std::uint64_t seed, long* jobs_run_out) {
  const std::string prefix =
      unique_prefix(("seed" + std::to_string(seed)).c_str());
  const auto transport = (seed % 2 == 0) ? ipc::TransportKind::kMessageQueue
                                         : ipc::TransportKind::kShmRing;
  constexpr int kClients = 8;
  constexpr long kN = 128;
  // Lease comfortably above the survivors' retry cadence (op_timeout
  // below): injected send-drops must read as retries, not silence. Victim
  // death detection stays fast either way — it rides the pid probe.
  RtServerConfig config = chaos_config(prefix, kClients, transport);
  config.lease_timeout = std::chrono::milliseconds(1000);
  RtServer server(config, builtin_registry());
  if (!server.start().ok()) return false;

  // Survivors share one injector: a mild mix of loss, latency and
  // duplication on the control plane.
  const std::string survivor_spec =
      "seed=" + std::to_string(seed) +
      ",drop@ctrl.send:p=0.1,dup@ctrl.send:p=0.1,"
      "delay@ctrl.recv:p=0.2:delay_us=300,drop@ctrl.recv:p=0.05";
  const std::string victim_spec =
      "seed=" + std::to_string(seed) + ",kill@" +
      fault::point_name(
          kBoundaries[seed % (sizeof(kBoundaries) / sizeof(kBoundaries[0]))]) +
      ":p=0.6:limit=1";
  auto survivor_plan = fault::FaultPlan::parse(survivor_spec);
  auto victim_plan = fault::FaultPlan::parse(victim_spec);
  if (!survivor_plan.ok() || !victim_plan.ok()) return false;
  fault::Injector injector{*survivor_plan};

  const pid_t victim = ::fork();
  if (victim == 0) {
    fault::Injector victim_injector{*victim_plan};
    const bool ok = run_vecadd_client(
        prefix, kClients - 1, kN, chaos_options(transport, &victim_injector));
    ::_exit(ok ? 0 : 2);
  }
  if (victim < 0) return false;
  RtClientOptions survivor_options = chaos_options(transport, &injector);
  survivor_options.op_timeout = std::chrono::milliseconds(100);
  std::vector<std::thread> threads;
  std::atomic<int> survivors_ok{0};
  for (int id = 0; id + 1 < kClients; ++id) {
    threads.emplace_back([&, id] {
      if (run_vecadd_client(prefix, id, kN, survivor_options)) {
        survivors_ok.fetch_add(1);
      }
    });
  }
  int status = 0;
  const bool reaped = ::waitpid(victim, &status, 0) == victim;
  for (auto& t : threads) t.join();
  // Let any pending reclamation settle before reading counters.
  const bool victim_died = reaped && WIFSIGNALED(status);
  if (victim_died) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.stats().clients_reclaimed.load() < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  server.stop();
  *jobs_run_out = server.stats().jobs_run.load();

  bool ok = true;
  if (survivors_ok.load() != kClients - 1) ok = false;
  if (!reaped) ok = false;
  // A victim that died must be detected and reclaimed; one that survived
  // must have completed the protocol cleanly (exit 0).
  if (victim_died && server.stats().clients_reclaimed.load() != 1) ok = false;
  if (reaped && !victim_died && WEXITSTATUS(status) != 0) ok = false;
  // Turnaround accounting: every survivor ran exactly one job; the victim
  // contributes at most one more.
  if (*jobs_run_out < kClients - 1 || *jobs_run_out > kClients) ok = false;
  if (!ok) {
    ADD_FAILURE() << "chaos seed " << seed << " failed (survivors="
                  << survivors_ok.load() << "/" << kClients - 1
                  << ", jobs_run=" << *jobs_run_out
                  << ", reclaimed=" << server.stats().clients_reclaimed.load()
                  << ")\n  replay survivors: --fault-plan=" << survivor_spec
                  << "\n  replay victim:    --fault-plan=" << victim_spec;
  }
  return ok;
}

void run_chaos_shard(std::uint64_t begin, std::uint64_t end) {
  long cumulative = 0;
  for (std::uint64_t seed = begin; seed < end; ++seed) {
    long jobs_run = 0;
    if (!run_chaos_seed(seed, &jobs_run)) return;  // failure already logged
    // Monotone turnaround: each seed's completed-job counter adds to the
    // running total; a lost wave would show up as a flat step.
    const long next = cumulative + jobs_run;
    ASSERT_GT(next, cumulative) << "seed " << seed;
    cumulative = next;
  }
}

// ---------------------------------------------------------------------------
// Graph replay vs. client death: a client uploads a multi-node graph, fires
// a replay whose sleep nodes outlive its own lease, and SIGKILLs itself
// mid-replay. The cached graph must die with the lease (no leaked nodes)
// and the slot must recycle cleanly for a fresh client under the same id.
// ---------------------------------------------------------------------------

TEST(GraphRecovery, KillMidReplayReclaimsCachedGraphAndRecyclesSlot) {
  const std::string prefix = unique_prefix("graphkill");
  RtServer server(chaos_config(prefix, 1, ipc::TransportKind::kMessageQueue),
                  builtin_registry());
  ASSERT_TRUE(server.start().ok());

  const pid_t victim = ::fork();
  if (victim == 0) {
    auto options = chaos_options(ipc::TransportKind::kMessageQueue);
    auto client = RtClient::connect(prefix, 0, 1024, 64, options);
    if (!client.ok()) ::_exit(2);
    auto sleep_id = builtin_registry().id_of("sleep_ms");
    if (!sleep_id.ok()) ::_exit(2);
    const std::int64_t params[4] = {200, 0, 0, 0};
    if (!client->req(*sleep_id, params).ok()) ::_exit(2);
    // Three chained 200 ms sleep nodes: the replay runs long past both
    // the kill below and the 250 ms lease.
    if (!client->begin_capture().ok()) ::_exit(2);
    int prev = -1;
    for (int i = 0; i < 3; ++i) {
      auto node = client->capture_kernel(
          *sleep_id, params, 0, 0, 0, 0,
          prev >= 0 ? std::span<const int>(&prev, 1) : std::span<const int>());
      if (!node.ok()) ::_exit(2);
      prev = *node;
    }
    if (!client->end_capture().ok()) ::_exit(2);
    if (!client->upload_graph(1).ok()) ::_exit(2);
    std::thread([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      ::raise(SIGKILL);
    }).detach();
    (void)client->launch_graph(1);  // dies mid-replay
    ::_exit(2);                     // reached only if the kill never fired
  }
  ASSERT_GT(victim, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(victim, &status, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(status)) << "victim must die by SIGKILL";

  // The replay outlives the lease; reclamation lands once the job drains.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((server.stats().graphs_reclaimed.load() < 1 ||
          server.stats().graph_nodes_live.load() != 0 ||
          server.stats().clients_reclaimed.load() < 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.stats().graphs_cached.load(), 1);
  EXPECT_GE(server.stats().graphs_reclaimed.load(), 1);
  EXPECT_EQ(server.stats().graph_nodes_live.load(), 0) << "leaked graph nodes";
  EXPECT_GE(server.stats().clients_reclaimed.load(), 1);

  // The slot recycles clean: a fresh client under the same id completes a
  // full task with correct results.
  EXPECT_TRUE(run_vecadd_client(
      prefix, 0, 512, chaos_options(ipc::TransportKind::kMessageQueue)));
  server.stop();
}

TEST(ChaosSweep, Seeds0To49) { run_chaos_shard(0, 50); }
TEST(ChaosSweep, Seeds50To99) { run_chaos_shard(50, 100); }
TEST(ChaosSweep, Seeds100To149) { run_chaos_shard(100, 150); }
TEST(ChaosSweep, Seeds150To199) { run_chaos_shard(150, 200); }

}  // namespace
}  // namespace vgpu::rt
