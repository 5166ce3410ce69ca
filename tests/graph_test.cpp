// Graph capture/replay tests (docs/graphs.md): wire-format determinism,
// validation rejects, replay parity against per-launch serial oracles for
// the elementwise kernels and the CG/MG iteration chains, launch fusion,
// multi-part uploads, and the jittered-retry determinism contract.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kernels/cg.hpp"
#include "kernels/mg.hpp"
#include "rt/client.hpp"
#include "rt/graph.hpp"
#include "rt/registry.hpp"
#include "rt/server.hpp"

namespace vgpu::rt {
namespace {

std::string unique_prefix(const char* tag) {
  return std::string("/vgpu_graph_") + tag + "_" + std::to_string(::getpid());
}

RtServerConfig server_config(const std::string& prefix, int clients,
                             int workers,
                             ExecMode exec = ExecMode::kSerial,
                             DataPlane plane = DataPlane::kStaged) {
  RtServerConfig config;
  config.prefix = prefix;
  config.expected_clients = clients;
  config.workers = workers;
  config.exec = exec;
  config.data_plane = plane;
  return config;
}

int kernel_id(const char* name) {
  auto id = builtin_registry().id_of(name);
  VGPU_ASSERT(id.ok());
  return *id;
}

RtGraphNode kernel_node(int kid, std::int64_t n, std::int64_t src_offset,
                        std::int64_t src_bytes, std::int64_t dst_offset,
                        std::int64_t dst_bytes,
                        std::initializer_list<int> deps = {}) {
  RtGraphNode node;
  node.kind = static_cast<std::int32_t>(GraphNodeKind::kKernel);
  node.kernel_id = kid;
  node.params[0] = n;
  node.src_offset = src_offset;
  node.src_bytes = src_bytes;
  node.dst_offset = dst_offset;
  node.dst_bytes = dst_bytes;
  node.dep_count = static_cast<std::int32_t>(deps.size());
  int d = 0;
  for (int dep : deps) node.deps[d++] = dep;
  return node;
}

RtGraphNode copy_node(std::int64_t src_offset, std::int64_t dst_offset,
                      std::int64_t bytes,
                      std::initializer_list<int> deps = {}) {
  RtGraphNode node;
  node.kind = static_cast<std::int32_t>(GraphNodeKind::kCopy);
  node.src_offset = src_offset;
  node.src_bytes = bytes;
  node.dst_offset = dst_offset;
  node.dst_bytes = bytes;
  node.dep_count = static_cast<std::int32_t>(deps.size());
  int d = 0;
  for (int dep : deps) node.deps[d++] = dep;
  return node;
}

// ---------------------------------------------------------------------------
// Wire format and planning
// ---------------------------------------------------------------------------

TEST(GraphHash, DeterministicAndFieldSensitive) {
  const int vecadd = kernel_id("vecadd");
  std::vector<RtGraphNode> a = {
      kernel_node(vecadd, 64, 0, 512, 512, 256),
      copy_node(512, 0, 256, {0}),
  };
  std::vector<RtGraphNode> b = a;  // identical recording
  EXPECT_EQ(graph_hash(a), graph_hash(b));

  b[0].params[0] = 65;  // any field difference must change the hash
  EXPECT_NE(graph_hash(a), graph_hash(b));
  b = a;
  b[1].dst_offset = 8;
  EXPECT_NE(graph_hash(a), graph_hash(b));

  // Serialize/parse round trip preserves the node list and the hash.
  const std::vector<std::byte> wire = serialize_graph(a);
  auto parsed = parse_graph(wire, builtin_registry(), /*data_bytes=*/1024);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->hash, graph_hash(a));
  ASSERT_EQ(parsed->nodes.size(), a.size());
  EXPECT_EQ(0, std::memcmp(parsed->nodes.data(), a.data(),
                           a.size() * sizeof(RtGraphNode)));
}

TEST(GraphPlan, RejectsMalformedGraphs) {
  const int vecadd = kernel_id("vecadd");
  KernelRegistry& reg = builtin_registry();

  // Forward dependency (cycle or corruption).
  std::vector<RtGraphNode> forward = {copy_node(0, 64, 64, {0})};
  forward[0].deps[0] = 0;  // self-dep at index 0 is "forward"
  forward[0].dep_count = 1;
  EXPECT_FALSE(plan_graph(forward, reg, 1024).ok());

  // Span outside the data area.
  std::vector<RtGraphNode> oob = {copy_node(0, 1000, 64)};
  EXPECT_FALSE(plan_graph(oob, reg, 1024).ok());

  // offset + bytes overflowing int64 must not wrap past the bounds check
  // (the fields come off the wire; the hash is client-computed).
  std::vector<RtGraphNode> wrap = {
      copy_node(std::numeric_limits<std::int64_t>::max() - 32, 0, 64)};
  EXPECT_FALSE(plan_graph(wrap, reg, 1024).ok());
  std::vector<RtGraphNode> wrap_dst = {
      copy_node(0, std::numeric_limits<std::int64_t>::max() - 32, 64)};
  EXPECT_FALSE(plan_graph(wrap_dst, reg, 1024).ok());

  // Unknown kernel id.
  std::vector<RtGraphNode> unknown = {kernel_node(9999, 8, 0, 64, 64, 32)};
  EXPECT_FALSE(plan_graph(unknown, reg, 1024).ok());

  // Kernel whose input and output spans overlap.
  std::vector<RtGraphNode> overlap = {kernel_node(vecadd, 8, 0, 64, 32, 32)};
  EXPECT_FALSE(plan_graph(overlap, reg, 1024).ok());

  // Two unordered nodes writing the same span would race at replay.
  std::vector<RtGraphNode> race = {copy_node(0, 128, 64),
                                   copy_node(64, 128, 64)};
  EXPECT_FALSE(plan_graph(race, reg, 1024).ok());

  // The same pair, ordered by a dependency, is fine.
  std::vector<RtGraphNode> ordered = {copy_node(0, 128, 64),
                                      copy_node(64, 128, 64, {0})};
  EXPECT_TRUE(plan_graph(ordered, reg, 1024).ok());

  // Empty graphs are rejected.
  EXPECT_FALSE(plan_graph({}, reg, 1024).ok());
}

TEST(GraphPlan, LevelsAndFusionChains) {
  const int vecadd = kernel_id("vecadd");
  const long n = 256;
  const std::int64_t f = static_cast<std::int64_t>(sizeof(float));
  // tmp = A + B, final = B + tmp: a classic producer/consumer elementwise
  // chain. Node 1's input span [n, 3n) covers node 0's output [2n, 3n).
  std::vector<RtGraphNode> nodes = {
      kernel_node(vecadd, n, 0, 2 * n * f, 2 * n * f, n * f),
      kernel_node(vecadd, n, n * f, 2 * n * f, 3 * n * f, n * f, {0}),
  };
  auto graph = plan_graph(nodes, builtin_registry(), 4 * n * f);
  ASSERT_TRUE(graph.ok()) << graph.status().to_string();
  EXPECT_EQ(graph->plan.level_count, 2);
  EXPECT_EQ(graph->plan.level_of[0], 0);
  EXPECT_EQ(graph->plan.level_of[1], 1);
  EXPECT_EQ(graph->plan.fuse_next[0], 1);
  EXPECT_TRUE(graph->plan.fused_tail[1]);
  EXPECT_EQ(graph->plan.kernel_nodes, 2);

  // A second consumer of node 0 breaks the sole-consumer rule: no fusion.
  std::vector<RtGraphNode> shared = nodes;
  shared.push_back(copy_node(2 * n * f, 0, n * f, {0}));
  auto unfused = plan_graph(shared, builtin_registry(), 4 * n * f);
  ASSERT_TRUE(unfused.ok()) << unfused.status().to_string();
  EXPECT_EQ(unfused->plan.fuse_next[0], -1);

  // Ping-pong (the consumer writes back into the producer's input) must
  // not fuse: shards run out of order, so the consumer's stage on one
  // block range would clobber input bytes the producer's stage on another
  // range has not yet read. Valid graph, but replayed unfused.
  std::vector<RtGraphNode> pingpong = {
      kernel_node(vecadd, n, 0, 2 * n * f, 2 * n * f, n * f),
      kernel_node(vecadd, n, 2 * n * f, 2 * n * f, n * f, n * f, {0}),
  };
  auto pp = plan_graph(pingpong, builtin_registry(), 4 * n * f);
  ASSERT_TRUE(pp.ok()) << pp.status().to_string();
  EXPECT_EQ(pp->plan.fuse_next[0], -1);

  // The clobber guard is transitive: node 2 chains cleanly onto node 1,
  // but writes into node 0's read span, so the chain stops at node 1.
  std::vector<RtGraphNode> transitive = {
      kernel_node(vecadd, n, 0, 2 * n * f, 2 * n * f, n * f),
      kernel_node(vecadd, n, 2 * n * f, n * f, 3 * n * f, n * f, {0}),
      kernel_node(vecadd, n, 3 * n * f, n * f, n * f, n * f, {1}),
  };
  auto trans = plan_graph(transitive, builtin_registry(), 4 * n * f);
  ASSERT_TRUE(trans.ok()) << trans.status().to_string();
  EXPECT_EQ(trans->plan.fuse_next[0], 1);
  EXPECT_EQ(trans->plan.fuse_next[1], -1);
}

// ---------------------------------------------------------------------------
// Capture determinism (client API)
// ---------------------------------------------------------------------------

TEST(GraphCapture, SameSequenceHashesEqual) {
  const std::string prefix = unique_prefix("capture");
  RtServer server(server_config(prefix, 2, 1), builtin_registry());
  ASSERT_TRUE(server.start().ok());
  {
    const long n = 128;
    const std::int64_t params[4] = {n, 0, 0, 0};
    std::uint64_t hashes[2] = {0, 0};
    for (int c = 0; c < 2; ++c) {
      auto client = RtClient::connect(prefix, c, 2 * n * 4, n * 4);
      ASSERT_TRUE(client.ok());
      ASSERT_TRUE(client->req(kernel_id("vecadd"), params).ok());
      // The verb mirror: SND/STR/STP/RCV record one kernel node.
      ASSERT_TRUE(client->begin_capture().ok());
      ASSERT_TRUE(client->snd().ok());
      ASSERT_TRUE(client->str().ok());
      ASSERT_TRUE(client->wait_done().ok());
      ASSERT_TRUE(client->rcv().ok());
      auto hash = client->end_capture();
      ASSERT_TRUE(hash.ok()) << hash.status().to_string();
      hashes[c] = *hash;
      EXPECT_EQ(client->captured().size(), 1u);
      ASSERT_TRUE(client->rls().ok());
    }
    EXPECT_EQ(hashes[0], hashes[1]);
  }
  server.stop();
}

// ---------------------------------------------------------------------------
// Replay parity
// ---------------------------------------------------------------------------

/// Runs `kid` once per-launch (SND/STR/STP/RCV) and once as a single-node
/// graph on a second client with identical input bytes; returns true when
/// the two output areas match bitwise.
bool single_node_parity(const std::string& prefix, const char* kernel,
                        long n, Bytes bytes_in, Bytes bytes_out) {
  const int kid = kernel_id(kernel);
  const std::int64_t params[4] = {n, 0, 0, 0};
  std::vector<std::byte> input(static_cast<std::size_t>(bytes_in));
  Rng rng(7);
  auto* f = reinterpret_cast<float*>(input.data());
  for (std::size_t i = 0; i < input.size() / 4; ++i) {
    f[i] = static_cast<float>(rng.uniform(0.1, 4.0));
  }

  auto serial = RtClient::connect(prefix, 0, bytes_in, bytes_out);
  if (!serial.ok()) return false;
  if (!serial->req(kid, params).ok()) return false;
  std::memcpy(serial->input().data(), input.data(), input.size());
  if (!serial->snd().ok() || !serial->str().ok() ||
      !serial->wait_done().ok() || !serial->rcv().ok()) {
    return false;
  }
  std::vector<std::byte> expected(serial->output().begin(),
                                  serial->output().end());
  if (!serial->rls().ok()) return false;

  auto graph = RtClient::connect(prefix, 1, bytes_in, bytes_out);
  if (!graph.ok()) return false;
  if (!graph->req(kid, params).ok()) return false;
  if (!graph->begin_capture().ok()) return false;
  if (!graph->snd().ok() || !graph->str().ok() || !graph->wait_done().ok() ||
      !graph->rcv().ok()) {
    return false;
  }
  if (!graph->end_capture().ok()) return false;
  // Upload clobbers the input area, so write the payload afterwards.
  if (!graph->upload_graph(/*graph_id=*/1).ok()) return false;
  std::memcpy(graph->input().data(), input.data(), input.size());
  if (!graph->launch_graph(1).ok()) return false;
  const bool match =
      std::memcmp(graph->output().data(), expected.data(), expected.size()) ==
      0;
  return graph->rls().ok() && match;
}

TEST(GraphReplay, ElementwiseKernelsMatchPerLaunchBitwise) {
  const std::string prefix = unique_prefix("elem");
  // Clients run one after another, so the flush barrier must be width 1.
  RtServer server(server_config(prefix, 1, 2), builtin_registry());
  ASSERT_TRUE(server.start().ok());
  const long n = 1024;
  EXPECT_TRUE(single_node_parity(prefix, "vecadd", n, 2 * n * 4, n * 4));
  EXPECT_TRUE(single_node_parity(prefix, "saxpy", n, 2 * n * 4, n * 4));
  EXPECT_TRUE(
      single_node_parity(prefix, "blackscholes", n, 3 * n * 4, 2 * n * 4));
  server.stop();
  EXPECT_EQ(server.stats().graph_replays.load(), 3);
  EXPECT_EQ(server.stats().graphs_cached.load(), 3);
  EXPECT_EQ(server.stats().graph_nodes_live.load(), 0);
  EXPECT_EQ(server.stats().graphs_reclaimed.load(), 3);
}

TEST(GraphReplay, FusedChainMatchesSerialAndCountsFusion) {
  for (const ExecMode exec : {ExecMode::kSerial, ExecMode::kSharded}) {
    const std::string prefix = unique_prefix(
        exec == ExecMode::kSerial ? "fuse_s" : "fuse_e");
    RtServer server(server_config(prefix, 1, 2, exec), builtin_registry());
    ASSERT_TRUE(server.start().ok());
    {
      const long n = 4096;
      const std::int64_t f = 4;
      const int vecadd = kernel_id("vecadd");
      const std::int64_t params[4] = {n, 0, 0, 0};
      // in: [A|B] (2n floats), out: [tmp|final]: tmp = A+B, final = B+tmp.
      auto client = RtClient::connect(prefix, 0, 2 * n * f, 2 * n * f);
      ASSERT_TRUE(client.ok());
      ASSERT_TRUE(client->req(vecadd, params).ok());
      ASSERT_TRUE(client->begin_capture().ok());
      auto head = client->capture_kernel(vecadd, params, 0, 2 * n * f,
                                         2 * n * f, n * f);
      ASSERT_TRUE(head.ok());
      const int deps[1] = {*head};
      ASSERT_TRUE(client
                      ->capture_kernel(vecadd, params, n * f, 2 * n * f,
                                       3 * n * f, n * f, deps)
                      .ok());
      ASSERT_TRUE(client->end_capture().ok());
      ASSERT_TRUE(client->upload_graph(1).ok());

      auto* in = reinterpret_cast<float*>(client->input().data());
      Rng rng(11);
      for (long i = 0; i < 2 * n; ++i) {
        in[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
      }
      ASSERT_TRUE(client->launch_graph(1).ok());
      const auto* out = reinterpret_cast<const float*>(client->output().data());
      const auto un = static_cast<std::size_t>(n);
      for (std::size_t i = 0; i < un; ++i) {
        const float tmp = in[i] + in[un + i];
        ASSERT_EQ(out[i], tmp) << "tmp lane " << i;
        ASSERT_EQ(out[un + i], in[un + i] + tmp) << "final lane " << i;
      }
      ASSERT_TRUE(client->rls().ok());
    }
    server.stop();
    // The consumer node's data pass merged into the producer's sweep.
    EXPECT_EQ(server.stats().graph_nodes_fused.load(), 1)
        << exec_mode_name(exec);
    EXPECT_EQ(server.stats().graph_nodes_run.load(), 2);
  }
}

TEST(GraphReplay, IndependentNodesOfOneLevelMatchTheirOracle) {
  // Four unordered vecadds form one level: sharded mode runs them as one
  // engine launch, one block per node; serial mode runs them in order.
  constexpr long kNodes = 4;
  const long n = 1 << 16;
  const Bytes bytes_in = kNodes * 2 * n * 4;
  const int vecadd = kernel_id("vecadd");
  const std::int64_t params[4] = {n, 0, 0, 0};
  std::vector<RtGraphNode> nodes;
  for (long k = 0; k < kNodes; ++k) {
    nodes.push_back(kernel_node(vecadd, n, k * 2 * n * 4, 2 * n * 4,
                                bytes_in + k * n * 4, n * 4));
  }
  for (const ExecMode exec : {ExecMode::kSerial, ExecMode::kSharded}) {
    const std::string prefix = unique_prefix(exec_mode_name(exec));
    RtServer server(server_config(prefix, 1, 4, exec), builtin_registry());
    ASSERT_TRUE(server.start().ok());
    {
      auto client = RtClient::connect(prefix, 0, bytes_in, kNodes * n * 4);
      ASSERT_TRUE(client.ok());
      ASSERT_TRUE(client->req(vecadd, params).ok());
      ASSERT_TRUE(client->upload_graph(3, nodes).ok());
      auto* in = reinterpret_cast<float*>(client->input().data());
      for (long i = 0; i < 2 * kNodes * n; ++i) {
        in[i] = 0.25f * static_cast<float>(i % 97);
      }
      ASSERT_TRUE(client->launch_graph(3).ok());
      const auto* out = reinterpret_cast<const float*>(client->output().data());
      for (long i = 0; i < kNodes * n; ++i) {
        const float* a = in + 2 * n * (i / n) + i % n;
        ASSERT_EQ(out[i], a[0] + a[n]) << exec_mode_name(exec) << " " << i;
      }
      ASSERT_TRUE(client->rls().ok());
    }
    server.stop();
    EXPECT_EQ(server.stats().graph_nodes_run.load(), kNodes);
  }
}

TEST(GraphReplay, MgIterationChainMatchesPerLaunchAndBuiltin) {
  const std::string prefix = unique_prefix("mg");
  RtServer server(server_config(prefix, 1, 2), builtin_registry());
  ASSERT_TRUE(server.start().ok());
  {
    const int n = 16;
    const int iters = 4;
    const std::int64_t cells =
        static_cast<std::int64_t>(n) * n * n * 8;  // bytes per grid
    const int mg_step = kernel_id("mg_step");
    const std::int64_t params[4] = {n, 0, 0, 0};
    const kernels::Grid3 rhs = kernels::mg_make_rhs(n);

    // Per-launch oracle: K SND/STR/STP/RCV rounds, feeding u' back into
    // the u slot client-side between rounds.
    auto serial = RtClient::connect(prefix, 0, 2 * cells, cells);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(serial->req(mg_step, params).ok());
    std::memset(serial->input().data(), 0, static_cast<std::size_t>(cells));
    std::memcpy(serial->input().data() + cells, rhs.data().data(),
                static_cast<std::size_t>(cells));
    for (int it = 0; it < iters; ++it) {
      ASSERT_TRUE(serial->snd().ok());
      ASSERT_TRUE(serial->str().ok());
      ASSERT_TRUE(serial->wait_done().ok());
      ASSERT_TRUE(serial->rcv().ok());
      std::memcpy(serial->input().data(), serial->output().data(),
                  static_cast<std::size_t>(cells));
    }
    std::vector<std::byte> expected(serial->output().begin(),
                                    serial->output().end());
    ASSERT_TRUE(serial->rls().ok());

    // Graph client: K kernel nodes chained through u' -> u copy nodes,
    // fired as ONE control message.
    auto graph = RtClient::connect(prefix, 1, 2 * cells, cells);
    ASSERT_TRUE(graph.ok());
    ASSERT_TRUE(graph->req(mg_step, params).ok());
    ASSERT_TRUE(graph->begin_capture().ok());
    int prev_copy = -1;
    for (int it = 0; it < iters; ++it) {
      auto k = graph->capture_kernel(
          mg_step, params, 0, 2 * cells, 2 * cells, cells,
          prev_copy >= 0 ? std::span<const int>(&prev_copy, 1)
                         : std::span<const int>());
      ASSERT_TRUE(k.ok());
      if (it + 1 < iters) {
        const int dep[1] = {*k};
        auto c = graph->capture_copy(2 * cells, 0, cells, dep);
        ASSERT_TRUE(c.ok());
        prev_copy = *c;
      }
    }
    ASSERT_TRUE(graph->end_capture().ok());
    ASSERT_TRUE(graph->upload_graph(7).ok());
    std::memset(graph->input().data(), 0, static_cast<std::size_t>(cells));
    std::memcpy(graph->input().data() + cells, rhs.data().data(),
                static_cast<std::size_t>(cells));
    ASSERT_TRUE(graph->launch_graph(7).ok());
    EXPECT_EQ(0, std::memcmp(graph->output().data(), expected.data(),
                             expected.size()));
    ASSERT_TRUE(graph->rls().ok());

    // Both equal the builtin mg_vcycle kernel iterating internally.
    std::vector<double> builtin(static_cast<std::size_t>(n) * n * n);
    {
      kernels::Grid3 u(n);
      u.fill(0.0);
      for (int it = 0; it < iters; ++it) kernels::mg_vcycle(u, rhs);
      builtin = u.data();
    }
    EXPECT_EQ(0, std::memcmp(expected.data(), builtin.data(),
                             expected.size()));
  }
  server.stop();
  EXPECT_GE(server.stats().graph_messages_saved.load(), 4 * 4 - 1);
}

TEST(GraphReplay, CgIterationChainMatchesPerLaunchAndSolver) {
  const std::string prefix = unique_prefix("cg");
  RtServer server(server_config(prefix, 1, 2), builtin_registry());
  ASSERT_TRUE(server.start().ok());
  {
    const int n = 256;
    const int nz = 6;
    const int iters = 5;
    const std::int64_t vec = static_cast<std::int64_t>(n) * 8;
    const int cg_step = kernel_id("cg_step");
    const std::int64_t params[4] = {n, nz, 0, 0};
    // b = 1 (the NPB-style all-ones right-hand side).
    std::vector<double> b(static_cast<std::size_t>(n), 1.0);

    const auto seed_input = [&](RtClient& client) {
      auto* d = reinterpret_cast<double*>(client.input().data());
      for (int i = 0; i < n; ++i) {
        d[i] = b[static_cast<std::size_t>(i)];          // b
        d[n + i] = 0.0;                                 // x = 0
        d[2 * n + i] = b[static_cast<std::size_t>(i)];  // r = b
        d[3 * n + i] = b[static_cast<std::size_t>(i)];  // p = b
      }
    };

    // Per-launch oracle with client-side feedback copies.
    auto serial = RtClient::connect(prefix, 0, 4 * vec, 3 * vec);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(serial->req(cg_step, params).ok());
    seed_input(*serial);
    for (int it = 0; it < iters; ++it) {
      ASSERT_TRUE(serial->snd().ok());
      ASSERT_TRUE(serial->str().ok());
      ASSERT_TRUE(serial->wait_done().ok());
      ASSERT_TRUE(serial->rcv().ok());
      // x' r' p' back into the x r p slots.
      std::memcpy(serial->input().data() + vec, serial->output().data(),
                  static_cast<std::size_t>(3 * vec));
    }
    std::vector<std::byte> expected(serial->output().begin(),
                                    serial->output().end());
    ASSERT_TRUE(serial->rls().ok());

    // Graph client: kernel + three feedback copies per iteration.
    auto graph = RtClient::connect(prefix, 1, 4 * vec, 3 * vec);
    ASSERT_TRUE(graph.ok());
    ASSERT_TRUE(graph->req(cg_step, params).ok());
    ASSERT_TRUE(graph->begin_capture().ok());
    std::vector<int> prev;  // the previous iteration's copy nodes
    for (int it = 0; it < iters; ++it) {
      auto k = graph->capture_kernel(
          cg_step, params, 0, 4 * vec, 4 * vec, 3 * vec,
          std::span<const int>(prev.data(), prev.size()));
      ASSERT_TRUE(k.ok()) << k.status().to_string();
      prev.clear();
      if (it + 1 < iters) {
        const int dep[1] = {*k};
        for (int slot = 0; slot < 3; ++slot) {  // x' r' p' -> x r p
          auto c = graph->capture_copy((4 + slot) * vec, (1 + slot) * vec,
                                       vec, dep);
          ASSERT_TRUE(c.ok()) << c.status().to_string();
          prev.push_back(*c);
        }
      }
    }
    ASSERT_TRUE(graph->end_capture().ok());
    ASSERT_TRUE(graph->upload_graph(3).ok());
    seed_input(*graph);
    ASSERT_TRUE(graph->launch_graph(3).ok());
    EXPECT_EQ(0, std::memcmp(graph->output().data(), expected.data(),
                             expected.size()));

    // The x' column equals cg_solve after the same iteration count.
    const kernels::CsrMatrix a = kernels::cg_make_matrix(n, nz, 10.0);
    std::vector<double> x(static_cast<std::size_t>(n));
    kernels::cg_solve(a, b, x, iters);
    EXPECT_EQ(0, std::memcmp(graph->output().data(), x.data(),
                             static_cast<std::size_t>(vec)));
    ASSERT_TRUE(graph->rls().ok());
  }
  server.stop();
}

// ---------------------------------------------------------------------------
// Upload and bookkeeping
// ---------------------------------------------------------------------------

TEST(GraphUpload, MultiPartUploadAndReplay) {
  const std::string prefix = unique_prefix("chunks");
  RtServer server(server_config(prefix, 1, 1), builtin_registry());
  ASSERT_TRUE(server.start().ok());
  {
    // A 40-copy bucket brigade whose serialized form (~24 + 40*96 bytes)
    // far outgrows the 256-byte input area: the upload must chunk.
    const Bytes bytes_in = 256;
    const Bytes bytes_out = 4096;
    const int hops = 40;
    auto client = RtClient::connect(prefix, 0, bytes_in, bytes_out);
    ASSERT_TRUE(client.ok());
    const std::int64_t params[4] = {1, 0, 0, 0};
    ASSERT_TRUE(client->req(kernel_id("sleep_ms"), params).ok());

    std::vector<RtGraphNode> nodes;
    for (int i = 0; i < hops; ++i) {
      nodes.push_back(copy_node(i * 64, (i + 1) * 64, 64,
                                i > 0 ? std::initializer_list<int>{i - 1}
                                      : std::initializer_list<int>{}));
    }
    const auto wire_bytes = serialize_graph(nodes).size();
    ASSERT_GT(wire_bytes, static_cast<std::size_t>(bytes_in));
    ASSERT_TRUE(client->upload_graph(5, nodes).ok());
    const long chunks = server.stats().graph_uploads.load();
    EXPECT_EQ(chunks, static_cast<long>(
                          (wire_bytes + bytes_in - 1) / bytes_in));
    EXPECT_EQ(server.stats().graphs_cached.load(), 1);

    std::byte pattern[64];
    for (int i = 0; i < 64; ++i) pattern[i] = static_cast<std::byte>(i * 3);
    std::memcpy(client->input().data(), pattern, sizeof(pattern));
    ASSERT_TRUE(client->launch_graph(5).ok());
    // The block marched hops slots forward; slot `hops` starts at byte
    // hops*64, which sits (hops*64 - bytes_in) into the output area.
    EXPECT_EQ(0, std::memcmp(client->output().data() + hops * 64 - bytes_in,
                             pattern, sizeof(pattern)));
    ASSERT_TRUE(client->rls().ok());
  }
  server.stop();
  EXPECT_EQ(server.stats().graph_nodes_live.load(), 0);
}

TEST(GraphUpload, RejectsGarbageAndUnknownLaunch) {
  const std::string prefix = unique_prefix("reject");
  RtServer server(server_config(prefix, 1, 1), builtin_registry());
  ASSERT_TRUE(server.start().ok());
  {
    auto client = RtClient::connect(prefix, 0, 1024, 1024);
    ASSERT_TRUE(client.ok());
    const std::int64_t params[4] = {1, 0, 0, 0};
    ASSERT_TRUE(client->req(kernel_id("sleep_ms"), params).ok());

    // Launching a graph id that was never uploaded is an error, not a hang.
    EXPECT_FALSE(client->launch_graph(42).ok());

    // A graph whose node spans exceed this session's data area is rejected
    // at upload time (validation is per-session).
    std::vector<RtGraphNode> oob = {copy_node(0, 4096, 64)};
    EXPECT_FALSE(client->upload_graph(1, oob).ok());
    ASSERT_TRUE(client->rls().ok());
  }
  server.stop();
  EXPECT_GE(server.stats().graphs_rejected.load(), 1);
  EXPECT_EQ(server.stats().graphs_cached.load(), 0);
}

// ---------------------------------------------------------------------------
// Retry backoff jitter
// ---------------------------------------------------------------------------

TEST(RtBackoff, DeterministicJitteredAndBounded) {
  RtBackoff a, b;
  a.base = std::chrono::microseconds(500);
  b.base = std::chrono::microseconds(500);
  a.seed(42);
  b.seed(42);
  std::vector<long> draws;
  long prev = 500;
  for (int i = 0; i < 32; ++i) {
    const auto da = a.next();
    const auto db = b.next();
    EXPECT_EQ(da, db) << "same seed must replay the same schedule";
    EXPECT_GE(da.count(), 500) << "never below base";
    EXPECT_LE(da.count(), 100'000) << "never above the cap";
    EXPECT_LE(da.count(), std::max<long>(3 * prev, 500))
        << "decorrelated growth bound";
    prev = da.count();
    draws.push_back(da.count());
  }
  // A different seed must produce a different schedule (jitter, not a
  // fixed exponential ramp).
  RtBackoff c;
  c.base = std::chrono::microseconds(500);
  c.seed(43);
  bool any_diff = false;
  for (std::size_t i = 0; i < draws.size(); ++i) {
    if (c.next().count() != draws[i]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace vgpu::rt
