#include "cluster/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "gvm/gvm.hpp"
#include "vcuda/runtime.hpp"

namespace vgpu::cluster {

namespace {

/// EpResult <-> flat doubles for the allreduce (13 lanes: sx, sy,
/// accepted, q[0..9]; counts are exact in doubles far beyond 2^32).
std::vector<double> pack(const kernels::EpResult& r) {
  std::vector<double> v(13);
  v[0] = r.sx;
  v[1] = r.sy;
  v[2] = static_cast<double>(r.pairs_accepted);
  for (std::size_t i = 0; i < r.q.size(); ++i) {
    v[3 + i] = static_cast<double>(r.q[i]);
  }
  return v;
}

kernels::EpResult unpack(const std::vector<double>& v) {
  VGPU_ASSERT(v.size() == 13);
  kernels::EpResult r;
  r.sx = v[0];
  r.sy = v[1];
  r.pairs_accepted = static_cast<long>(v[2]);
  for (std::size_t i = 0; i < r.q.size(); ++i) {
    r.q[i] = static_cast<long>(v[3 + i]);
  }
  return r;
}

/// Rank `rank`'s EP tally for class `m` over `ranks` ranks. A partition is
/// host compute the simulated kernel body must deliver, and the same
/// (m, ranks) partition is requested again by every run that repeats it
/// (native and virtualized, each bench rep), so the tallies of all ranks
/// of a key are computed once, in parallel on the host's cores. Each rank
/// still comes from its own ep_chunk_range call, so every tally is bitwise
/// the sequential one.
const kernels::EpResult& ep_tally(int m, int rank, int ranks) {
  static std::mutex mu;
  static std::map<std::pair<int, int>, std::vector<kernels::EpResult>> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto [it, fresh] = cache.try_emplace({m, ranks});
  std::vector<kernels::EpResult>& tallies = it->second;
  if (fresh) {
    tallies.resize(static_cast<std::size_t>(ranks));
    const int workers = std::clamp(
        static_cast<int>(std::thread::hardware_concurrency()), 1, ranks);
    std::atomic<int> next{0};
    std::vector<std::jthread> pool;  // joined on every exit from this block
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (int r = next++; r < ranks; r = next++) {
          tallies[static_cast<std::size_t>(r)] =
              kernels::ep_chunk_range(m, r, ranks);
        }
      });
    }
  }
  return tallies[static_cast<std::size_t>(rank)];
}

/// Per-rank EP kernel: the class-B cost scaled to this rank's partition.
gvm::TaskPlan rank_plan(int m, int rank, int ranks,
                        kernels::EpResult* out) {
  gvm::TaskPlan plan;
  plan.bytes_out = static_cast<Bytes>(sizeof(kernels::EpResult));
  plan.backed = true;
  plan.output = out;
  gpu::KernelLaunch launch = kernels::ep_launch(m);
  launch.cost.flops_per_thread /= static_cast<double>(ranks);
  plan.kernels = {launch};
  plan.kernel_body = [m, rank, ranks](gvm::TaskBuffers& buffers) {
    auto* result = buffers.out->as<kernels::EpResult>();
    VGPU_ASSERT(result != nullptr);
    *result = ep_tally(m, rank, ranks);
  };
  return plan;
}

struct NodeRig {
  std::unique_ptr<gpu::Device> device;
  std::unique_ptr<vcuda::Runtime> runtime;
  std::unique_ptr<gvm::Gvm> gvm;  // only when virtualized
};

des::Task<> rank_process(des::Simulator& sim, const ClusterConfig& config,
                         int m, int rank, NodeRig& node,
                         Communicator comm, kernels::EpResult& partial,
                         kernels::EpResult& reduced,
                         des::CountdownLatch& done) {
  // --- GPU phase on the local node --------------------------------------
  gvm::TaskPlan plan = rank_plan(m, rank, config.ranks(), &partial);
  // Held to the end of the process (baseline path), as a real SPMD process
  // holds its context until exit — keeps context switches charged.
  std::unique_ptr<vcuda::Context> ctx;
  if (config.virtualized) {
    gvm::VGpuClient client(sim, *node.gvm, rank);
    co_await client.run_task(std::move(plan), 1);
  } else {
    ctx = co_await node.runtime->create_context();
    auto dev_out = ctx->malloc(plan.bytes_out, true);
    VGPU_ASSERT(dev_out.ok());
    gvm::TaskBuffers buffers{nullptr, &*dev_out};
    co_await ctx->launch_sync(plan.kernels[0],
                              [&] { plan.kernel_body(buffers); });
    co_await ctx->memcpy_d2h(plan.output, *dev_out, plan.bytes_out);
  }

  // --- cluster phase: allreduce the tallies ------------------------------
  auto summed = co_await comm.allreduce_sum(pack(partial));
  VGPU_ASSERT_MSG(summed.ok(), summed.status().to_string().c_str());
  if (rank == 0) reduced = unpack(*summed);
  done.count_down();
  co_await done.wait();  // hold node resources until every rank finishes
}

}  // namespace

ClusterResult run_cluster_ep(const ClusterConfig& config, int m) {
  VGPU_ASSERT(config.nodes >= 1 && config.cores_per_node >= 1);
  des::Simulator sim;
  Network network(sim, config.network, config.nodes);
  ClusterComm world(sim, network, config.ranks());

  std::vector<NodeRig> nodes(static_cast<std::size_t>(config.nodes));
  for (auto& rig : nodes) {
    rig.device = std::make_unique<gpu::Device>(sim, config.gpu);
    rig.runtime = std::make_unique<vcuda::Runtime>(sim, *rig.device);
    if (config.virtualized) {
      gvm::GvmConfig gvm_config;
      gvm_config.expected_clients = config.cores_per_node;
      rig.gvm = std::make_unique<gvm::Gvm>(sim, *rig.runtime, gvm_config);
      rig.gvm->start();
    }
  }

  ClusterResult result;
  std::vector<kernels::EpResult> partials(
      static_cast<std::size_t>(config.ranks()));

  sim.spawn([](des::Simulator& sim, const ClusterConfig& config, int m,
               ClusterComm& world, std::vector<NodeRig>& nodes,
               std::vector<kernels::EpResult>& partials,
               ClusterResult& result) -> des::Task<> {
    if (config.virtualized) {
      for (auto& rig : nodes) co_await rig.gvm->ready().wait();
    }
    const SimTime t0 = sim.now();
    des::CountdownLatch done(sim,
                             static_cast<std::size_t>(config.ranks()));
    for (int rank = 0; rank < config.ranks(); ++rank) {
      NodeRig& node =
          nodes[static_cast<std::size_t>(rank / config.cores_per_node)];
      sim.spawn(rank_process(sim, config, m, rank, node,
                             world.communicator(rank),
                             partials[static_cast<std::size_t>(rank)],
                             result.reduced, done));
    }
    co_await done.wait();
    result.turnaround = sim.now() - t0;
  }(sim, config, m, world, nodes, partials, result));
  sim.run();

  result.bytes_on_wire = network.bytes_on_wire();
  result.messages_on_wire = network.messages_on_wire();
  for (const auto& rig : nodes) {
    result.ctx_switches += rig.device->stats().ctx_switches;
  }
  return result;
}

}  // namespace vgpu::cluster
