// Grid-sharded parallel kernel execution engine.
//
// The live GVM models a Fermi device: one context, up to 16 concurrent
// kernels, 14 SMs all busy when the grids allow it. The pre-engine
// runtime executed each client's kernel as one serial job on one pool
// thread, so a single large grid could never use more than one core and
// an N-client cohort saturated at N cores. This engine makes the compute
// path scale like the hardware it models:
//
//   * every launch is decomposed into block-range shards — grid blocks
//     are the shard unit, exactly the device's own unit of scheduling;
//   * shards run on a work-stealing pool: per-worker Chase-Lev deques
//     (LIFO for the owner, FIFO for thieves) with a global overflow
//     queue, idle workers parking via the shared ipc::WaitStrategy;
//   * shards-in-flight per launch are capped by the kernel's SM
//     occupancy (gpu/occupancy.hpp): a grid that could co-schedule at
//     most K blocks on the modeled device fans out to at most K shards,
//     so small-grid kernels leave workers free for other clients' work —
//     the paper's concurrent-kernel-execution story, reproduced on cores.
//
// Waiters participate: wait() executes shards instead of blocking, so a
// kernel body may call parallel_for() from inside a worker (nested
// stages, e.g. MG's stencil chain) without deadlock even on one worker.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/status.hpp"
#include "gpu/occupancy.hpp"
#include "gpu/spec.hpp"
#include "ipc/transport.hpp"

#include "exec/steal_deque.hpp"

namespace vgpu::obs {
class Tracer;
}

namespace vgpu::fault {
class Injector;
}

namespace vgpu::exec {

struct ExecConfig {
  /// Worker threads (the "SM" count of the host-side executor).
  int workers = 4;
  /// Target shards per worker per launch; >1 lets stealing even out
  /// shards of uneven cost.
  int oversubscribe = 4;
  /// Spin -> yield -> park policy of wait() joins. Idle workers between
  /// jobs skip the spin and yield phases and park on the doorbell at once,
  /// in 10 ms futex waits.
  ipc::WaitConfig wait;
  /// Optional span tracer (not owned; must outlive the engine). When set
  /// and enabled, every shard records a kShard span on its worker's lane.
  obs::Tracer* tracer = nullptr;
  /// Optional fault injector (not owned). When set, every shard consults
  /// the kExecShard point before running — a stall rule there models a
  /// straggler SM. Null costs one pointer compare per shard.
  fault::Injector* fault = nullptr;
};

struct ExecStats {
  std::atomic<long> launches{0};
  std::atomic<long> shards_executed{0};
  /// Shards acquired from another worker's deque.
  std::atomic<long> steals{0};
  /// Shards that missed the owner's deque and went to the global queue.
  std::atomic<long> overflow_pushes{0};
  /// Fire-and-forget jobs (submit()), one per granted kernel.
  std::atomic<long> external_jobs{0};
};

/// Max co-resident blocks of geometry `g` on device `spec` — the engine's
/// shards-in-flight cap for that kernel (>= 1). A kernel whose occupancy
/// is 4 blocks fans out to at most 4 shards however many workers exist.
long occupancy_shard_cap(const gpu::DeviceSpec& spec,
                         const gpu::KernelGeometry& g);

/// Balanced shard count for a launch: min(total, workers * oversubscribe,
/// cap), at least 1.
long plan_shard_count(long total_blocks, int workers, int oversubscribe,
                      long max_shards);

class ExecEngine {
 public:
  /// Completion handle for one launch(). The launching scope owns it and
  /// must wait() before destroying it (shards reference it).
  class Group {
   public:
    Group() = default;
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;
    bool done() const {
      return pending_.load(std::memory_order_acquire) == 0;
    }

   private:
    friend class ExecEngine;
    RangeFn fn_;
    std::atomic<long> pending_{0};
    std::mutex error_mutex_;
    std::exception_ptr error_;
  };

  explicit ExecEngine(ExecConfig config = {});
  ExecEngine(const ExecEngine&) = delete;
  ExecEngine& operator=(const ExecEngine&) = delete;
  ~ExecEngine();

  /// Stops the workers (drains nothing: callers must have wait()ed their
  /// groups; pending external jobs still run). Idempotent; later
  /// launch/submit calls return kFailedPrecondition.
  void shutdown();

  /// Decomposes [0, total_blocks) into shards and enqueues them on this
  /// thread's deque (worker callers) or the global queue. `max_shards`
  /// caps the fan-out (0 = uncapped); pass occupancy_shard_cap() to tie
  /// it to the modeled device. The group must outlive the wait.
  Status launch(Group& group, long total_blocks, RangeFn fn,
                long max_shards = 0);

  /// Participating wait: executes shards (own deque, steals, global
  /// overflow) until the group completes, then rethrows the first shard
  /// exception if any. Safe from workers and external threads alike.
  void wait(Group& group);

  /// launch + wait. Errors surface as exceptions (from shards) or a
  /// non-ok Status (engine shut down).
  Status parallel_for(long total_blocks, const RangeFn& fn,
                      long max_shards = 0);

  /// Queues fire-and-forget jobs (the server's granted kernels, one
  /// cohort at a time) under one lock, with one doorbell ring that wakes
  /// at most one idle worker per job. Jobs run FIFO; each handles its own
  /// errors, and a throw that escapes one is logged, not fatal.
  Status submit(std::vector<std::function<void()>> jobs);

  /// A ParallelFor bound to this engine with a fixed shard cap — what the
  /// runtime hands to sharded kernel bodies.
  ParallelFor executor(long max_shards = 0);

  int workers() const { return static_cast<int>(deques_.size()); }
  const ExecStats& stats() const { return stats_; }
  /// Shards executed by worker `i`; index workers() counts non-worker
  /// participants (threads inside wait()). The spread of these counts is
  /// the worker occupancy histogram the server prints.
  long worker_shards(int i) const;

 private:
  struct Shard {
    Group* group = nullptr;
    long begin = 0;
    long end = 0;
  };
  struct GlobalItem {
    Shard shard;                  // valid when job == nullptr
    std::function<void()> job;    // external job otherwise
  };

  void worker_loop(int index);
  void run_shard(const Shard& shard, int slot);
  /// Executes one available shard (and, when `take_jobs`, one external
  /// job). Returns false when nothing was available.
  bool run_one(int slot, bool take_jobs);
  bool work_available() const;
  void enqueue_shards(Group& group, long total, long nshards);

  ExecConfig config_;
  std::vector<std::unique_ptr<StealDeque<Shard>>> deques_;
  std::mutex global_mutex_;
  std::deque<GlobalItem> global_;
  std::atomic<long> global_size_{0};
  ipc::Doorbell::Word door_word_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stopping_{false};
  ExecStats stats_;
  /// Per-participant shard counts (workers + 1 shared external slot).
  std::vector<std::atomic<long>> participant_shards_;
  std::atomic<std::uint32_t> steal_seed_{0x9e3779b9u};
};

}  // namespace vgpu::exec
