#include "exec/engine.hpp"

#include <algorithm>
#include <chrono>

#include "common/log.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"

namespace vgpu::exec {

namespace {

/// Which engine (if any) the current thread is a worker of, and its
/// index there. Lets nested parallel_for calls from kernel bodies land
/// on the calling worker's own deque.
thread_local const ExecEngine* tls_engine = nullptr;
thread_local int tls_worker = -1;

}  // namespace

long occupancy_shard_cap(const gpu::DeviceSpec& spec,
                         const gpu::KernelGeometry& g) {
  const gpu::Occupancy occ = gpu::compute_occupancy(spec, g);
  return std::max<long>(1, occ.device_blocks(spec));
}

long plan_shard_count(long total_blocks, int workers, int oversubscribe,
                      long max_shards) {
  long target = std::min(
      total_blocks, static_cast<long>(workers) * std::max(1, oversubscribe));
  if (max_shards > 0) target = std::min(target, max_shards);
  return std::max<long>(1, target);
}

ExecEngine::ExecEngine(ExecConfig config) : config_(config) {
  VGPU_ASSERT(config_.workers >= 1);
  deques_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    deques_.push_back(std::make_unique<StealDeque<Shard>>());
  }
  participant_shards_ =
      std::vector<std::atomic<long>>(static_cast<std::size_t>(config_.workers) + 1);
  threads_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ExecEngine::~ExecEngine() { shutdown(); }

void ExecEngine::shutdown() {
  if (stopping_.exchange(true)) return;
  ipc::Doorbell(&door_word_).ring();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

long ExecEngine::worker_shards(int i) const {
  if (i < 0 || static_cast<std::size_t>(i) >= participant_shards_.size()) {
    return 0;
  }
  return participant_shards_[static_cast<std::size_t>(i)].load(
      std::memory_order_relaxed);
}

bool ExecEngine::work_available() const {
  if (global_size_.load(std::memory_order_acquire) > 0) return true;
  for (const auto& d : deques_) {
    if (!d->empty()) return true;
  }
  return false;
}

void ExecEngine::enqueue_shards(Group& group, long total, long nshards) {
  group.pending_.store(nshards, std::memory_order_release);
  const bool local = tls_engine == this && tls_worker >= 0;
  std::vector<GlobalItem> overflow;
  for (long s = 0; s < nshards; ++s) {
    Shard shard;
    shard.group = &group;
    shard.begin = total * s / nshards;
    shard.end = total * (s + 1) / nshards;
    if (local &&
        deques_[static_cast<std::size_t>(tls_worker)]->push_bottom(shard)) {
      continue;
    }
    if (local) stats_.overflow_pushes.fetch_add(1, std::memory_order_relaxed);
    overflow.push_back(GlobalItem{shard, {}});
  }
  if (!overflow.empty()) {
    std::lock_guard<std::mutex> lock(global_mutex_);
    for (auto& item : overflow) global_.push_back(std::move(item));
    global_size_.fetch_add(static_cast<long>(overflow.size()),
                           std::memory_order_release);
  }
  ipc::Doorbell(&door_word_).ring(static_cast<int>(nshards));
}

Status ExecEngine::launch(Group& group, long total_blocks, RangeFn fn,
                          long max_shards) {
  if (stopping_.load(std::memory_order_acquire)) {
    return FailedPrecondition("exec engine is shut down");
  }
  VGPU_ASSERT_MSG(group.pending_.load(std::memory_order_relaxed) == 0,
                  "group reused before wait() completed");
  group.error_ = nullptr;
  if (total_blocks <= 0) {
    group.fn_ = nullptr;
    return Status::Ok();
  }
  group.fn_ = std::move(fn);
  stats_.launches.fetch_add(1, std::memory_order_relaxed);
  const long nshards = plan_shard_count(total_blocks, workers(),
                                       config_.oversubscribe, max_shards);
  enqueue_shards(group, total_blocks, nshards);
  return Status::Ok();
}

void ExecEngine::run_shard(const Shard& shard, int slot) {
  Group* group = shard.group;
  if (config_.fault != nullptr) {
    config_.fault->maybe_stall(fault::Point::kExecShard);
  }
  // Shard span: blocks [begin, end) on this participant's lane. Waiters
  // (slot == workers()) share the last worker lane + 1.
  const SimTime t0 =
      config_.tracer != nullptr ? config_.tracer->begin_span()
                                : obs::kSpanDisabled;
  try {
    group->fn_(shard.begin, shard.end);
  } catch (...) {
    std::lock_guard<std::mutex> lock(group->error_mutex_);
    if (group->error_ == nullptr) group->error_ = std::current_exception();
  }
  if (config_.tracer != nullptr) {
    config_.tracer->end_span(t0, obs::Phase::kShard, obs::worker_lane(slot),
                             static_cast<std::int32_t>(shard.end - shard.begin));
  }
  stats_.shards_executed.fetch_add(1, std::memory_order_relaxed);
  participant_shards_[static_cast<std::size_t>(slot)].fetch_add(
      1, std::memory_order_relaxed);
  group->pending_.fetch_sub(1, std::memory_order_acq_rel);
}

bool ExecEngine::run_one(int slot, bool take_jobs) {
  // Own deque first: cache-warm, contention-free.
  if (slot >= 0 && slot < workers()) {
    if (auto shard = deques_[static_cast<std::size_t>(slot)]->pop_bottom()) {
      run_shard(*shard, slot);
      return true;
    }
  }
  // Steal: random starting victim, then sweep.
  const int n = workers();
  const std::uint32_t seed =
      steal_seed_.fetch_add(0x9e3779b9u, std::memory_order_relaxed);
  for (int v = 0; v < n; ++v) {
    const int victim = static_cast<int>((seed + static_cast<std::uint32_t>(v)) %
                                        static_cast<std::uint32_t>(n));
    if (victim == slot) continue;
    if (auto shard = deques_[static_cast<std::size_t>(victim)]->steal()) {
      stats_.steals.fetch_add(1, std::memory_order_relaxed);
      run_shard(*shard, slot);
      return true;
    }
  }
  // Global overflow queue: overflowed shards and (for workers) external
  // jobs. Waiters skip jobs so a wait() cannot nest an unrelated kernel.
  if (global_size_.load(std::memory_order_acquire) > 0) {
    GlobalItem item;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(global_mutex_);
      for (auto it = global_.begin(); it != global_.end(); ++it) {
        if (it->job != nullptr && !take_jobs) continue;
        item = std::move(*it);
        global_.erase(it);
        global_size_.fetch_sub(1, std::memory_order_release);
        found = true;
        break;
      }
    }
    if (found) {
      if (item.job != nullptr) {
        try {
          item.job();
        } catch (...) {
          VGPU_ERROR("exec engine: external job threw an exception "
                     "(jobs must handle their own errors)");
        }
      } else {
        run_shard(item.shard, slot);
      }
      return true;
    }
  }
  return false;
}

void ExecEngine::wait(Group& group) {
  const int slot = tls_engine == this ? tls_worker : workers();
  ipc::WaitStrategy waiter(config_.wait);
  while (!group.done()) {
    if (run_one(slot, /*take_jobs=*/false)) continue;
    // Nothing runnable here: the remaining shards are executing on other
    // participants. Spin/yield briefly, then nap (no doorbell: shard
    // completions are too frequent to ring for).
    waiter.wait(
        [&] { return group.done() || work_available(); }, nullptr,
        std::chrono::steady_clock::now() + std::chrono::microseconds(100));
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(group.error_mutex_);
    error = group.error_;
    group.error_ = nullptr;
  }
  group.fn_ = nullptr;
  if (error != nullptr) std::rethrow_exception(error);
}

Status ExecEngine::parallel_for(long total_blocks, const RangeFn& fn,
                                long max_shards) {
  Group group;
  VGPU_RETURN_IF_ERROR(launch(group, total_blocks, fn, max_shards));
  wait(group);
  return Status::Ok();
}

Status ExecEngine::submit(std::vector<std::function<void()>> jobs) {
  if (stopping_.load(std::memory_order_acquire)) {
    return FailedPrecondition("exec engine is shut down");
  }
  if (jobs.empty()) return Status::Ok();
  const long n = static_cast<long>(jobs.size());
  stats_.external_jobs.fetch_add(n, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(global_mutex_);
    for (auto& job : jobs) global_.push_back(GlobalItem{{}, std::move(job)});
    global_size_.fetch_add(n, std::memory_order_release);
  }
  ipc::Doorbell(&door_word_).ring(static_cast<int>(n));
  return Status::Ok();
}

ParallelFor ExecEngine::executor(long max_shards) {
  return [this, max_shards](long total, const RangeFn& fn) {
    const Status st = parallel_for(total, fn, max_shards);
    // A kernel body cannot handle an engine shutdown mid-stage; surface
    // it like any other kernel failure and let the job wrapper catch it.
    if (!st.ok()) throw std::runtime_error(st.to_string());
  };
}

void ExecEngine::worker_loop(int index) {
  tls_engine = this;
  tls_worker = index;
  if (config_.tracer != nullptr) config_.tracer->ensure_thread();
  // An idle worker parks at once: work arrives with a doorbell ring, and
  // a spinning idle worker only takes a core from the serve loop and the
  // clients between jobs. Each park is one long futex wait: parks of the
  // default 500 us added ~3 us to every job's start (2 workers, cohorts
  // of 2 jobs, 4-vCPU VM), likely the cost of arming and cancelling the
  // CPU's nearest timer on every park and wake.
  ipc::WaitConfig idle;
  idle.spin = 0;
  idle.yields = 0;
  idle.park = std::chrono::milliseconds(10);
  ipc::WaitStrategy waiter(idle);
  ipc::Doorbell door(&door_word_);
  for (;;) {
    if (run_one(index, /*take_jobs=*/true)) continue;
    // Drain-before-exit: shutdown() only stops a worker once no work is
    // visible, so jobs queued before shutdown() still run.
    if (stopping_.load(std::memory_order_acquire)) {
      if (!work_available()) return;
      continue;
    }
    waiter.wait(
        [this] {
          return stopping_.load(std::memory_order_acquire) ||
                 work_available();
        },
        &door);
  }
}

}  // namespace vgpu::exec
