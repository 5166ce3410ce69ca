// Unit tests for the grid-sharded execution engine: the Chase-Lev deque,
// shard planning and occupancy caps, parallel_for correctness, work
// stealing, participating waits (nested parallel_for), shutdown Status
// semantics, batched job submission, and shard- and job-exception
// handling.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/engine.hpp"
#include "exec/steal_deque.hpp"
#include "gpu/spec.hpp"

namespace vgpu::exec {
namespace {

TEST(StealDeque, OwnerPushPopIsLifo) {
  StealDeque<int, 8> dq;
  EXPECT_TRUE(dq.empty());
  EXPECT_TRUE(dq.push_bottom(1));
  EXPECT_TRUE(dq.push_bottom(2));
  EXPECT_TRUE(dq.push_bottom(3));
  EXPECT_EQ(dq.pop_bottom().value(), 3);
  EXPECT_EQ(dq.pop_bottom().value(), 2);
  EXPECT_EQ(dq.pop_bottom().value(), 1);
  EXPECT_FALSE(dq.pop_bottom().has_value());
  EXPECT_TRUE(dq.empty());
}

TEST(StealDeque, ThiefStealsFifo) {
  StealDeque<int, 8> dq;
  for (int i = 1; i <= 3; ++i) EXPECT_TRUE(dq.push_bottom(i));
  EXPECT_EQ(dq.steal().value(), 1);  // oldest first
  EXPECT_EQ(dq.steal().value(), 2);
  EXPECT_EQ(dq.pop_bottom().value(), 3);
  EXPECT_FALSE(dq.steal().has_value());
}

TEST(StealDeque, RejectsPushWhenFull) {
  StealDeque<int, 4> dq;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(dq.push_bottom(i));
  EXPECT_FALSE(dq.push_bottom(99));
  EXPECT_TRUE(dq.pop_bottom().has_value());
  EXPECT_TRUE(dq.push_bottom(99));  // space again after a pop
}

TEST(StealDeque, ConcurrentOwnerAndThievesSeeEveryItemOnce) {
  StealDeque<int, 1024> dq;
  constexpr int kItems = 512;
  std::atomic<long> sum{0};
  std::atomic<int> taken{0};
  std::atomic<bool> start{false};
  auto thief = [&] {
    while (!start.load()) std::this_thread::yield();
    while (taken.load() < kItems) {
      if (auto v = dq.steal()) {
        sum.fetch_add(*v);
        taken.fetch_add(1);
      }
    }
  };
  std::thread t1(thief);
  std::thread t2(thief);
  start.store(true);
  long pushed = 0;
  for (int i = 1; i <= kItems; ++i) {
    while (!dq.push_bottom(i)) {
      if (auto v = dq.pop_bottom()) {
        sum.fetch_add(*v);
        taken.fetch_add(1);
      }
    }
    pushed += i;
  }
  while (auto v = dq.pop_bottom()) {
    sum.fetch_add(*v);
    taken.fetch_add(1);
  }
  t1.join();
  t2.join();
  EXPECT_EQ(taken.load(), kItems);
  EXPECT_EQ(sum.load(), pushed);
}

TEST(ExecPlan, ShardCountBalancesAndClamps) {
  EXPECT_EQ(plan_shard_count(0, 4, 4, 0), 1);
  EXPECT_EQ(plan_shard_count(3, 4, 4, 0), 3);    // never above total
  EXPECT_EQ(plan_shard_count(1000, 4, 4, 0), 16);  // workers * oversub
  EXPECT_EQ(plan_shard_count(1000, 4, 4, 6), 6);   // occupancy cap wins
  EXPECT_EQ(plan_shard_count(1000, 4, 4, 100), 16);
}

TEST(ExecPlan, OccupancyCapMatchesDeviceModel) {
  const gpu::DeviceSpec spec = gpu::tesla_c2070();
  gpu::KernelGeometry g;
  g.grid_blocks = 1024;
  g.threads_per_block = 256;
  const long cap = occupancy_shard_cap(spec, g);
  EXPECT_GE(cap, 1);
  // The cap is the modeled device's co-resident block count, far below a
  // 1024-block grid.
  EXPECT_LT(cap, 1024);
  EXPECT_EQ(cap, gpu::compute_occupancy(spec, g).device_blocks(spec));
}

TEST(ExecEngine, ParallelForCoversRangeExactlyOnce) {
  ExecConfig config;
  config.workers = 3;
  ExecEngine engine(config);
  constexpr long kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  const Status st = engine.parallel_for(kN, [&](long b, long e) {
    for (long i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  ASSERT_TRUE(st.ok());
  for (long i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
  EXPECT_EQ(engine.stats().launches.load(), 1);
  EXPECT_GT(engine.stats().shards_executed.load(), 1);
}

TEST(ExecEngine, ShardCapLimitsFanOut) {
  ExecConfig config;
  config.workers = 4;
  ExecEngine engine(config);
  std::atomic<long> shards{0};
  ASSERT_TRUE(engine
                  .parallel_for(
                      1000, [&](long, long) { shards.fetch_add(1); }, 3)
                  .ok());
  EXPECT_EQ(shards.load(), 3);
}

TEST(ExecEngine, WorkerShardCountsSumToTotal) {
  ExecConfig config;
  config.workers = 2;
  ExecEngine engine(config);
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(engine.parallel_for(64, [](long b, long e) {
      volatile double x = 0;
      for (long i = b; i < e; ++i) x += static_cast<double>(i);
    }).ok());
  }
  engine.shutdown();
  long sum = 0;
  for (int i = 0; i <= engine.workers(); ++i) sum += engine.worker_shards(i);
  EXPECT_EQ(sum, engine.stats().shards_executed.load());
}

TEST(ExecEngine, NestedParallelForDoesNotDeadlock) {
  ExecConfig config;
  config.workers = 1;  // worst case: the outer shard occupies the worker
  ExecEngine engine(config);
  std::atomic<long> inner{0};
  const Status st = engine.parallel_for(2, [&](long b, long e) {
    for (long i = b; i < e; ++i) {
      ASSERT_TRUE(
          engine.parallel_for(8, [&](long ib, long ie) {
            inner.fetch_add(ie - ib);
          }).ok());
    }
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(inner.load(), 16);
}

TEST(ExecEngine, ExternalThreadsShareOneEngine) {
  ExecConfig config;
  config.workers = 2;
  ExecEngine engine(config);
  std::atomic<long> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        ASSERT_TRUE(engine.parallel_for(100, [&](long b, long e) {
          total.fetch_add(e - b);
        }).ok());
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 4 * 5 * 100);
}

TEST(ExecEngine, ShardExceptionPropagatesToWaiter) {
  ExecConfig config;
  config.workers = 2;
  ExecEngine engine(config);
  EXPECT_THROW(
      {
        const Status st = engine.parallel_for(16, [](long b, long) {
          if (b == 0) throw std::runtime_error("shard boom");
        });
        (void)st;
      },
      std::runtime_error);
  // The engine survives a throwing launch.
  std::atomic<long> count{0};
  ASSERT_TRUE(
      engine.parallel_for(4, [&](long b, long e) { count += e - b; }).ok());
  EXPECT_EQ(count.load(), 4);
}

TEST(ExecEngine, SubmitRunsExternalJob) {
  ExecEngine engine;
  std::atomic<bool> ran{false};
  ASSERT_TRUE(engine.submit({[&] { ran.store(true); }}).ok());
  while (!ran.load()) std::this_thread::yield();
  engine.shutdown();
  EXPECT_EQ(engine.stats().external_jobs.load(), 1);
}

TEST(ExecEngine, LaunchAfterShutdownReturnsFailedPrecondition) {
  ExecEngine engine;
  engine.shutdown();
  engine.shutdown();  // idempotent
  const Status st = engine.parallel_for(4, [](long, long) {});
  EXPECT_EQ(st.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(engine.submit({[] {}}).code(), ErrorCode::kFailedPrecondition);
}

TEST(ExecEngine, BatchSubmittedAfterShutdownIsRefused) {
  ExecEngine engine;
  engine.shutdown();
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> batch(3, [&] { ran.fetch_add(1); });
  EXPECT_EQ(engine.submit(std::move(batch)).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(engine.stats().external_jobs.load(), 0);
}

TEST(ExecEngine, ShutdownRunsAlreadyQueuedJobs) {
  ExecConfig config;
  config.workers = 1;
  ExecEngine engine(config);
  // The first job holds the only worker, so the rest are still queued
  // when shutdown() begins.
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> batch(5, [&] { ran.fetch_add(1); });
  batch[0] = [&] {
    while (!release.load()) std::this_thread::yield();
    ran.fetch_add(1);
  };
  ASSERT_TRUE(engine.submit(std::move(batch)).ok());
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.store(true);
  });
  engine.shutdown();
  releaser.join();
  EXPECT_EQ(ran.load(), 5);
}

TEST(ExecEngine, ThrowingJobLeavesTheEngineRunning) {
  ExecConfig config;
  config.workers = 1;
  ExecEngine engine(config);
  std::atomic<bool> ran{false};
  ASSERT_TRUE(engine
                  .submit({[] { throw std::runtime_error("job boom"); },
                           [&] { ran.store(true); }})
                  .ok());
  // The worker that caught the throw still runs jobs and shards.
  std::atomic<long> count{0};
  ASSERT_TRUE(
      engine.parallel_for(8, [&](long b, long e) { count += e - b; }).ok());
  EXPECT_EQ(count.load(), 8);
  engine.shutdown();
  EXPECT_TRUE(ran.load());
}

TEST(ExecEngine, ExecutorThrowsAfterShutdown) {
  ExecEngine engine;
  const ParallelFor pf = engine.executor();
  engine.shutdown();
  EXPECT_THROW(pf(4, [](long, long) {}), std::runtime_error);
}

TEST(ExecEngine, StealsHappenUnderImbalance) {
  ExecConfig config;
  config.workers = 4;
  config.oversubscribe = 8;
  ExecEngine engine(config);
  // Skewed shard costs force idle workers to steal from the loaded deque.
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(engine.parallel_for(64, [](long b, long e) {
      for (long i = b; i < e; ++i) {
        volatile double x = 0;
        const long spin = (i % 8 == 0) ? 20000 : 100;
        for (long k = 0; k < spin; ++k) x += static_cast<double>(k);
      }
    }).ok());
  }
  engine.shutdown();
  EXPECT_EQ(engine.stats().launches.load(), 20);
  EXPECT_GT(engine.stats().shards_executed.load(), 20);
}

}  // namespace
}  // namespace vgpu::exec
