// Unit tests of the benchmark's own arithmetic: the tail-percentile rule,
// the quartiles of the stability check, the rate-ladder decision, and
// span -> task attribution with its self-time sums.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "attribution.hpp"
#include "common/stats.hpp"
#include "stats.hpp"

namespace vgpu::bench_e2e {
namespace {

// Samples strictly above quantile q under the rank q*(n-1) rule (the
// epsilon absorbs rounding in q itself).
std::size_t beyond(std::size_t n, double q) {
  return n - 1 - static_cast<std::size_t>(
                     std::floor(q * static_cast<double>(n - 1) + 1e-9));
}

TEST(TailQuantile, P99NeedsTenSamplesBeyondIt) {
  EXPECT_DOUBLE_EQ(tail_quantile(1000), 0.99);
  EXPECT_EQ(beyond(1000, 0.99), 10u);
  EXPECT_DOUBLE_EQ(tail_quantile(100000), 0.99);
}

TEST(TailQuantile, SmallSetsFallBackToTheHighestQualifyingQuantile) {
  EXPECT_DOUBLE_EQ(tail_quantile(100), 89.0 / 99.0);
  EXPECT_DOUBLE_EQ(tail_quantile(42), 31.0 / 41.0);
  EXPECT_DOUBLE_EQ(tail_quantile(11), 0.0);
  EXPECT_DOUBLE_EQ(tail_quantile(10), 0.5);
  EXPECT_DOUBLE_EQ(tail_quantile(0), 0.5);
}

TEST(TailQuantile, IsTheHighestQuantileWithTenBeyondForEverySize) {
  for (std::size_t n = 11; n < 3000; ++n) {
    const double q = tail_quantile(n);
    ASSERT_LE(q, 0.99) << n;
    ASSERT_GE(beyond(n, q), 10u) << n;
    // Below the cap the rank sits exactly ten samples from the top, so
    // any higher quantile would leave fewer than ten beyond it.
    if (q < 0.99) {
      ASSERT_EQ(beyond(n, q), 10u) << n;
    }
  }
}

TEST(Quartiles, MatchPythonStatisticsQuantilesExclusive) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const auto q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  const auto three = quartiles({5.0, 1.0, 3.0});  // [1.0, 3.0, 5.0]
  EXPECT_DOUBLE_EQ(three[0], 1.0);
  EXPECT_DOUBLE_EQ(three[2], 5.0);
  const auto two = quartiles({2.0, 4.0});  // [1.5, 3.0, 4.5]
  EXPECT_DOUBLE_EQ(two[0], 1.5);
  EXPECT_DOUBLE_EQ(two[2], 4.5);
}

TEST(Ladder, StepNeedsLatencyAttainmentAndNoBacklog) {
  EXPECT_TRUE(step_meets_slo({1.0, 9.0, 99.5, false}, 10.0));
  EXPECT_FALSE(step_meets_slo({1.0, 11.0, 99.5, false}, 10.0));
  EXPECT_FALSE(step_meets_slo({1.0, 9.0, 98.9, false}, 10.0));
  EXPECT_FALSE(step_meets_slo({1.0, 9.0, 100.0, true}, 10.0));
}

TEST(Ladder, MaxRateIsTheHighestPassingStep) {
  const double target = 10.0;
  EXPECT_DOUBLE_EQ(max_rate_x({{1.0, 2.0, 100.0, false},
                               {1.5, 4.0, 100.0, false},
                               {2.0, 8.0, 99.2, false},
                               {3.0, 30.0, 90.0, true}},
                              target),
                   2.0);
  // A noisy miss below the knee does not hide the steps that passed.
  EXPECT_DOUBLE_EQ(max_rate_x({{1.0, 2.0, 100.0, false},
                               {1.5, 12.0, 99.0, false},
                               {2.0, 8.0, 99.5, false},
                               {3.0, 30.0, 90.0, false}},
                              target),
                   2.0);
  EXPECT_DOUBLE_EQ(
      max_rate_x({{1.0, 20.0, 100.0, false}, {1.5, 30.0, 100.0, false}},
                 target),
      0.0);
}

TEST(Ladder, LatenessGrowingDetectsABacklog) {
  std::vector<double> flat(100, 0.05);
  EXPECT_FALSE(lateness_growing(flat, 1.0));
  std::vector<double> ramp(100);
  std::iota(ramp.begin(), ramp.end(), 0.0);  // +1 ms per release
  EXPECT_TRUE(lateness_growing(ramp, 1.0));
  EXPECT_FALSE(lateness_growing({0, 50, 100}, 1.0));  // too few releases
}

obs::SpanRecord span(obs::Phase phase, std::int32_t lane, SimTime begin,
                     SimTime end, std::int32_t aux = 0) {
  obs::SpanRecord s;
  s.phase = phase;
  s.lane = lane;
  s.begin = begin;
  s.end = end;
  s.aux = aux;
  return s;
}

SimDuration layer_sum(const Attribution& a) {
  return std::accumulate(a.self_ns.begin(), a.self_ns.end(), SimDuration{0});
}

TEST(Attribution, ChargesEachInstantToTheInnermostLayer) {
  using obs::Phase;
  // Task [0, 100) on client 0: SND verb [0, 10) with a serve-loop drain
  // [5, 8) inside it; STR..STP verb [20, 90) holding the queue wait
  // [22, 30) and the kernel [40, 70), whose shard [45, 60) ran on worker 0.
  const std::vector<TaskSpan> tasks = {{0, 0, 0, 100}};
  const std::vector<obs::SpanRecord> spans = {
      span(Phase::kClientVerb, 0, 0, 10),
      span(Phase::kBatchDrain, obs::kLaneServer, 5, 8),
      span(Phase::kClientVerb, 0, 20, 90),
      span(Phase::kQueueWait, 0, 22, 30),
      span(Phase::kKernel, 0, 40, 70),
      span(Phase::kShard, obs::worker_lane(0), 45, 60),
  };
  const Attribution a = attribute(tasks, spans, /*sharded=*/true);
  EXPECT_EQ(a.tasks, 1);
  EXPECT_EQ(a.task_ns, 100);
  EXPECT_EQ(a.self(Layer::kIpc), 5 + 2 + 2 + 10 + 20);
  EXPECT_EQ(a.self(Layer::kRtServe), 3);
  EXPECT_EQ(a.self(Layer::kSched), 8);
  EXPECT_EQ(a.self(Layer::kExec), 15);
  EXPECT_EQ(a.self(Layer::kKernels), 15);
  EXPECT_EQ(a.self(Layer::kUnattributed), 20);
  EXPECT_EQ(layer_sum(a), a.task_ns);
  EXPECT_EQ(a.spans_unmatched, 0);

  // Serial execution: the kernel span is the kernel itself.
  const Attribution serial = attribute(tasks, spans, /*sharded=*/false);
  EXPECT_EQ(serial.self(Layer::kExec), 0);
  EXPECT_EQ(serial.self(Layer::kKernels), 30);
  EXPECT_EQ(layer_sum(serial), serial.task_ns);
}

TEST(Attribution, SpansJoinOnlyTheTaskOnTheirLaneThatContainsThem) {
  using obs::Phase;
  const std::vector<TaskSpan> tasks = {
      {0, 0, 0, 50}, {0, 1, 60, 120}, {1, 0, 0, 100}};
  const std::vector<obs::SpanRecord> spans = {
      span(Phase::kCopyIn, 0, 10, 20),     // task (0, 0)
      span(Phase::kCopyOut, 0, 100, 130),  // task (0, 1), clipped at 120
      span(Phase::kPageIn, 1, 30, 40),     // task (1, 0)
      span(Phase::kKernel, 0, 52, 58),     // between client 0's tasks
      span(Phase::kKernel, 2, 0, 10),      // no task on lane 2
      // A drain outside every verb is not serve-loop time of any task.
      span(Phase::kBatchDrain, obs::kLaneServer, 0, 5),
      // A shard overlapping no kernel span.
      span(Phase::kShard, obs::worker_lane(1), 200, 210),
  };
  const Attribution a = attribute(tasks, spans, /*sharded=*/false);
  EXPECT_EQ(a.tasks, 3);
  EXPECT_EQ(a.task_ns, 50 + 60 + 100);
  EXPECT_EQ(a.self(Layer::kDataPlane), 10 + 20);
  EXPECT_EQ(a.self(Layer::kVmem), 10);
  EXPECT_EQ(a.self(Layer::kRtServe), 0);
  EXPECT_EQ(a.self(Layer::kKernels), 0);
  EXPECT_EQ(a.spans_attached, 3);
  EXPECT_EQ(a.spans_unmatched, 3);
  EXPECT_EQ(layer_sum(a), a.task_ns);
}

TEST(Attribution, ShardsJoinTheKernelTheyOverlapMost) {
  using obs::Phase;
  // Two co-flushed kernels of two clients; the shard overlaps client 1's
  // kernel for longer, so its time is client 1's kernel time.
  const std::vector<TaskSpan> tasks = {{0, 0, 0, 100}, {1, 0, 0, 100}};
  const std::vector<obs::SpanRecord> spans = {
      span(Phase::kKernel, 0, 10, 30),
      span(Phase::kKernel, 1, 20, 60),
      span(Phase::kShard, obs::worker_lane(0), 25, 50),
  };
  const Attribution a = attribute(tasks, spans, /*sharded=*/true);
  EXPECT_EQ(a.self(Layer::kKernels), 25);
  EXPECT_EQ(a.self(Layer::kExec), 20 + 15);
  EXPECT_EQ(layer_sum(a), a.task_ns);
}

TEST(Attribution, GraphReplayChargesNodesToKernelsAndTheRestToGraph) {
  using obs::Phase;
  const std::vector<TaskSpan> tasks = {{0, 7, 0, 40}};
  const std::vector<obs::SpanRecord> spans = {
      span(Phase::kClientVerb, 0, 0, 40),
      span(Phase::kGraph, 0, 5, 35),
      span(Phase::kGraphNode, 0, 10, 30),
  };
  const Attribution a = attribute(tasks, spans, /*sharded=*/false);
  EXPECT_EQ(a.self(Layer::kKernels), 20);
  EXPECT_EQ(a.self(Layer::kGraph), 10);
  EXPECT_EQ(a.self(Layer::kIpc), 10);
  EXPECT_EQ(layer_sum(a), a.task_ns);
}

}  // namespace
}  // namespace vgpu::bench_e2e
