// Tests for the observability subsystem: metrics registry (concurrent
// exactness, histogram bucket semantics, JSON export), span tracer (ring
// semantics, drop accounting, Chrome-trace round trip through trace_io),
// model residuals (Eq. 4/6 arithmetic on synthetic spans), and the log
// bridge (VGPU_LOG parsing, thread scope tags, per-level line counters).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "model/model.hpp"
#include "obs/log_capture.hpp"
#include "obs/metrics.hpp"
#include "obs/residuals.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"

namespace vgpu::obs {
namespace {

std::string temp_path(const char* tag) {
  return "/tmp/vgpu_obs_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".json";
}

struct TempFile {
  explicit TempFile(const char* tag) : path(temp_path(tag)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(Registry, HandlesAreStableAndIdempotent) {
  Registry registry;
  Counter* a = registry.counter("rt.requests");
  Counter* b = registry.counter("rt.requests");
  EXPECT_EQ(a, b);
  a->add(3);
  EXPECT_EQ(b->value(), 3);
  EXPECT_EQ(registry.find_counter("rt.requests"), a);
  EXPECT_EQ(registry.find_counter("no.such"), nullptr);

  Gauge* g = registry.gauge("sched.mean_wait_ms");
  EXPECT_EQ(registry.gauge("sched.mean_wait_ms"), g);
  g->set(1.5);
  g->add(0.25);
  EXPECT_DOUBLE_EQ(g->value(), 1.75);

  Histogram* h = registry.histogram("rt.batch_depth", pow2_bounds(3));
  // Later registrations ignore their bounds argument and share the handle.
  EXPECT_EQ(registry.histogram("rt.batch_depth", {99.0}), h);
  EXPECT_EQ(h->bounds().size(), 3u);
}

// The ISSUE's multi-threaded hammer: concurrent adds and observes from
// many threads must land exactly — the relaxed hot path may reorder but
// never lose or duplicate an increment.
TEST(Registry, ConcurrentHammerCountsExactly) {
  Registry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  Counter* counter = registry.counter("hammer.counter");
  Histogram* hist = registry.histogram("hammer.hist", pow2_bounds(4));

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Half the threads also race registration of the same instruments.
      Counter* c = (t % 2 == 0) ? counter : registry.counter("hammer.counter");
      for (int i = 0; i < kPerThread; ++i) {
        c->add();
        hist->observe(static_cast<double>(i % 16));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(counter->value(), static_cast<long>(kThreads) * kPerThread);
  EXPECT_EQ(hist->count(), static_cast<long>(kThreads) * kPerThread);
  long bucket_total = 0;
  for (std::size_t i = 0; i < hist->buckets(); ++i) {
    bucket_total += hist->bucket_count(i);
  }
  EXPECT_EQ(bucket_total, hist->count());
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram hist({1.0, 3.0, 7.0});
  ASSERT_EQ(hist.buckets(), 4u);  // 3 bounded + overflow

  // Bucket i counts samples <= bounds[i]; boundaries land in their own
  // bucket, one past a boundary lands in the next.
  hist.observe(0.0);  // bucket 0
  hist.observe(1.0);  // bucket 0 (== bound)
  hist.observe(2.0);  // bucket 1
  hist.observe(3.0);  // bucket 1 (== bound)
  hist.observe(7.0);  // bucket 2 (== last bound)
  hist.observe(8.0);  // overflow
  hist.observe(1e9);  // overflow

  EXPECT_EQ(hist.bucket_count(0), 2);
  EXPECT_EQ(hist.bucket_count(1), 2);
  EXPECT_EQ(hist.bucket_count(2), 1);
  EXPECT_EQ(hist.bucket_count(3), 2);
  EXPECT_EQ(hist.count(), 7);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0 + 1.0 + 2.0 + 3.0 + 7.0 + 8.0 + 1e9);
}

TEST(Histogram, AddCountMergesPreBucketedSamples) {
  Histogram hist(pow2_bounds(3));  // bounds 1, 2, 4 + overflow
  hist.add_count(1, 10);
  hist.add_count(3, 2);  // overflow bucket
  EXPECT_EQ(hist.bucket_count(1), 10);
  EXPECT_EQ(hist.bucket_count(3), 2);
  EXPECT_EQ(hist.count(), 12);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0);  // original samples are gone
}

TEST(Registry, Pow2BoundsShape) {
  const std::vector<double> bounds = pow2_bounds(4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 2.0);
  EXPECT_DOUBLE_EQ(bounds[2], 4.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

TEST(Registry, SnapshotIsNameSortedAndJsonExports) {
  Registry registry;
  registry.counter("zeta")->add(2);
  registry.counter("alpha")->add(1);
  registry.gauge("mid")->set(0.5);
  registry.histogram("hist", {1.0})->observe(0.5);

  const RegistrySnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "zeta");
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].counts.size(), 2u);
  EXPECT_EQ(snap.histograms[0].count, 1);

  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);

  TempFile file("metrics");
  ASSERT_TRUE(registry.write_json(file.path).ok());
  std::ifstream in(file.path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, json);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  const SimTime begin = tracer.begin_span();
  EXPECT_EQ(begin, kSpanDisabled);
  tracer.end_span(begin, Phase::kKernel, 0, 1);  // no-op
  tracer.record(Phase::kKernel, 0, 1, 0, 10);    // dropped while disabled
  EXPECT_TRUE(tracer.collect().empty());
  EXPECT_EQ(tracer.dropped(), 0);
}

TEST(Tracer, DisabledEnsureThreadRegistersNoRingAndLaterSpansAreKept) {
  Tracer tracer;
  const auto thread_spans = [&](int spans) {
    std::thread([&] {
      tracer.ensure_thread();
      for (int i = 0; i < spans; ++i) {
        tracer.end_span(tracer.begin_span(), Phase::kKernel, 0, i);
      }
    }).join();
  };
  tracer.ensure_thread();
  thread_spans(0);
  EXPECT_EQ(tracer.ring_count(), 0u);
  // Enabled later: a thread registers its ring at ensure_thread(), or at
  // its first record without one (this thread).
  tracer.enable(true);
  thread_spans(10);
  tracer.record(Phase::kKernel, 0, 10, 0, 1);
  EXPECT_EQ(tracer.ring_count(), 2u);
  EXPECT_EQ(tracer.collect().size(), 11u);
  EXPECT_EQ(tracer.dropped(), 0);
}

TEST(Tracer, SpansCarryPhaseLaneAuxAndMonotoneTimes) {
  TracerConfig config;
  config.enabled = true;
  Tracer tracer(config);
  tracer.ensure_thread();

  const SimTime begin = tracer.begin_span();
  ASSERT_GE(begin, 0);
  tracer.end_span(begin, Phase::kCopyIn, /*lane=*/3, /*aux=*/7);

  const std::vector<SpanRecord> spans = tracer.collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].phase, Phase::kCopyIn);
  EXPECT_EQ(spans[0].lane, 3);
  EXPECT_EQ(spans[0].aux, 7);
  EXPECT_EQ(spans[0].begin, begin);
  EXPECT_GE(spans[0].end, spans[0].begin);
}

TEST(Tracer, FullRingOverwritesOldestAndCountsDrops) {
  TracerConfig config;
  config.enabled = true;
  config.ring_capacity = 4;  // clamped up to the 64-record floor
  Tracer tracer(config);
  tracer.ensure_thread();

  constexpr int kRecords = 100;
  constexpr int kCapacity = 64;
  for (int i = 0; i < kRecords; ++i) {
    tracer.record(Phase::kKernel, 0, i, i, i + 1);
  }
  const std::vector<SpanRecord> spans = tracer.collect();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kCapacity));
  // Oldest-first: the survivors are the newest kCapacity records.
  for (int i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(spans[static_cast<std::size_t>(i)].aux,
              kRecords - kCapacity + i);
  }
  EXPECT_EQ(tracer.dropped(), kRecords - kCapacity);
}

TEST(Tracer, ConcurrentWritersKeepEverySpanWhenRingsAreLargeEnough) {
  TracerConfig config;
  config.enabled = true;
  config.ring_capacity = 1 << 10;
  Tracer tracer(config);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      tracer.ensure_thread();
      for (int i = 0; i < kPerThread; ++i) {
        const SimTime begin = tracer.begin_span();
        tracer.end_span(begin, Phase::kShard, worker_lane(t), i);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(tracer.collect().size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(tracer.dropped(), 0);
}

TEST(Tracer, PhaseAndLaneNames) {
  EXPECT_STREQ(phase_name(Phase::kQueueWait), "queue_wait");
  EXPECT_STREQ(phase_name(Phase::kKernel), "kernel");
  EXPECT_STREQ(phase_category(Phase::kCopyIn), "copy");
  EXPECT_STREQ(phase_category(Phase::kCopyOut), "copy");
  EXPECT_STREQ(phase_category(Phase::kKernel), "kernel");
  EXPECT_EQ(lane_name(2), "client 2");
  EXPECT_EQ(lane_name(kLaneServer), "gvm");
  EXPECT_EQ(lane_name(worker_lane(1)), "worker 1");
}

// The trace the tracer writes must survive a full round trip through the
// trace_io parser: same event count, names, categories, lanes, and
// timestamps (µs-granular in the file, so µs-aligned spans are exact).
TEST(TraceIo, ChromeTraceRoundTripsThroughParser) {
  TracerConfig config;
  config.enabled = true;
  Tracer tracer(config);
  tracer.ensure_thread();
  tracer.record(Phase::kCopyIn, 0, 2, 1 * kMicrosecond, 4 * kMicrosecond);
  tracer.record(Phase::kKernel, 0, 2, 4 * kMicrosecond, 9 * kMicrosecond);
  tracer.record(Phase::kCopyOut, 0, 2, 9 * kMicrosecond, 11 * kMicrosecond);

  const auto name_fn = [](const SpanRecord& span) -> std::string {
    return span.phase == Phase::kKernel ? "kernel vecadd" : "";
  };
  TempFile file("roundtrip");
  ASSERT_TRUE(tracer.write_chrome_trace(file.path, name_fn).ok());
  ASSERT_TRUE(validate_chrome_trace(file.path).ok());

  auto loaded = load_chrome_trace(file.path);
  ASSERT_TRUE(loaded.ok());
  const gpu::Timeline reference = tracer.timeline(name_fn);
  ASSERT_EQ(loaded->size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const gpu::TraceEvent& want = reference.events()[i];
    const gpu::TraceEvent& got = loaded->events()[i];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.category, want.category);
    EXPECT_EQ(got.lane, want.lane);
    EXPECT_EQ(got.begin, want.begin);
    EXPECT_EQ(got.end, want.end);
  }
  EXPECT_EQ(loaded->busy_time("copy"), 5 * kMicrosecond);
  EXPECT_EQ(loaded->busy_time("kernel"), 5 * kMicrosecond);
  EXPECT_EQ(loaded->max_concurrency("kernel"), 1);
}

TEST(TraceIo, ValidatorRejectsMalformedJson) {
  TempFile file("invalid");
  std::ofstream(file.path) << "{\"not\": \"an array\"}\n";
  EXPECT_FALSE(validate_chrome_trace(file.path).ok());
  EXPECT_FALSE(validate_chrome_trace("/no/such/file.json").ok());
}

TEST(TraceIo, MergeRebasesAndPrefixesLanes) {
  gpu::Timeline a;
  a.record({"x", "kernel", "client 0", 100 * kMicrosecond,
            200 * kMicrosecond});
  gpu::Timeline b;
  b.record({"y", "copy", "client 0", 5000 * kMicrosecond,
            5500 * kMicrosecond});

  const gpu::Timeline merged = merge_timelines({a, b}, {"des", "live"});
  ASSERT_EQ(merged.size(), 2u);
  // Each input is shifted so its earliest event starts at t=0 and its
  // lanes are prefixed with the source label.
  EXPECT_EQ(merged.events()[0].begin, 0);
  EXPECT_EQ(merged.events()[0].lane, "des/client 0");
  EXPECT_EQ(merged.events()[1].begin, 0);
  EXPECT_EQ(merged.events()[1].end, 500 * kMicrosecond);
  EXPECT_EQ(merged.events()[1].lane, "live/client 0");
}

// Synthetic two-client cohort with known phase medians: the residual row
// must reproduce Eq. 4 (rounds x per-cohort prediction) and Eq. 6 exactly.
TEST(Residuals, MatchEq4AndEq6OnSyntheticSpans) {
  std::vector<SpanRecord> spans;
  const int kernel_id = 42;
  // Two clients, two rounds each: Tin=2ms, Tcomp=10ms, Tout=1ms.
  SimTime t = 0;
  for (int round = 0; round < 2; ++round) {
    for (std::int32_t lane = 0; lane < 2; ++lane) {
      spans.push_back({t, t + milliseconds(0.5), lane, kernel_id,
                       Phase::kQueueWait});
      t += milliseconds(0.5);
      spans.push_back({t, t + milliseconds(2), lane, kernel_id,
                       Phase::kCopyIn});
      t += milliseconds(2);
      spans.push_back({t, t + milliseconds(10), lane, kernel_id,
                       Phase::kKernel});
      t += milliseconds(10);
      spans.push_back({t, t + milliseconds(1), lane, kernel_id,
                       Phase::kCopyOut});
      t += milliseconds(1);
    }
  }
  // Server-lane machinery spans must be ignored by the aggregation.
  spans.push_back({0, milliseconds(100), kLaneServer, 0,
                   Phase::kFlushBarrier});

  const auto rows = compute_residuals(
      spans, [](int id) { return "k" + std::to_string(id); });
  ASSERT_EQ(rows.size(), 1u);
  const KernelResidual& row = rows[0];
  EXPECT_EQ(row.kernel_id, kernel_id);
  EXPECT_EQ(row.kernel, "k42");
  EXPECT_EQ(row.clients, 2);
  EXPECT_EQ(row.tasks, 4);
  EXPECT_EQ(row.queue_wait_med, milliseconds(0.5));
  EXPECT_EQ(row.t_in_med, milliseconds(2));
  EXPECT_EQ(row.t_comp_med, milliseconds(10));
  EXPECT_EQ(row.t_out_med, milliseconds(1));
  EXPECT_EQ(row.measured_turnaround, t);

  // rounds = ceil(4 tasks / 2 clients) = 2; Eq. 4 per cohort:
  // N*max(Tin,Tout) + Tcomp + min(Tin,Tout) = 2*2 + 10 + 1 = 15 ms.
  const model::ExecutionProfile profile = row.profile();
  EXPECT_EQ(model::total_time_virtualized(profile, 2), milliseconds(15));
  EXPECT_EQ(row.predicted_turnaround, 2 * milliseconds(15));
  EXPECT_DOUBLE_EQ(row.smax, model::max_speedup(profile));
  const double expect_err =
      (static_cast<double>(row.measured_turnaround) -
       static_cast<double>(row.predicted_turnaround)) /
      static_cast<double>(row.predicted_turnaround);
  EXPECT_DOUBLE_EQ(row.relative_error(), expect_err);

  const std::string report = format_residuals(rows);
  EXPECT_NE(report.find("k42"), std::string::npos);
  EXPECT_NE(report.find("N=2"), std::string::npos);
}

TEST(Residuals, ZeroCopyRunsHaveNoSmaxBound) {
  // No copy spans (zero-copy data plane): Eq. 6 needs io_max > 0, so the
  // row must report smax == 0 instead of asserting inside the model.
  std::vector<SpanRecord> spans;
  spans.push_back({0, milliseconds(5), 0, 7, Phase::kKernel});
  const auto rows = compute_residuals(spans);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].t_in_med, 0);
  EXPECT_EQ(rows[0].t_out_med, 0);
  EXPECT_DOUBLE_EQ(rows[0].smax, 0.0);
  EXPECT_EQ(rows[0].kernel, "kernel 7");
  // Report renders without the Smax suffix.
  EXPECT_EQ(format_residuals(rows).find("Smax"), std::string::npos);
}

TEST(Residuals, EmptySpansYieldEmptyReport) {
  EXPECT_TRUE(compute_residuals({}).empty());
  EXPECT_NE(format_residuals({}).find("no phase spans"), std::string::npos);
}

TEST(Log, ParseLevelSpellings) {
  LogLevel level = LogLevel::kOff;
  EXPECT_TRUE(parse_log_level("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(parse_log_level("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(parse_log_level("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(parse_log_level("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(parse_log_level("off", &level));
  EXPECT_EQ(level, LogLevel::kOff);
  EXPECT_TRUE(parse_log_level("none", &level));
  EXPECT_EQ(level, LogLevel::kOff);
  EXPECT_FALSE(parse_log_level("verbose", &level));
}

TEST(Log, SinkReceivesScopedLines) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kWarn);
  std::vector<std::string> lines;
  set_log_sink([&](LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  set_log_scope("client 7");
  VGPU_WARN("queue full, parking");
  VGPU_DEBUG("below the level, never emitted");
  set_log_scope("");
  VGPU_ERROR("bare line");
  set_log_sink(nullptr);
  set_log_level(saved);

  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("[W]"), std::string::npos);
  EXPECT_NE(lines[0].find("[client 7]"), std::string::npos);
  EXPECT_NE(lines[0].find("queue full, parking"), std::string::npos);
  EXPECT_NE(lines[1].find("[E]"), std::string::npos);
  EXPECT_EQ(lines[1].find("[client 7]"), std::string::npos);
}

TEST(Log, CaptureCountsLinesPerLevel) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kInfo);
  Registry registry;
  install_log_capture(registry);
  VGPU_INFO("one");
  VGPU_WARN("two");
  VGPU_WARN("three");
  VGPU_ERROR("four");
  VGPU_DEBUG("suppressed by level");
  uninstall_log_capture();
  set_log_level(saved);

  EXPECT_EQ(registry.find_counter("log.lines.info")->value(), 1);
  EXPECT_EQ(registry.find_counter("log.lines.warn")->value(), 2);
  EXPECT_EQ(registry.find_counter("log.lines.error")->value(), 1);
  EXPECT_EQ(registry.find_counter("log.lines.debug")->value(), 0);
  // After uninstall, lines no longer count.
  VGPU_WARN("uncounted");
  EXPECT_EQ(registry.find_counter("log.lines.warn")->value(), 2);
}

}  // namespace
}  // namespace vgpu::obs
