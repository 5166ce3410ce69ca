// Live span tracing for the observability subsystem.
//
// The DES side has a real gpu::Timeline; the live path (src/rt, src/exec)
// needs the same phase decomposition measured on the running system — the
// journal extension of the source paper validates Eqs. 1-6 exactly this
// way. The Tracer records fixed-size span records into per-thread ring
// buffers:
//
//   * disabled (the default), record() is one relaxed load and a branch —
//     the serve loop and kernel jobs pay nothing measurable;
//   * enabled, a span is two steady_clock reads plus one ring-slot write —
//     no allocation, no lock, no map lookup on the hot path (each thread's
//     ring is allocated once, at registration; call ensure_thread() at
//     thread start to keep even that off the timed path);
//   * a full ring overwrites its oldest records and counts the drops.
//
// Export reuses the gpu::TraceEvent shape and gpu::Timeline machinery, so
// a live trace and a DES trace render side-by-side in Perfetto and share
// busy_time()/max_concurrency() analysis (tools/vgpu-trace).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "gpu/trace.hpp"

namespace vgpu::obs {

/// Span taxonomy. The first five are the paper's per-task phase terms
/// (docs/observability.md maps them onto Eqs. 1-6); the rest instrument
/// the machinery around them.
enum class Phase : std::uint8_t {
  kQueueWait = 0,  // STR enqueue -> scheduler grant
  kAdmission,      // REQ handling incl. admission verdict
  kCopyIn,         // Tdata_in: vsm -> staging ("pinned") copy
  kKernel,         // Tcomp: kernel execution
  kCopyOut,        // Tdata_out: staging -> vsm copy
  kFlushBarrier,   // cohort co-flush (first STR -> grant)
  kBatchDrain,     // serve-loop request sweep (aux = batch depth)
  kPark,           // serve-loop idle wait (spin/yield/futex)
  kShard,          // one engine shard (aux = block count)
  kClientVerb,     // client-observed verb round trip (aux = RtOp)
  kLeaseExpiry,    // silent window that expired a client lease (aux = pid)
  kPageIn,         // vmem pager working-set fill (aux = pages filled)
  kPageOut,        // vmem pager eviction spill (aux = pages spilled)
  kGraph,          // one cached-graph replay (aux = node count)
  kGraphNode,      // one graph node / fused chain (aux = kernel id, -1 copy)
  kMigration,      // cross-device client move (aux = destination device)
  kCount,
};

const char* phase_name(Phase phase);
/// Chrome-trace category; copy phases share "copy" like the DES timeline.
const char* phase_category(Phase phase);

/// Lane encoding inside a SpanRecord: client ids are >= 0, server-side
/// lanes are negative.
inline constexpr std::int32_t kLaneServer = -1;
/// Engine worker i maps to kLaneWorkerBase - i.
inline constexpr std::int32_t kLaneWorkerBase = -2;
inline constexpr std::int32_t worker_lane(int worker) {
  return kLaneWorkerBase - worker;
}
std::string lane_name(std::int32_t lane);

/// One span, POD and fixed-size so ring writes are a single struct copy.
struct SpanRecord {
  SimTime begin = 0;  // ns since the tracer epoch
  SimTime end = 0;
  std::int32_t lane = kLaneServer;
  std::int32_t aux = 0;  // kernel id / batch depth / blocks, per phase
  Phase phase = Phase::kQueueWait;
};

struct TracerConfig {
  /// Records per per-thread ring; rounded up to a power of two.
  std::size_t ring_capacity = 1 << 15;
  /// Start enabled. Off by default: tracing is opt-in per run.
  bool enabled = false;
};

/// Returned by begin_span() when tracing is off; finishing it is a no-op.
inline constexpr SimTime kSpanDisabled = -1;

class Tracer {
 public:
  explicit Tracer(TracerConfig config = {});
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Rebases the trace clock (e.g. to the server's start instant, so span
  /// timestamps line up with scheduler timestamps).
  void set_epoch(std::chrono::steady_clock::time_point epoch) {
    epoch_ = epoch;
  }
  /// Nanoseconds since the epoch.
  SimTime now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Pre-registers the calling thread's ring (the one allocation a thread
  /// ever performs) when tracing is enabled; idempotent, and a no-op while
  /// disabled. Call at thread start to keep the hot path allocation-free
  /// from the first span.
  void ensure_thread();

  /// Span begin timestamp, or kSpanDisabled when tracing is off.
  SimTime begin_span() const { return enabled() ? now() : kSpanDisabled; }

  /// Records [begin, now()) if `begin` came from an enabled begin_span().
  void end_span(SimTime begin, Phase phase, std::int32_t lane,
                std::int32_t aux = 0) {
    if (begin < 0 || !enabled()) return;
    record(phase, lane, aux, begin, now());
  }

  /// Records an explicit span (timestamps in tracer-epoch ns).
  void record(Phase phase, std::int32_t lane, std::int32_t aux,
              SimTime begin, SimTime end);

  /// Collects every buffered record, oldest-first per thread. Callers
  /// must quiesce writers first (the server collects after stop()).
  std::vector<SpanRecord> collect() const;
  /// Records lost to ring wrap-around, across all threads.
  long dropped() const;
  /// Threads that registered a ring (each ring holds ring_capacity
  /// records, 1 MiB at the default).
  std::size_t ring_count() const;

  /// Resolves extra naming detail for a span (e.g. aux -> kernel name for
  /// kKernel spans). Returning an empty string keeps the phase name.
  using NameFn = std::function<std::string(const SpanRecord&)>;

  /// Converts the buffered spans into a gpu::Timeline (TraceEvent per
  /// span) for busy-time/concurrency analysis and Chrome-trace export.
  gpu::Timeline timeline(const NameFn& name_fn = nullptr) const;
  Status write_chrome_trace(const std::string& path,
                            const NameFn& name_fn = nullptr) const;

 private:
  struct Ring {
    explicit Ring(std::size_t capacity)
        : slots(capacity), mask(capacity - 1) {}
    std::vector<SpanRecord> slots;
    std::size_t mask;
    /// Total records ever written (single writer thread); readers see a
    /// consistent prefix via the release store in record().
    std::atomic<std::uint64_t> head{0};
  };

  Ring* thread_ring();
  Ring* register_ring();

  TracerConfig config_;
  std::uint64_t id_;  // distinguishes tracers for the thread-local cache
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex rings_mutex_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

}  // namespace vgpu::obs
