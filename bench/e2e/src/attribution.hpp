// Span -> task attribution for the traced run.
//
// The benchmark records one task span per client-observed task (SND start
// to RCV return, or one graph launch) on the tracer's clock; the server's
// own spans land in the same tracer. Attribution then charges every
// instant of a task's latency to exactly one layer, so the layer self
// times plus `unattributed` sum to the task latency by construction:
//
//   * a span on a client lane inherits the id (client, round) of the task
//     on that lane whose interval contains its start, and is clipped to it;
//   * a worker-lane kShard span attaches to the kKernel span it overlaps
//     most, and through it to that kernel's task;
//   * a server-lane kBatchDrain span counts as serve-loop time only while
//     one of the task's own verb round trips is open;
//   * where spans overlap, the innermost layer wins (priority below), and
//     task time no span covers is `unattributed`.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "obs/trace.hpp"

namespace vgpu::bench_e2e {

struct TaskSpan {
  std::int32_t client = 0;
  std::int64_t round = 0;
  SimTime begin = 0;
  SimTime end = 0;
};

/// Layers in priority order, innermost first: kernel compute beats engine
/// fan-out, which beats copies, paging, graph replay, queue wait, serve-loop
/// dispatch and finally the client's verb round trip (ipc).
enum class Layer : int {
  kKernels = 0,
  kExec,
  kDataPlane,
  kVmem,
  kGraph,
  kSched,
  kRtServe,
  kIpc,
  kUnattributed,
  kCount,
};
inline constexpr int kLayerCount = static_cast<int>(Layer::kCount);

/// Metric-name stem ("kernels", "rt_serve", ...).
const char* layer_name(Layer layer);

struct Attribution {
  long tasks = 0;
  SimDuration task_ns = 0;  // summed task latency
  /// Summed self time per layer; the entries add up to task_ns exactly.
  std::array<SimDuration, kLayerCount> self_ns{};
  /// Spans charged to some task / spans that matched none.
  long spans_attached = 0;
  long spans_unmatched = 0;

  SimDuration self(Layer layer) const {
    return self_ns[static_cast<std::size_t>(layer)];
  }
};

/// `sharded`: kKernel spans wrap engine shards, so their uncovered time is
/// engine fan-out and join (exec); otherwise a kKernel span is the kernel
/// itself (kernels).
Attribution attribute(const std::vector<TaskSpan>& tasks,
                      const std::vector<obs::SpanRecord>& spans,
                      bool sharded);

}  // namespace vgpu::bench_e2e
