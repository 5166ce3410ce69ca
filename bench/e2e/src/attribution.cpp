#include "attribution.hpp"

#include <algorithm>
#include <map>

namespace vgpu::bench_e2e {

namespace {

struct Piece {
  SimTime begin = 0;
  SimTime end = 0;
  Layer layer = Layer::kUnattributed;
};

/// The layer a client-lane span is charged to; kCount for spans that are
/// not part of a task (REQ admission, lease expiry).
Layer client_lane_layer(obs::Phase phase, bool sharded) {
  switch (phase) {
    case obs::Phase::kClientVerb: return Layer::kIpc;
    case obs::Phase::kQueueWait: return Layer::kSched;
    case obs::Phase::kCopyIn:
    case obs::Phase::kCopyOut: return Layer::kDataPlane;
    case obs::Phase::kPageIn:
    case obs::Phase::kPageOut: return Layer::kVmem;
    case obs::Phase::kKernel: return sharded ? Layer::kExec : Layer::kKernels;
    case obs::Phase::kGraph: return Layer::kGraph;
    case obs::Phase::kGraphNode: return Layer::kKernels;
    default: return Layer::kCount;
  }
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kKernels: return "kernels";
    case Layer::kExec: return "exec";
    case Layer::kDataPlane: return "data_plane";
    case Layer::kVmem: return "vmem";
    case Layer::kGraph: return "graph";
    case Layer::kSched: return "sched";
    case Layer::kRtServe: return "rt_serve";
    case Layer::kIpc: return "ipc";
    case Layer::kUnattributed: return "unattributed";
    case Layer::kCount: break;
  }
  return "?";
}

Attribution attribute(const std::vector<TaskSpan>& tasks,
                      const std::vector<obs::SpanRecord>& spans,
                      bool sharded) {
  Attribution out;
  std::map<std::int32_t, std::vector<std::size_t>> lanes;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    lanes[tasks[i].client].push_back(i);
  }
  for (auto& [lane, index] : lanes) {
    std::sort(index.begin(), index.end(), [&](std::size_t a, std::size_t b) {
      return tasks[a].begin < tasks[b].begin;
    });
  }
  // The task on `lane` whose [begin, end) contains t, or -1.
  const auto find_task = [&](std::int32_t lane, SimTime t) -> long {
    const auto it = lanes.find(lane);
    if (it == lanes.end()) return -1;
    const std::vector<std::size_t>& index = it->second;
    const auto pos = std::upper_bound(
        index.begin(), index.end(), t,
        [&](SimTime v, std::size_t i) { return v < tasks[i].begin; });
    if (pos == index.begin()) return -1;
    const std::size_t i = *(pos - 1);
    return t < tasks[i].end ? static_cast<long>(i) : -1;
  };

  std::vector<std::vector<Piece>> pieces(tasks.size());
  const auto attach = [&](std::size_t task, SimTime begin, SimTime end,
                          Layer layer) {
    begin = std::max(begin, tasks[task].begin);
    end = std::min(end, tasks[task].end);
    if (end > begin) pieces[task].push_back(Piece{begin, end, layer});
  };

  struct KernelRef {
    SimTime begin = 0;
    SimTime end = 0;
    std::size_t task = 0;
  };
  std::vector<KernelRef> kernels;
  std::vector<const obs::SpanRecord*> shards;
  std::vector<const obs::SpanRecord*> drains;
  for (const obs::SpanRecord& span : spans) {
    if (span.lane >= 0) {
      const Layer layer = client_lane_layer(span.phase, sharded);
      if (layer == Layer::kCount) continue;
      const long task = find_task(span.lane, span.begin);
      if (task < 0) {
        ++out.spans_unmatched;
        continue;
      }
      ++out.spans_attached;
      attach(static_cast<std::size_t>(task), span.begin, span.end, layer);
      if (span.phase == obs::Phase::kKernel) {
        kernels.push_back(
            KernelRef{span.begin, span.end, static_cast<std::size_t>(task)});
      }
    } else if (span.phase == obs::Phase::kShard) {
      shards.push_back(&span);
    } else if (span.phase == obs::Phase::kBatchDrain) {
      drains.push_back(&span);
    }
  }

  // Each shard joins the kernel span it overlaps most.
  std::sort(kernels.begin(), kernels.end(),
            [](const KernelRef& a, const KernelRef& b) {
              return a.begin < b.begin;
            });
  SimDuration longest_kernel = 0;
  for (const KernelRef& k : kernels) {
    longest_kernel = std::max(longest_kernel, k.end - k.begin);
  }
  for (const obs::SpanRecord* shard : shards) {
    auto it = std::lower_bound(kernels.begin(), kernels.end(),
                               shard->begin - longest_kernel,
                               [](const KernelRef& k, SimTime v) {
                                 return k.begin < v;
                               });
    const KernelRef* best = nullptr;
    SimDuration best_overlap = 0;
    for (; it != kernels.end() && it->begin < shard->end; ++it) {
      const SimDuration overlap = std::min(it->end, shard->end) -
                                  std::max(it->begin, shard->begin);
      if (overlap > best_overlap) {
        best_overlap = overlap;
        best = &*it;
      }
    }
    if (best == nullptr) {
      ++out.spans_unmatched;
      continue;
    }
    ++out.spans_attached;
    attach(best->task, shard->begin, shard->end, Layer::kKernels);
  }

  // Serve-loop drains: one serve thread records them back to back, so
  // sorting by begin also sorts by end.
  std::sort(drains.begin(), drains.end(),
            [](const obs::SpanRecord* a, const obs::SpanRecord* b) {
              return a->begin < b->begin;
            });
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    auto it = std::partition_point(
        drains.begin(), drains.end(),
        [&](const obs::SpanRecord* d) { return d->end <= tasks[i].begin; });
    for (; it != drains.end() && (*it)->begin < tasks[i].end; ++it) {
      attach(i, (*it)->begin, (*it)->end, Layer::kRtServe);
    }
  }

  // Sweep each task: every elementary interval goes to the innermost
  // open layer; serve-loop time counts only inside one of the task's verbs.
  struct Edge {
    SimTime t = 0;
    int layer = 0;
    int delta = 0;
  };
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TaskSpan& task = tasks[i];
    ++out.tasks;
    out.task_ns += task.end - task.begin;
    edges.clear();
    for (const Piece& p : pieces[i]) {
      edges.push_back(Edge{p.begin, static_cast<int>(p.layer), +1});
      edges.push_back(Edge{p.end, static_cast<int>(p.layer), -1});
    }
    std::sort(edges.begin(), edges.end(),
              [](const Edge& a, const Edge& b) { return a.t < b.t; });
    std::array<int, kLayerCount> open{};
    std::size_t k = 0;
    SimTime cursor = task.begin;
    while (cursor < task.end) {
      while (k < edges.size() && edges[k].t <= cursor) {
        open[static_cast<std::size_t>(edges[k].layer)] += edges[k].delta;
        ++k;
      }
      const SimTime next =
          k < edges.size() ? std::min(edges[k].t, task.end) : task.end;
      int top = static_cast<int>(Layer::kUnattributed);
      for (int l = 0; l < static_cast<int>(Layer::kUnattributed); ++l) {
        if (open[static_cast<std::size_t>(l)] <= 0) continue;
        if (l == static_cast<int>(Layer::kRtServe) &&
            open[static_cast<std::size_t>(Layer::kIpc)] <= 0) {
          continue;
        }
        top = l;
        break;
      }
      out.self_ns[static_cast<std::size_t>(top)] += next - cursor;
      cursor = next;
    }
  }
  return out;
}

}  // namespace vgpu::bench_e2e
