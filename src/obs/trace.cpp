#include "obs/trace.hpp"

#include <algorithm>

namespace vgpu::obs {

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kQueueWait:
      return "queue_wait";
    case Phase::kAdmission:
      return "admission";
    case Phase::kCopyIn:
      return "copy_in";
    case Phase::kKernel:
      return "kernel";
    case Phase::kCopyOut:
      return "copy_out";
    case Phase::kFlushBarrier:
      return "flush_barrier";
    case Phase::kBatchDrain:
      return "batch_drain";
    case Phase::kPark:
      return "park";
    case Phase::kShard:
      return "shard";
    case Phase::kClientVerb:
      return "verb";
    case Phase::kLeaseExpiry:
      return "lease_expiry";
    case Phase::kPageIn:
      return "page_in";
    case Phase::kPageOut:
      return "page_out";
    case Phase::kGraph:
      return "graph";
    case Phase::kGraphNode:
      return "graph_node";
    case Phase::kMigration:
      return "migration";
    case Phase::kCount:
      break;
  }
  return "?";
}

const char* phase_category(Phase phase) {
  switch (phase) {
    case Phase::kQueueWait:
      return "queue";
    case Phase::kAdmission:
      return "sched";
    case Phase::kCopyIn:
    case Phase::kCopyOut:
      return "copy";
    case Phase::kKernel:
      return "kernel";
    case Phase::kFlushBarrier:
    case Phase::kLeaseExpiry:
      return "gvm";
    case Phase::kBatchDrain:
    case Phase::kPark:
      return "transport";
    case Phase::kShard:
      return "exec";
    case Phase::kClientVerb:
      return "client";
    case Phase::kPageIn:
    case Phase::kPageOut:
      return "vmem";
    case Phase::kGraph:
      return "gvm";
    case Phase::kGraphNode:
      return "exec";
    case Phase::kMigration:
      return "gvm";
    case Phase::kCount:
      break;
  }
  return "?";
}

std::string lane_name(std::int32_t lane) {
  if (lane >= 0) return "client " + std::to_string(lane);
  if (lane == kLaneServer) return "gvm";
  return "worker " + std::to_string(kLaneWorkerBase - lane);
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::atomic<std::uint64_t> g_tracer_ids{1};

}  // namespace

Tracer::Tracer(TracerConfig config)
    : config_(config), id_(g_tracer_ids.fetch_add(1)) {
  config_.ring_capacity = round_up_pow2(std::max<std::size_t>(
      config_.ring_capacity, 64));
  enabled_.store(config.enabled, std::memory_order_relaxed);
}

Tracer::~Tracer() = default;

Tracer::Ring* Tracer::register_ring() {
  std::lock_guard<std::mutex> lock(rings_mutex_);
  rings_.push_back(std::make_unique<Ring>(config_.ring_capacity));
  return rings_.back().get();
}

Tracer::Ring* Tracer::thread_ring() {
  // Cache keyed by tracer id: a destroyed tracer's id is never reused, so
  // a stale cache entry can't alias a new tracer at the same address.
  struct Tls {
    std::uint64_t tracer_id = 0;
    Ring* ring = nullptr;
  };
  thread_local Tls tls;
  if (tls.tracer_id != id_) {
    tls.ring = register_ring();
    tls.tracer_id = id_;
  }
  return tls.ring;
}

void Tracer::ensure_thread() {
  // A disabled tracer registers nothing: record() registers the ring
  // lazily once tracing is on, and an untraced run keeps its memory.
  if (enabled()) (void)thread_ring();
}

void Tracer::record(Phase phase, std::int32_t lane, std::int32_t aux,
                    SimTime begin, SimTime end) {
  if (!enabled()) return;
  Ring* ring = thread_ring();
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  SpanRecord& slot = ring->slots[head & ring->mask];
  slot.begin = begin;
  slot.end = end;
  slot.lane = lane;
  slot.aux = aux;
  slot.phase = phase;
  ring->head.store(head + 1, std::memory_order_release);
}

std::vector<SpanRecord> Tracer::collect() const {
  std::lock_guard<std::mutex> lock(rings_mutex_);
  std::vector<SpanRecord> out;
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t capacity = ring->slots.size();
    const std::uint64_t first = head > capacity ? head - capacity : 0;
    for (std::uint64_t i = first; i < head; ++i) {
      out.push_back(ring->slots[i & ring->mask]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.end < b.end;
            });
  return out;
}

long Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(rings_mutex_);
  long dropped = 0;
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t capacity = ring->slots.size();
    if (head > capacity) dropped += static_cast<long>(head - capacity);
  }
  return dropped;
}

std::size_t Tracer::ring_count() const {
  std::lock_guard<std::mutex> lock(rings_mutex_);
  return rings_.size();
}

gpu::Timeline Tracer::timeline(const NameFn& name_fn) const {
  gpu::Timeline timeline;
  for (const SpanRecord& span : collect()) {
    gpu::TraceEvent event;
    std::string name = name_fn ? name_fn(span) : std::string();
    event.name = name.empty() ? phase_name(span.phase) : std::move(name);
    event.category = phase_category(span.phase);
    event.lane = lane_name(span.lane);
    event.begin = span.begin;
    event.end = std::max(span.end, span.begin);
    timeline.record(std::move(event));
  }
  return timeline;
}

Status Tracer::write_chrome_trace(const std::string& path,
                                  const NameFn& name_fn) const {
  return timeline(name_fn).write_chrome_trace(path);
}

}  // namespace vgpu::obs
