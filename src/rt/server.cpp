#include "rt/server.hpp"

#include <signal.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <limits>
#include <new>
#include <thread>

#include "common/log.hpp"
#include "common/math.hpp"
#include "exec/fusion.hpp"
#include "fault/fault.hpp"

namespace vgpu::rt {

namespace {

// Fixed policy values: no test, bench, tool or example sets another.

/// Sharded mode: target shards per worker per launch. A few shards per
/// worker let stealing even out shard-cost skew (MG's coarse levels, tail
/// blocks) while the per-shard dispatch stays small against a block
/// range; the exec engine uses the same default.
constexpr int kShardOversubscribe = 4;
/// Sharded + staged: granularity of the chunked stage-in/write-back
/// copies. 256 KiB per shard amortizes the shard dispatch over a copy
/// that runs at memcpy bandwidth, and still splits a MiB-scale staging
/// buffer across the workers.
constexpr Bytes kCopyChunk = 256 * kKiB;
/// Handshake mailboxes in the control region. Arena clients take their
/// REQ ack here instead of a private response queue; 256 matches the
/// usual per-user POSIX mqueue cap (fs.mqueue.queues_max), the population
/// the queue-per-client handshake could serve before the mailboxes.
constexpr std::uint32_t kHandshakeMailboxes = 256;
/// Advise transparent hugepages for the pooled vsm arena: one large
/// segment shared by every arena client wants fewer TLB entries, and the
/// advice is a no-op where the host has THP off.
constexpr bool kArenaHugepages = true;
/// Lease sweep rotation: sessions pid-probed (and lanes reconciled) per
/// lease_check_interval. 64 kill(pid, 0) probes per tick bound the sweep
/// at thousands of sessions; populations at or below it keep the
/// pre-rotation detection latency.
constexpr std::uint32_t kProbeBatch = 64;

/// Like the DES GVM: for the default barrier policy the width comes from
/// the legacy `expected_clients` knob, so the two paths configure the
/// shared policy objects identically.
sched::SchedulerConfig effective_sched_config(const RtServerConfig& config) {
  sched::SchedulerConfig sc = config.sched;
  if (sc.policy == sched::Policy::kBarrierCoFlush) {
    sc.barrier_width = config.expected_clients;
  }
  return sc;
}

sched::AdmissionConfig admission_config(const RtServerConfig& config) {
  sched::AdmissionConfig ac;
  // The live executor runs in host memory; total_capacity (when set)
  // models the device memory the paper's admission path guards, and the
  // per-client quota applies on top.
  ac.capacity = config.total_capacity > 0 ? config.total_capacity
                                          : std::numeric_limits<Bytes>::max();
  if (config.vmem.enabled) {
    // Paged mode: admission guards the *virtual* budget (device + host
    // ledger) and bounds any single working set by the physical device;
    // memory pressure inside that envelope is the pager's problem, so no
    // client is ever denied or whole-client evicted for it.
    const Bytes device = config.vmem.device_capacity > 0
                             ? config.vmem.device_capacity
                             : config.total_capacity;
    // With several memory domains the virtual budget scales with the
    // domain count; the pin bound stays per-device (one working set must
    // fit one device regardless of how many exist).
    const Bytes domains = std::max(1, config.vmem.devices);
    ac.paged = true;
    ac.pin_limit = device;
    ac.capacity = device > 0 ? domains * (device + config.vmem.host_ledger)
                             : std::numeric_limits<Bytes>::max();
  }
  ac.per_client_quota = config.per_client_quota;
  return ac;
}

/// Nanoseconds for a millisecond config knob (SimTime is ns).
SimTime to_ns(std::chrono::milliseconds ms) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(ms).count();
}

}  // namespace

const char* data_plane_name(DataPlane plane) {
  switch (plane) {
    case DataPlane::kStaged:
      return "staged";
    case DataPlane::kZeroCopy:
      return "zero_copy";
  }
  return "unknown";
}

bool parse_data_plane(const std::string& text, DataPlane* out) {
  if (text == "staged" || text == "pinned") {
    *out = DataPlane::kStaged;
    return true;
  }
  if (text == "zero_copy" || text == "zerocopy" || text == "zc") {
    *out = DataPlane::kZeroCopy;
    return true;
  }
  return false;
}

const char* exec_mode_name(ExecMode mode) {
  switch (mode) {
    case ExecMode::kSerial:
      return "serial";
    case ExecMode::kSharded:
      return "sharded";
  }
  return "unknown";
}

bool parse_exec_mode(const std::string& text, ExecMode* out) {
  if (text == "serial") {
    *out = ExecMode::kSerial;
    return true;
  }
  if (text == "sharded" || text == "shard") {
    *out = ExecMode::kSharded;
    return true;
  }
  return false;
}

namespace {
/// floor(log2(depth)), capped at the last bucket.
int depth_bucket(std::size_t depth, int buckets) {
  int bucket = 0;
  while (bucket + 1 < buckets && (depth >> (bucket + 1)) != 0) ++bucket;
  return bucket;
}
}  // namespace

void RtServerStats::record_batch(std::size_t depth) {
  if (depth == 0) return;
  batch_depth[depth_bucket(depth, kBatchBuckets)].fetch_add(
      1, std::memory_order_relaxed);
}

void RtServerStats::record_ready(std::size_t depth) {
  if (depth == 0) return;
  ready_depth[depth_bucket(depth, kBatchBuckets)].fetch_add(
      1, std::memory_order_relaxed);
}

void RtServerStats::record_pump(std::size_t grants) {
  if (grants == 0) return;
  grants_per_pump[depth_bucket(grants, kBatchBuckets)].fetch_add(
      1, std::memory_order_relaxed);
}

RtServer::RtServer(RtServerConfig config, const KernelRegistry& registry)
    : config_(std::move(config)),
      registry_(registry),
      sessions_(static_cast<std::uint32_t>(std::max(1, config_.max_sessions))),
      scheduler_(sched::Scheduler::make(effective_sched_config(config_))),
      admission_(
          std::make_unique<sched::AdmissionController>(admission_config(config_))),
      obs_(config_.obs) {
  VGPU_ASSERT(config_.expected_clients >= 1);
}

SimTime RtServer::rt_now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_time_)
      .count();
}

Bytes RtServer::device_capacity() const {
  return config_.vmem.device_capacity > 0 ? config_.vmem.device_capacity
                                          : config_.total_capacity;
}

Bytes RtServer::admission_capacity() const {
  if (config_.vmem.enabled && device_capacity() > 0) {
    return static_cast<Bytes>(std::max(1, config_.vmem.devices)) *
           (device_capacity() + config_.vmem.host_ledger);
  }
  return config_.total_capacity > 0 ? config_.total_capacity
                                    : std::numeric_limits<Bytes>::max();
}

int RtServer::place_domain(int client_id, Bytes bytes) {
  std::size_t chosen = 0;
  if (pagers_.size() > 1) {
    // Live per-domain snapshot: attached clients double as the pending
    // signal (the serve loop has no per-domain round queue), free memory
    // is frames not currently resident.
    std::vector<sched::DeviceLoad> loads;
    loads.reserve(pagers_.size());
    for (std::size_t d = 0; d < pagers_.size(); ++d) {
      sched::DeviceLoad load;
      load.device = static_cast<int>(d);
      load.clients = static_cast<int>(domain_clients_[d]);
      load.pending = static_cast<int>(domain_clients_[d]);
      load.capacity = device_capacity();
      load.free_mem =
          std::max<Bytes>(0, load.capacity - pagers_[d]->resident_bytes());
      loads.push_back(load);
    }
    sched::PlacementRequest request;
    request.client = client_id;
    request.bytes = bytes;
    const auto warm = warm_domain_.find(client_id);
    request.warm_device = warm != warm_domain_.end() ? warm->second : -1;
    const int device = placement_->choose(request, loads);
    if (device >= 0) chosen = static_cast<std::size_t>(device);
  }
  if (chosen < domain_clients_.size()) {
    ++domain_clients_[chosen];
    ++domain_placements_[chosen];
  }
  warm_domain_[client_id] = static_cast<int>(chosen);
  return static_cast<int>(chosen);
}

RtServer::~RtServer() { stop(); }

Status RtServer::start() {
  // Control region first: it must exist before any client can learn the
  // server is up (which it does by opening the request queue). The
  // doorbell word sits at offset 0, where pre-control clients expect the
  // bare P_door region's futex word.
  const std::uint32_t max_sessions =
      static_cast<std::uint32_t>(std::max(1, config_.max_sessions));
  auto door = ipc::SharedMemory::create(
      config_.prefix + "_door", ipc::ControlRegion<RtResponse>::size_for(
                                    max_sessions, kHandshakeMailboxes));
  if (!door.ok()) return door.status();
  door_shm_ = std::move(*door);
  ctrl_ = ipc::ControlRegion<RtResponse>::init(door_shm_.data(), max_sessions,
                                               kHandshakeMailboxes);
  if (config_.arena_size > 0) {
    auto arena = ipc::ShmArena::create(config_.prefix + "_arena",
                                       config_.arena_size, kArenaHugepages);
    if (!arena.ok()) return arena.status();
    arena_ = std::move(*arena);
  }
  auto queue = ipc::MessageQueue<RtRequest>::create(config_.prefix + "_req",
                                                    /*max_messages=*/8);
  if (!queue.ok()) return queue.status();
  requests_ = std::move(*queue);
  exec::ExecConfig ec;
  ec.workers = config_.workers;
  ec.oversubscribe = kShardOversubscribe;
  ec.tracer = &obs_.tracer();
  ec.fault = config_.fault;
  engine_ = std::make_unique<exec::ExecEngine>(ec);
  if (config_.vmem.enabled) {
    if (device_capacity() <= 0) {
      return InvalidArgument(
          "vmem requires a device size: set vmem.device_capacity or "
          "total_capacity");
    }
    vmem::PagerConfig pc;
    pc.page_size = config_.vmem.page_size;
    pc.device_capacity = device_capacity();
    pc.host_ledger_capacity = config_.vmem.host_ledger;
    pc.prefetch_window = config_.vmem.prefetch_window;
    const int domains = std::max(1, config_.vmem.devices);
    for (int d = 0; d < domains; ++d) {
      pagers_.push_back(
          std::make_unique<vmem::Pager>(pc, config_.fault, &obs_.tracer()));
    }
    placement_ = sched::Placement::make(config_.placement);
    domain_clients_.assign(static_cast<std::size_t>(domains), 0);
    domain_placements_.assign(static_cast<std::size_t>(domains), 0);
  }
  start_time_ = std::chrono::steady_clock::now();
  // Span timestamps and scheduler timestamps share one zero point.
  obs_.tracer().set_epoch(start_time_);
  running_.store(true);
  serve_thread_ = std::thread([this] { serve_loop(); });
  return Status::Ok();
}

void RtServer::stop() {
  if (!running_.exchange(false)) return;
  RtRequest shutdown;
  shutdown.op = RtOp::kShutdown;
  (void)requests_.send(shutdown);
  if (serve_thread_.joinable()) serve_thread_.join();
  // The engine runs queued jobs before its workers exit; then snapshot
  // its counters for printing.
  engine_->shutdown();
  const exec::ExecStats& es = engine_->stats();
  exec_counters_.launches = es.launches.load();
  exec_counters_.shards_executed = es.shards_executed.load();
  exec_counters_.steals = es.steals.load();
  exec_counters_.overflow_pushes = es.overflow_pushes.load();
  exec_counters_.external_jobs = es.external_jobs.load();
  exec_counters_.worker_shards.clear();
  for (int i = 0; i <= engine_->workers(); ++i) {
    exec_counters_.worker_shards.push_back(engine_->worker_shards(i));
  }
  engine_.reset();
  sessions_.for_each(
      [this](std::uint32_t slot, ClientState&) { sessions_.detach(slot); });
  id_slots_.clear();
  ring_lanes_ = 0;
  export_obs();
}

void RtServer::export_obs() {
  obs::Registry& reg = obs_.metrics();
  const auto set = [&reg](const char* name, long v) {
    reg.counter(name)->set(v);
  };
  set("rt.requests", stats_.requests.load());
  set("rt.flushes", stats_.flushes.load());
  set("rt.jobs_run", stats_.jobs_run.load());
  set("rt.jobs_failed", stats_.jobs_failed.load());
  set("rt.waits_sent", stats_.waits_sent.load());
  set("rt.ring_requests", stats_.ring_requests.load());
  set("rt.bytes_copied", stats_.bytes_copied.load());
  set("rt.overlap_bytes", stats_.overlap_bytes.load());
  set("rt.syscalls_saved", stats_.syscalls_saved.load());
  set("rt.spin_wakeups", stats_.spin_wakeups.load());
  set("rt.doorbell_blocks", stats_.doorbell_blocks.load());
  set("rt.leases_expired", stats_.leases_expired.load());
  set("rt.clients_reclaimed", stats_.clients_reclaimed.load());
  set("rt.reclaimed_bytes", stats_.reclaimed_bytes.load());
  set("rt.backpressure", stats_.backpressure.load());
  set("rt.denials", stats_.denials.load());
  set("rt.duplicates_absorbed", stats_.duplicates_absorbed.load());
  set("rt.responses_dropped", stats_.responses_dropped.load());
  set("rt.sessions_attached", stats_.sessions_attached.load());
  set("rt.slots_recycled", stats_.slots_recycled.load());
  set("rt.stale_sessions", stats_.stale_sessions.load());
  set("rt.mailbox_acks", stats_.mailbox_acks.load());
  set("rt.arena_grants", stats_.arena_grants.load());
  set("rt.arena_declines", stats_.arena_declines.load());
  set("rt.reconcile_requests", stats_.reconcile_requests.load());
  set("rt.serve_cpu_ns", stats_.serve_cpu_ns.load());
  set("rt.ctrl_messages_req", stats_.ctrl_req.load());
  set("rt.ctrl_messages_snd", stats_.ctrl_snd.load());
  set("rt.ctrl_messages_str", stats_.ctrl_str.load());
  set("rt.ctrl_messages_stp", stats_.ctrl_stp.load());
  set("rt.ctrl_messages_rcv", stats_.ctrl_rcv.load());
  set("rt.ctrl_messages_rls", stats_.ctrl_rls.load());
  set("rt.ctrl_messages_graph", stats_.ctrl_graph.load());
  set("rt.graph_uploads", stats_.graph_uploads.load());
  set("rt.graphs_cached", stats_.graphs_cached.load());
  set("rt.graphs_rejected", stats_.graphs_rejected.load());
  set("rt.graph_replays", stats_.graph_replays.load());
  set("rt.graph_nodes_run", stats_.graph_nodes_run.load());
  set("rt.graph_nodes_fused", stats_.graph_nodes_fused.load());
  set("rt.graph_messages_saved", stats_.graph_messages_saved.load());
  set("rt.graphs_reclaimed", stats_.graphs_reclaimed.load());
  set("rt.graph_nodes_live", stats_.graph_nodes_live.load());
  if (arena_.valid()) {
    const ipc::ShmArena::Stats& as = arena_.stats();
    set("arena.allocs", as.allocs);
    set("arena.frees", as.frees);
    set("arena.alloc_failures", as.failures);
    reg.gauge("arena.in_use_bytes")->set(static_cast<double>(as.in_use));
    reg.gauge("arena.peak_bytes")->set(static_cast<double>(as.peak_in_use));
    set("arena.hugepages", as.hugepages ? 1 : 0);
  }
  // Legacy bucket i counted wakeup depths in [2^i, 2^(i+1)); histogram
  // bucket i counts samples <= bounds[i], so bound i = 2^(i+1) - 1 maps
  // the buckets one-to-one (the overflow bucket is the legacy "128+").
  const auto export_depths = [&reg](const char* name,
                                    const std::atomic<long>* buckets) {
    std::vector<double> bounds;
    for (int i = 0; i + 1 < RtServerStats::kBatchBuckets; ++i) {
      bounds.push_back(static_cast<double>((2L << i) - 1));
    }
    obs::Histogram* hist = reg.histogram(name, std::move(bounds));
    for (int i = 0; i < RtServerStats::kBatchBuckets; ++i) {
      const long have = buckets[i].load();
      const long exported = hist->bucket_count(static_cast<std::size_t>(i));
      if (have > exported) {
        hist->add_count(static_cast<std::size_t>(i), have - exported);
      }
    }
  };
  export_depths("rt.batch_depth", stats_.batch_depth);
  export_depths("rt.ready_depth", stats_.ready_depth);
  export_depths("rt.grants_per_pump", stats_.grants_per_pump);
  set("exec.launches", exec_counters_.launches);
  set("exec.shards_executed", exec_counters_.shards_executed);
  set("exec.steals", exec_counters_.steals);
  set("exec.overflow_pushes", exec_counters_.overflow_pushes);
  set("exec.external_jobs", exec_counters_.external_jobs);
  for (std::size_t i = 0; i < exec_counters_.worker_shards.size(); ++i) {
    const std::string name =
        i + 1 == exec_counters_.worker_shards.size()
            ? "exec.worker_shards.external"
            : "exec.worker_shards." + std::to_string(i);
    reg.counter(name)->set(exec_counters_.worker_shards[i]);
  }
  const sched::SchedStats& ss = scheduler_->stats();
  set("sched.admitted", ss.admitted);
  set("sched.released", ss.released);
  set("sched.enqueued", ss.enqueued);
  set("sched.grants", ss.grants);
  set("sched.batches", ss.batches);
  set("sched.pumps", ss.pumps);
  set("sched.quanta_granted", ss.quanta_granted);
  set("sched.rotations", ss.rotations);
  set("sched.aging_promotions", ss.aging_promotions);
  set("sched.resident_holds", ss.resident_holds);
  set("sched.failures", ss.failures);
  reg.gauge("sched.mean_wait_ms")->set(ss.mean_wait() * 1e3);
  reg.gauge("sched.p95_wait_ms")->set(ss.wait_percentile(0.95) * 1e3);
  const sched::AdmissionStats& as = admission_->stats();
  set("admission.admitted", as.admitted);
  set("admission.rejected", as.rejected);
  set("admission.backpressured", as.backpressured);
  set("admission.evictions", as.evictions);
  if (paging()) {
    // The oversubscription promise: paged admission never names victims,
    // so anything nonzero here means a whole client lost its memory.
    set("vmem.evictions_whole_client", as.evictions);
    if (pagers_.size() == 1) {
      pagers_.front()->export_metrics(reg);
    } else {
      // Multi-domain: pooled vmem.* aggregates (so the single-device
      // dashboards and gates keep working) plus the per-device labels.
      vmem::PagerCounters sum;
      Bytes resident = 0, ledger = 0;
      for (std::size_t d = 0; d < pagers_.size(); ++d) {
        const vmem::PagerCounters& c = pagers_[d]->counters();
        sum.faults += c.faults;
        sum.page_ins += c.page_ins;
        sum.page_outs += c.page_outs;
        sum.evicted_pages += c.evicted_pages;
        sum.clean_drops += c.clean_drops;
        sum.prefetch_issued += c.prefetch_issued;
        sum.prefetch_hits += c.prefetch_hits;
        sum.pin_shortfalls += c.pin_shortfalls;
        sum.host_restores += c.host_restores;
        sum.frame_alloc_failures += c.frame_alloc_failures;
        sum.handoffs_out += c.handoffs_out;
        sum.handoffs_in += c.handoffs_in;
        sum.bytes_handed_off += c.bytes_handed_off;
        resident += pagers_[d]->resident_bytes();
        ledger += pagers_[d]->ledger_bytes();
        const std::string dev = "device" + std::to_string(d);
        pagers_[d]->export_metrics(reg, "vmem." + dev + ".",
                                   "gpu." + dev + ".mem.");
        reg.counter("rt." + dev + ".placements")
            ->set(domain_placements_[d]);
        reg.gauge("rt." + dev + ".clients")
            ->set(static_cast<double>(domain_clients_[d]));
      }
      reg.counter("vmem.faults")->set(sum.faults);
      reg.counter("vmem.page_ins")->set(sum.page_ins);
      reg.counter("vmem.page_outs")->set(sum.page_outs);
      reg.counter("vmem.evictions_pages")->set(sum.evicted_pages);
      reg.counter("vmem.clean_drops")->set(sum.clean_drops);
      reg.counter("vmem.prefetch_issued")->set(sum.prefetch_issued);
      reg.counter("vmem.prefetch_hits")->set(sum.prefetch_hits);
      reg.counter("vmem.pin_shortfalls")->set(sum.pin_shortfalls);
      reg.counter("vmem.host_restores")->set(sum.host_restores);
      reg.counter("vmem.frame_alloc_failures")
          ->set(sum.frame_alloc_failures);
      reg.counter("vmem.handoffs_out")->set(sum.handoffs_out);
      reg.counter("vmem.handoffs_in")->set(sum.handoffs_in);
      reg.counter("vmem.bytes_handed_off")->set(sum.bytes_handed_off);
      reg.gauge("vmem.resident_bytes")->set(static_cast<double>(resident));
      reg.gauge("vmem.ledger_bytes")->set(static_cast<double>(ledger));
    }
  }
  set("obs.spans_dropped", obs_.tracer().dropped());
  if (config_.fault != nullptr) config_.fault->export_metrics(reg);
}

std::size_t RtServer::drain_requests(bool* shutdown) {
  std::size_t handled = 0;
  // Sweep the shared message queue dry without blocking.
  const auto sweep_queue = [&] {
    for (;;) {
      auto request = requests_.receive(std::chrono::milliseconds(0));
      if (!request.ok()) {
        if (request.status().code() != ErrorCode::kUnavailable) {
          VGPU_ERROR("rt server: receive failed: "
                     << request.status().to_string());
          *shutdown = true;
        }
        return;
      }
      if (request->op == RtOp::kShutdown) {
        *shutdown = true;
        return;
      }
      if (request->op == RtOp::kWake) continue;
      stats_.requests.fetch_add(1);
      handle(*request);
      ++handled;
    }
  };
  sweep_queue();
  if (*shutdown) return handled;
  // Ready-set drain: the control region names exactly the lanes whose
  // clients published since the last wakeup, so this sweep is O(ready),
  // never O(attached). Collect every pending ring request before handling
  // any: handle() may detach a session (stale re-attach replacement),
  // which would invalidate the lane being swept.
  ready_batch_.clear();
  if (ctrl_.drain_ready(&ready_batch_) == 0) return handled;
  stats_.record_ready(ready_batch_.size());
  ring_batch_.clear();
  bool mq_ready = false;
  for (const std::uint32_t slot : ready_batch_) {
    ClientState* client = sessions_.at(slot);
    if (client == nullptr || client->lane == nullptr) continue;
    if (client->lane->kind() != ipc::TransportKind::kShmRing) {
      mq_ready = true;
      continue;
    }
    while (auto request = client->lane->try_receive()) {
      ring_batch_.push_back(*request);
    }
  }
  // An mqueue client publishes its slot after its mq_send, so its message
  // may have landed after the sweep above; the publish is consumed now, so
  // sweep again or the message waits out the doorbell park. (With no ring
  // lanes the loop parks in the queue's own receive, which finds it.)
  if (mq_ready && ring_lanes_ > 0) {
    sweep_queue();
    if (*shutdown) return handled;
  }
  for (const RtRequest& request : ring_batch_) {
    stats_.requests.fetch_add(1);
    stats_.ring_requests.fetch_add(1);
    // client mq_send + server mq_timedreceive + server mq_send + client
    // mq_receive, all elided by the ring round trip.
    stats_.syscalls_saved.fetch_add(4);
    handle(request);
    ++handled;
  }
  return handled;
}

void RtServer::serve_loop() {
  obs::Tracer& tracer = obs_.tracer();
  tracer.ensure_thread();
  ipc::WaitStrategy waiter(config_.wait);
  ipc::Doorbell door(door_shm_.as<ipc::Doorbell::Word>());
  // Serve-thread CPU, measured on the thread's own clock: wall time in a
  // futex park costs nothing here, so cpu_ns / requests is an honest
  // server-side cost-per-request even for mostly-idle runs.
  timespec cpu_begin{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu_begin);
  const auto flush_cpu = [&cpu_begin, this] {
    timespec cpu_end{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu_end);
    stats_.serve_cpu_ns.store(
        (cpu_end.tv_sec - cpu_begin.tv_sec) * 1000000000L +
        (cpu_end.tv_nsec - cpu_begin.tv_nsec));
  };
  for (;;) {
    bool shutdown = false;
    const SimTime drain_begin = tracer.begin_span();
    const std::size_t handled = drain_requests(&shutdown);
    if (handled > 0) {
      stats_.record_batch(handled);
      tracer.end_span(drain_begin, obs::Phase::kBatchDrain, obs::kLaneServer,
                      static_cast<std::int32_t>(handled));
    }
    if (shutdown) break;
    drain_completions();
    check_leases();
    pump();
    if (handled > 0) continue;  // stay hot while requests keep arriving
    // Idle. Bound the park so time-based policies (quantum expiry,
    // anti-thrash hysteresis) are still polled promptly.
    auto park = std::chrono::microseconds(1000);
    const SimTime wake = scheduler_->next_wakeup(rt_now());
    if (wake != kTimeInfinity) {
      const SimTime now = rt_now();
      const SimTime delta_ns = wake > now ? wake - now : 0;
      park = std::min(park, std::chrono::microseconds(delta_ns / 1000 + 1));
    }
    const SimTime park_begin = tracer.begin_span();
    if (ring_lanes_ == 0) {
      // Pure-mqueue mode: block inside the kernel on the shared queue,
      // exactly like the paper's timed-receive serve loop. A job finishing
      // meanwhile posts a kWake (mq_parked_); the flag is raised before
      // the completion count is checked, the job bumps the count before
      // testing the flag, so one of the two always sees the other.
      mq_parked_.store(true);
      if (pending_completions_.load() > 0) {
        mq_parked_.store(false);
        continue;
      }
      auto request = requests_.receive(park_ceil_ms(park));
      mq_parked_.store(false);
      tracer.end_span(park_begin, obs::Phase::kPark, obs::kLaneServer);
      if (request.ok()) {
        if (request->op == RtOp::kShutdown) break;
        if (request->op != RtOp::kWake) {
          stats_.requests.fetch_add(1);
          handle(*request);
          stats_.record_batch(1);
        }
        drain_completions();
        pump();
      } else if (request.status().code() != ErrorCode::kUnavailable) {
        VGPU_ERROR("rt server: receive failed: "
                   << request.status().to_string());
        break;
      }
    } else {
      // Ring mode: adaptive spin -> yield -> futex park on the doorbell.
      // The predicate is two shared loads — the ready-set head published
      // by clients and the worker completion count — independent of how
      // many sessions are attached. The mqueue is re-polled at least
      // every `park`.
      waiter.wait(
          [this] {
            return !ctrl_.ready_empty() ||
                   pending_completions_.load(std::memory_order_acquire) > 0;
          },
          &door, std::chrono::steady_clock::now() + park);
      tracer.end_span(park_begin, obs::Phase::kPark, obs::kLaneServer);
    }
  }
  flush_cpu();
  stats_.spin_wakeups.store(waiter.stats().spin_hits +
                            waiter.stats().yield_hits);
  stats_.doorbell_blocks.store(waiter.stats().blocks);
}

void RtServer::drain_completions() {
  // done_batch_ and completions_ ping-pong their storage: the clear-then-
  // swap keeps both buffers' capacity, so the steady-state wakeup path
  // never allocates.
  done_batch_.clear();
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    done_batch_.swap(completions_);
    pending_completions_.store(0, std::memory_order_release);
  }
  for (int id : done_batch_) {
    auto it = id_slots_.find(id);
    ClientState* client =
        it != id_slots_.end() ? sessions_.at(it->second) : nullptr;
    // The working set stays pinned for exactly the kernel's lifetime;
    // after this the clock may spill it for the next grant's pins. (A
    // session already destroyed mid-job released its pages on that path.)
    if (paging() && client != nullptr) pager_of(*client)->unpin(id);
    scheduler_->on_complete(id, rt_now());
    // A doomed session was only waiting for this job to drain; reclaim it
    // now instead of on the next lease sweep.
    if (client == nullptr) continue;
    if (client->doomed &&
        client->job_done->load(std::memory_order_acquire)) {
      destroy_session(it->second, /*unlink_names=*/true,
                      /*count_reclaimed=*/true);
      continue;
    }
    if (client->parked_seq.has_value() &&
        client->job_done->load(std::memory_order_acquire)) {
      // The parked STP / kLaunchGraph gets its one answer now, unless the
      // client has since moved on to another verb (or released).
      const std::int64_t seq = *client->parked_seq;
      client->parked_seq.reset();
      if (!client->released && client->last_seq == seq) {
        answer_completion(*client);
      }
    }
  }
}

void RtServer::answer_completion(ClientState& client) {
  if (client.job_failed->load(std::memory_order_acquire)) {
    // The kernel threw; surface the failure instead of handing back stale
    // output bytes.
    respond(client, RtAck::kError);
    return;
  }
  if (paging() && client.alloc_out != 0) {
    // The client reads its result next; make sure nothing the pager
    // spilled (and the test-only scrub mode poisoned) is still stale.
    (void)pager_of(client)->ensure_readable(client.alloc_out);
    pager_of(client)->touch(client.alloc_out);
  }
  if (config_.data_plane == DataPlane::kStaged && !sharded() &&
      !client.last_job_graph && client.bytes_out > 0) {
    // Result: staging buffer -> virtual shared memory (output area).
    // (Sharded jobs already wrote back, chunked, before completing; graph
    // replays write the vsm data area directly.)
    const SimTime t0 = obs_.tracer().begin_span();
    std::memcpy(client.output_area().data(), client.staging_out.data(),
                static_cast<std::size_t>(client.bytes_out));
    obs_.tracer().end_span(t0, obs::Phase::kCopyOut, client.id,
                           client.kernel_id);
    stats_.bytes_copied.fetch_add(client.bytes_out);
  }
  respond(client, RtAck::kAck);
}

void RtServer::respond(ClientState& client, RtAck ack) {
  const ipc::TransportKind kind = client.lane != nullptr
                                      ? client.lane->kind()
                                      : ipc::TransportKind::kMessageQueue;
  RtResponse response;
  response.ack = ack;
  response.transport = static_cast<std::int32_t>(kind);
  response.seq = client.last_seq;
  send_response(client, response);
}

void RtServer::send_unrecorded(ClientState& client, RtAck ack) {
  RtResponse response;
  response.ack = ack;
  response.transport = static_cast<std::int32_t>(
      client.lane != nullptr ? client.lane->kind()
                             : ipc::TransportKind::kMessageQueue);
  response.seq = client.last_seq;
  send_now(client, response);
}

void RtServer::send_response(ClientState& client, const RtResponse& response) {
  // Record before sending: a duplicate of this request replays exactly
  // this answer, whether or not the send below reaches the client.
  client.last_response = response;
  client.has_last_response = true;
  send_now(client, response);
}

void RtServer::send_now(ClientState& client, const RtResponse& response) {
  if (config_.fault != nullptr) {
    if (const fault::Decision d =
            config_.fault->on(fault::Point::kServerRespond)) {
      if (d.action == fault::Action::kDrop) return;  // lost response
      if (d.delay.count() > 0) std::this_thread::sleep_for(d.delay);
    }
  }
  const Status st = client.lane != nullptr ? client.lane->send(response)
                                           : client.resp.send(response);
  if (!st.ok()) {
    if (st.code() == ErrorCode::kUnavailable) {
      // Full queue/ring: the client is likely dead and no longer draining.
      // Never block the serve loop on it; the lease sweep reclaims it.
      stats_.responses_dropped.fetch_add(1);
    } else {
      VGPU_ERROR("rt server: response send failed: " << st.to_string());
    }
  }
}

void RtServer::check_leases() {
  const SimTime now = rt_now();
  if (now - last_lease_check_ < to_ns(config_.lease_check_interval)) return;
  last_lease_check_ = now;
  const SimTime lease_ns = to_ns(config_.lease_timeout);
  const SimTime linger_ns = to_ns(config_.release_linger);
  const SimTime interval_ns = to_ns(config_.lease_check_interval);
  // Deadline heap: pop only what is due — an idle sweep at 10k attached
  // sessions touches nothing. Every popped entry is lazily re-validated:
  // a recycled (slot, generation) resolves to null and drops out, and a
  // deadline pushed back by later activity re-arms at the recomputed time
  // instead of acting.
  while (!lease_heap_.empty() && lease_heap_.top().due <= now) {
    const LeaseDeadline deadline = lease_heap_.top();
    lease_heap_.pop();
    ClientState* client = sessions_.get(deadline.slot, deadline.generation);
    if (client == nullptr) continue;  // recycled since arming
    switch (deadline.kind) {
      case LeaseDeadline::Kind::kSilent: {
        if (client->released || client->doomed || lease_ns <= 0) break;
        if (client->str_pending ||
            !client->job_done->load(std::memory_order_acquire)) {
          // A client whose STR is queued or whose job is executing is
          // legitimately idle at the barrier, not dead. Keep watching.
          arm_lease(*client, LeaseDeadline::Kind::kSilent, now + lease_ns);
          break;
        }
        if (now - client->last_seen < lease_ns) {
          arm_lease(*client, LeaseDeadline::Kind::kSilent,
                    client->last_seen + lease_ns);
          break;
        }
        // Silent past the deadline with nothing queued or running.
        expire_lease(*client, now);
        break;
      }
      case LeaseDeadline::Kind::kLinger: {
        // Normal RLS: quota and scheduler state already returned; the
        // entry lingered only to answer duplicate RLS retries.
        if (!client->released) break;
        if (now - client->released_at >= linger_ns) {
          destroy_session(deadline.slot, /*unlink_names=*/false,
                          /*count_reclaimed=*/false);
        } else {
          arm_lease(*client, LeaseDeadline::Kind::kLinger,
                    client->released_at + linger_ns);
        }
        break;
      }
      case LeaseDeadline::Kind::kDoomed: {
        if (!client->doomed) break;
        if (client->job_done->load(std::memory_order_acquire)) {
          // The in-flight job has drained; nothing references the region
          // or staging buffers any more.
          destroy_session(deadline.slot, /*unlink_names=*/true,
                          /*count_reclaimed=*/true);
        } else {
          arm_lease(*client, LeaseDeadline::Kind::kDoomed, now + interval_ns);
        }
        break;
      }
    }
  }
  // Bounded pid-probe / lane-reconcile rotation: a kProbeBatch window of
  // slots per sweep instead of every attached client. Populations at or
  // below kProbeBatch keep the pre-rotation detection latency.
  const std::uint32_t high = sessions_.high_water();
  if (high == 0) return;
  const std::uint32_t window = std::min(high, kProbeBatch);
  ring_batch_.clear();
  for (std::uint32_t i = 0; i < window; ++i) {
    const std::uint32_t slot = (probe_cursor_ + i) % high;
    ClientState* client = sessions_.at(slot);
    if (client == nullptr || client->released || client->doomed) continue;
    if (lease_ns > 0 && client->pid > 0 && ::kill(client->pid, 0) != 0 &&
        errno == ESRCH) {
      expire_lease(*client, now);  // the client process is gone
      continue;
    }
    // Reconciliation: drain the lane directly, healing the (instruction-
    // wide) window where a publisher died after setting its queued flag
    // but before linking its ready node — a set flag would otherwise
    // absorb every later publish for the slot.
    if (client->lane != nullptr &&
        client->lane->kind() == ipc::TransportKind::kShmRing) {
      while (auto request = client->lane->try_receive()) {
        ring_batch_.push_back(*request);
      }
    }
  }
  probe_cursor_ = (probe_cursor_ + window) % high;
  for (const RtRequest& request : ring_batch_) {
    stats_.requests.fetch_add(1);
    stats_.ring_requests.fetch_add(1);
    stats_.reconcile_requests.fetch_add(1);
    handle(request);
  }
}

void RtServer::return_quota(ClientState& client, bool count_reclaimed) {
  if (!client.graphs.empty()) {
    // Cached graphs die with the lease, on whichever path retired it
    // (RLS, expiry, re-attach replacement). A replay in flight keeps its
    // own graph alive through the job's shared_ptr; the cache goes now.
    long nodes = 0;
    for (const auto& [gid, graph] : client.graphs) {
      nodes += static_cast<long>(graph->nodes.size());
    }
    stats_.graph_nodes_live.fetch_sub(nodes);
    stats_.graphs_reclaimed.fetch_add(static_cast<long>(client.graphs.size()));
    client.graphs.clear();
  }
  if (client.admitted_bytes > 0) {
    admitted_total_ -= client.admitted_bytes;
    if (count_reclaimed) {
      stats_.reclaimed_bytes.fetch_add(client.admitted_bytes);
    }
    client.admitted_bytes = 0;
  }
  backpressure_counts_.erase(client.id);
  if (paging() && (client.alloc_in != 0 || client.alloc_out != 0)) {
    // Page frames and ledger slots ride the same exit as the quota bytes:
    // whichever path retired the client (RLS, lease expiry, or re-attach
    // replacement) frees its memory for the survivors in one place.
    // unpin tolerates a teardown mid-grant.
    pager_of(client)->unpin(client.id);
    (void)pager_of(client)->release_client(client.id);
    client.alloc_in = 0;
    client.alloc_out = 0;
    const auto domain = static_cast<std::size_t>(client.device);
    if (domain < domain_clients_.size() && domain_clients_[domain] > 0) {
      --domain_clients_[domain];
    }
    scheduler_->set_residency(client.id, false);
  }
}

void RtServer::arm_lease(const ClientState& client, LeaseDeadline::Kind kind,
                         SimTime due) {
  lease_heap_.push(LeaseDeadline{due, client.slot, client.generation, kind});
}

void RtServer::expire_lease(ClientState& client, SimTime now) {
  VGPU_WARN("rt server: lease expired for client "
            << client.id << (client.pid > 0 ? " (pid probe)" : "")
            << "; reclaiming");
  // Dequeue first: a pending STR leaves the scheduler here, and for the
  // barrier policy the cohort width shrinks so the survivors' flush
  // proceeds without the dead member.
  scheduler_->on_failure(client.id, now);
  return_quota(client, /*count_reclaimed=*/true);
  stats_.leases_expired.fetch_add(1);
  if (obs_.tracer().enabled()) {
    // The silent window itself is the span: last heartbeat -> expiry.
    obs_.tracer().record(obs::Phase::kLeaseExpiry, client.id, client.pid,
                         client.last_seen, now);
  }
  client.str_pending = false;
  client.doomed = true;
  if (client.job_done->load(std::memory_order_acquire)) {
    // Nothing in flight references the region; reclaim immediately. This
    // invalidates `client` — callers must not touch it afterwards.
    destroy_session(client.slot, /*unlink_names=*/true,
                    /*count_reclaimed=*/true);
  } else {
    // The job still holds the buffers; drain_completions (or the next
    // sweep) reclaims once it lands.
    arm_lease(client, LeaseDeadline::Kind::kDoomed,
              now + to_ns(config_.lease_check_interval));
  }
}

void RtServer::destroy_session(std::uint32_t slot, bool unlink_names,
                               bool count_reclaimed) {
  ClientState* client = sessions_.at(slot);
  if (client == nullptr) return;
  if (client->lane != nullptr &&
      client->lane->kind() == ipc::TransportKind::kShmRing) {
    --ring_lanes_;
  }
  if (unlink_names) {
    // Crashed client: unlink the kernel names it can no longer clean up.
    // The server's own mappings stay valid until the handles close; a
    // released client unlinks its own names, so callers skip those (a
    // fresh incarnation may already have recreated them). Arena clients
    // have no private vsm segment to unlink.
    const std::string suffix = std::to_string(client->id);
    if (client->arena_offset < 0) {
      ipc::SharedMemory::unlink(config_.prefix + "_vsm" + suffix);
    }
    ipc::MessageQueueBase::unlink(config_.prefix + "_resp" + suffix);
  }
  if (count_reclaimed) stats_.clients_reclaimed.fetch_add(1);
  if (!client->graphs.empty()) {
    // Backstop for destroy paths that skipped return_quota: the cached
    // graphs must never outlive their session.
    long nodes = 0;
    for (const auto& [gid, graph] : client->graphs) {
      nodes += static_cast<long>(graph->nodes.size());
    }
    stats_.graph_nodes_live.fetch_sub(nodes);
    stats_.graphs_reclaimed.fetch_add(
        static_cast<long>(client->graphs.size()));
    client->graphs.clear();
  }
  if (client->arena_offset >= 0) arena_.release(client->arena_offset);
  if (auto it = id_slots_.find(client->id);
      it != id_slots_.end() && it->second == slot) {
    id_slots_.erase(it);
  }
  sessions_.detach(slot);  // bumps the generation: outstanding tokens die
  stats_.slots_recycled.fetch_add(1);
}

RtServer::ClientState* RtServer::resolve(const RtRequest& request) {
  if (request.session != 0) {
    ClientState* client = sessions_.get(session_slot(request.session),
                                        session_generation(request.session));
    if (client == nullptr) {
      // The token's generation predates the slot's current tenant (a
      // recycled lane, or a token minted before a crash-reattach).
      // Rejecting — never falling back to the id — is what makes slot
      // reuse safe under churn.
      stats_.stale_sessions.fetch_add(1);
      return nullptr;
    }
    return client;
  }
  // Pre-session verb: the O(1) id index stands in for the token.
  auto it = id_slots_.find(request.client);
  if (it == id_slots_.end()) {
    VGPU_ERROR("rt server: request from unknown client " << request.client);
    return nullptr;
  }
  return sessions_.at(it->second);
}

void RtServer::count_ctrl(RtOp op) {
  switch (op) {
    case RtOp::kReq:
      stats_.ctrl_req.fetch_add(1);
      break;
    case RtOp::kSnd:
      stats_.ctrl_snd.fetch_add(1);
      break;
    case RtOp::kStr:
      stats_.ctrl_str.fetch_add(1);
      break;
    case RtOp::kStp:
      stats_.ctrl_stp.fetch_add(1);
      break;
    case RtOp::kRcv:
      stats_.ctrl_rcv.fetch_add(1);
      break;
    case RtOp::kRls:
      stats_.ctrl_rls.fetch_add(1);
      break;
    case RtOp::kGraphUpload:
    case RtOp::kLaunchGraph:
      stats_.ctrl_graph.fetch_add(1);
      break;
    case RtOp::kShutdown:
    case RtOp::kWake:
      break;
  }
}

void RtServer::handle(const RtRequest& request) {
  count_ctrl(request.op);
  if (config_.fault != nullptr) {
    if (const fault::Decision d =
            config_.fault->on(fault::Point::kServerHandle)) {
      if (d.action == fault::Action::kDrop) return;  // lost control message
      if (d.delay.count() > 0) std::this_thread::sleep_for(d.delay);
    }
  }
  if (request.op == RtOp::kReq) {
    handle_req(request);
    return;
  }
  ClientState* resolved = resolve(request);
  if (resolved == nullptr) return;
  ClientState& client = *resolved;
  client.last_seen = rt_now();
  // At-least-once delivery: a repeat of the last seq is a client retry
  // after a lost response — replay the recorded answer instead of running
  // the verb's side effects twice. Anything older is a stale duplicate.
  if (request.seq != 0 && client.last_seq != 0) {
    if (request.seq == client.last_seq) {
      if (client.has_last_response) {
        stats_.duplicates_absorbed.fetch_add(1);
        send_response(client, client.last_response);
      } else if (client.parked_seq == request.seq) {
        // A resend of a parked STP / kLaunchGraph: the job is still
        // running. The heartbeat kWait tells the client the server is
        // alive; it is not recorded, since a later retry must replay the
        // completion ack.
        stats_.waits_sent.fetch_add(1);
        send_unrecorded(client, RtAck::kWait);
      }
      return;
    }
    if (request.seq < client.last_seq) return;
  }
  if (client.released) return;  // lingering entry: replays only
  client.last_seq = request.seq;
  client.has_last_response = false;
  switch (request.op) {
    case RtOp::kSnd: {
      if (paging() && client.alloc_in != 0) {
        // The client rewrote its input area: write-allocate — any ledger
        // copy of those pages is stale and must not be restored over the
        // fresh bytes.
        pager_of(client)->host_write(client.alloc_in);
      }
      if (config_.data_plane == DataPlane::kStaged && !sharded() &&
          client.bytes_in > 0) {
        // Stage input: virtual shared memory -> private ("pinned") buffer.
        const SimTime t0 = obs_.tracer().begin_span();
        std::memcpy(client.staging_in.data(), client.input_area().data(),
                    static_cast<std::size_t>(client.bytes_in));
        obs_.tracer().end_span(t0, obs::Phase::kCopyIn, client.id,
                               client.kernel_id);
        stats_.bytes_copied.fetch_add(client.bytes_in);
      }
      // Sharded mode defers the staging copy into the job itself, where it
      // is chunked and overlapped with compute (the serve thread never
      // blocks on a memcpy). Zero-copy plane: the kernel reads the vsm
      // directly; SND is a pure protocol ack either way.
      respond(client, RtAck::kAck);
      break;
    }
    case RtOp::kStr: {
      if (client.str_pending ||
          !client.job_done->load(std::memory_order_acquire)) {
        // Duplicate STR (pre-seq client, or delivery raced the grant ack)
        // while one is already queued or running: the grant/completion
        // path answers both. Re-enqueueing would corrupt the scheduler.
        break;
      }
      client.str_pending = true;
      client.str_begin = obs_.tracer().begin_span();
      // A plain round charges the admission-time footprint again.
      scheduler_->clear_round_cost(client.id);
      client.graph_pending = -1;
      scheduler_->enqueue(client.id, rt_now());
      break;  // the serve loop pumps grants after every drain
    }
    case RtOp::kStp: {
      if (client.str_pending ||
          !client.job_done->load(std::memory_order_acquire)) {
        // Park: drain_completions answers this seq when the job lands.
        // str_pending covers the enqueued-but-not-granted window: job_done
        // still holds the previous round's true until the grant runs, so
        // without it an STP would ack pre-replay output as complete.
        client.parked_seq = request.seq;
        break;
      }
      answer_completion(client);
      break;
    }
    case RtOp::kRcv: {
      if (paging() && client.alloc_out != 0) {
        // Zero-copy clients read the vsm output area after this ack.
        (void)pager_of(client)->ensure_readable(client.alloc_out);
      }
      respond(client, RtAck::kAck);
      break;
    }
    case RtOp::kRls: {
      respond(client, RtAck::kAck);
      // A round still waiting for its grant (the client's STR timed out)
      // is cancelled with the session.
      client.str_pending = false;
      scheduler_->on_release(client.id, rt_now());
      return_quota(client, /*count_reclaimed=*/false);
      // The entry lingers (release_linger) so a duplicate RLS retry gets
      // its replay; the armed deadline garbage-collects it.
      client.released = true;
      client.released_at = rt_now();
      arm_lease(client, LeaseDeadline::Kind::kLinger,
                client.released_at + to_ns(config_.release_linger));
      break;
    }
    case RtOp::kGraphUpload: {
      handle_graph_upload(request, client);
      break;
    }
    case RtOp::kLaunchGraph: {
      handle_launch_graph(request, client);
      break;
    }
    case RtOp::kReq:
    case RtOp::kShutdown:
    case RtOp::kWake:
      break;  // handled elsewhere
  }
}

void RtServer::handle_graph_upload(const RtRequest& request,
                                   ClientState& client) {
  stats_.graph_uploads.fetch_add(1);
  const std::int64_t total = request.params[0];
  const std::int64_t offset = request.params[1];
  const std::int64_t nbytes = request.params[2];
  constexpr std::int64_t kMaxWire =
      static_cast<std::int64_t>(sizeof(RtGraphHeader)) +
      static_cast<std::int64_t>(kGraphMaxNodes) *
          static_cast<std::int64_t>(sizeof(RtGraphNode));
  if (total <= 0 || total > kMaxWire || offset < 0 || nbytes <= 0 ||
      offset + nbytes > total || nbytes > client.bytes_in) {
    stats_.graphs_rejected.fetch_add(1);
    VGPU_WARN("rt server: malformed graph upload chunk from client "
              << client.id);
    respond(client, RtAck::kError);
    return;
  }
  if (offset == 0) {
    // First chunk (re)starts the accumulation; a retried first chunk
    // after a lost ack is absorbed by the seq-replay path above.
    client.graph_upload.assign(static_cast<std::size_t>(total), std::byte{0});
    client.graph_upload_id = request.kernel_id;
    client.graph_upload_total = total;
    client.graph_upload_received = 0;
  }
  if (client.graph_upload_total != total ||
      client.graph_upload_id != request.kernel_id ||
      client.graph_upload.size() != static_cast<std::size_t>(total)) {
    stats_.graphs_rejected.fetch_add(1);
    VGPU_WARN("rt server: graph upload chunk does not match the upload in "
              "progress (client "
              << client.id << ")");
    client.graph_upload.clear();
    client.graph_upload_total = 0;
    respond(client, RtAck::kError);
    return;
  }
  // The chunk bytes travel at the head of the client's vsm input area.
  std::memcpy(client.graph_upload.data() + offset, client.input_area().data(),
              static_cast<std::size_t>(nbytes));
  client.graph_upload_received += nbytes;
  if (client.graph_upload_received < total) {
    respond(client, RtAck::kAck);
    return;
  }
  auto parsed = parse_graph({client.graph_upload.data(),
                             client.graph_upload.size()},
                            registry_, client.bytes_in + client.bytes_out);
  client.graph_upload.clear();
  client.graph_upload.shrink_to_fit();
  client.graph_upload_total = 0;
  if (!parsed.ok()) {
    stats_.graphs_rejected.fetch_add(1);
    VGPU_WARN("rt server: rejected graph " << request.kernel_id
                                           << " from client " << client.id
                                           << ": "
                                           << parsed.status().to_string());
    respond(client, RtAck::kError);
    return;
  }
  if (auto old = client.graphs.find(request.kernel_id);
      old != client.graphs.end()) {
    // Re-upload replaces; a replay in flight still pins the old graph.
    stats_.graph_nodes_live.fetch_sub(
        static_cast<long>(old->second->nodes.size()));
  }
  auto graph = std::make_shared<const RtGraph>(std::move(*parsed));
  stats_.graph_nodes_live.fetch_add(static_cast<long>(graph->nodes.size()));
  stats_.graphs_cached.fetch_add(1);
  client.graphs[request.kernel_id] = std::move(graph);
  respond(client, RtAck::kAck);
}

void RtServer::handle_launch_graph(const RtRequest& request,
                                   ClientState& client) {
  auto it = client.graphs.find(request.kernel_id);
  if (it == client.graphs.end()) {
    VGPU_WARN("rt server: launch of unknown graph " << request.kernel_id
                                                    << " from client "
                                                    << client.id);
    respond(client, RtAck::kError);
    return;
  }
  if (client.str_pending ||
      !client.job_done->load(std::memory_order_acquire)) {
    // A round is already queued or running (pre-seq duplicate, or the
    // launch raced the previous completion); the grant/completion path
    // answers it. Re-enqueueing would corrupt the scheduler.
    return;
  }
  if (paging() && client.alloc_in != 0) {
    // The client rewrote its inputs before firing the iteration.
    pager_of(client)->host_write(client.alloc_in);
  }
  client.graph_pending = request.kernel_id;
  std::memcpy(client.graph_params, request.params,
              sizeof(client.graph_params));
  client.parked_seq = request.seq;
  client.str_pending = true;
  client.str_begin = obs_.tracer().begin_span();
  // One graph grant stands for the whole DAG: charge its aggregate
  // bytes/blocks instead of the admission-time footprint.
  scheduler_->set_round_cost(client.id, it->second->aggregate_bytes(),
                             it->second->plan.total_blocks);
  scheduler_->enqueue(client.id, rt_now());
  // No response here: the ack goes out once, at replay completion.
}

void RtServer::handshake_reply(const RtRequest& request, RtAck ack,
                               std::int64_t arena_offset) {
  RtResponse response;
  response.ack = ack;
  response.transport =
      static_cast<std::int32_t>(ipc::TransportKind::kMessageQueue);
  response.seq = request.seq;
  response.arena_offset = arena_offset;
  if (config_.fault != nullptr) {
    if (const fault::Decision d =
            config_.fault->on(fault::Point::kServerRespond)) {
      if (d.action == fault::Action::kDrop) return;  // lost response
      if (d.delay.count() > 0) std::this_thread::sleep_for(d.delay);
    }
  }
  if (request.mailbox >= 0) {
    if (ctrl_.deliver(request.mailbox, request.client, response)) {
      stats_.mailbox_acks.fetch_add(1);
    } else {
      // Stale index or a crashed claimant whose box was recycled.
      stats_.responses_dropped.fetch_add(1);
    }
    return;
  }
  auto resp = ipc::MessageQueue<RtResponse>::open(
      config_.prefix + "_resp" + std::to_string(request.client));
  if (!resp.ok()) {
    VGPU_ERROR("rt server: cannot answer REQ for client "
               << request.client << ": " << resp.status().to_string());
    return;
  }
  const Status st = resp->try_send(response);
  if (!st.ok() && st.code() != ErrorCode::kUnavailable) {
    VGPU_ERROR("rt server: response send failed: " << st.to_string());
  }
}

void RtServer::handle_req(const RtRequest& request) {
  // The admission span covers the whole REQ handling: queue/region
  // binding, the quota verdict, and transport negotiation.
  const SimTime adm_begin = obs_.tracer().begin_span();
  const auto finish = [&] {
    obs_.tracer().end_span(adm_begin, obs::Phase::kAdmission, request.client,
                           request.kernel_id);
  };

  // Re-attach while the previous incarnation's job is still executing:
  // that job references the old region and staging buffers, so the
  // registration cannot be replaced yet. Ask the client to back off.
  if (auto busy = id_slots_.find(request.client); busy != id_slots_.end()) {
    ClientState* prev = sessions_.at(busy->second);
    if (prev != nullptr && !prev->job_done->load(std::memory_order_acquire)) {
      handshake_reply(request, RtAck::kWait, -1);
      finish();
      return;
    }
  }

  // Fault: a device-memory allocation failure at binding time.
  if (config_.fault != nullptr &&
      config_.fault->should_fail(fault::Point::kDeviceAlloc)) {
    VGPU_WARN("rt server: injected allocation failure for client "
              << request.client);
    handshake_reply(request, RtAck::kError, -1);
    finish();
    return;
  }

  // Admission: per-client quota plus (when configured) the shared
  // capacity already charged to registered clients. A transient shortfall
  // answers kWait — the client backs off and re-attaches — and sustained
  // overload degrades to a firm DENIED so the client stops burning
  // retries on a server that cannot take it.
  const Bytes ask = request.bytes_in + request.bytes_out;
  const Bytes capacity = admission_capacity();
  const Bytes charged = std::min(capacity, admitted_total_);
  const auto decision = admission_->admit(ask, capacity - charged, {});
  if (decision.action != sched::AdmitAction::kAdmit) {
    bool deny = decision.action != sched::AdmitAction::kRetry;
    if (!deny) {
      stats_.backpressure.fetch_add(1);
      int& strikes = backpressure_counts_[request.client];
      if (config_.deny_after_backpressure > 0 &&
          ++strikes >= config_.deny_after_backpressure) {
        deny = true;
      }
    }
    if (deny) {
      VGPU_WARN("rt server: denied client " << request.client
                                            << " (admission)");
      backpressure_counts_.erase(request.client);
      stats_.denials.fetch_add(1);
      handshake_reply(request, RtAck::kError, -1);
    } else {
      handshake_reply(request, RtAck::kWait, -1);
    }
    finish();
    return;
  }
  backpressure_counts_.erase(request.client);

  const kernels::KernelFn* kernel = registry_.find(request.kernel_id);
  if (kernel == nullptr) {
    VGPU_ERROR("rt server: unknown kernel id " << request.kernel_id);
    handshake_reply(request, RtAck::kError, -1);
    finish();
    return;
  }

  // The region layout is a pure function of the *advertised* capabilities,
  // so both sides compute it from the REQ message alone.
  const std::uint32_t caps =
      request.transport_caps != 0 ? request.transport_caps
                                  : ipc::kTransportCapMqueue;
  const bool ring_offered =
      config_.transport == ipc::TransportKind::kShmRing &&
      (caps & ipc::kTransportCapShmRing) != 0;
  const Bytes region_size =
      vsm_region_size(caps, request.bytes_in, request.bytes_out);
  const std::string suffix = std::to_string(request.client);

  auto state = std::make_unique<ClientState>();
  ClientState& client = *state;  // heap-held: stays valid across attach()
  client.id = request.client;
  client.pid = request.pid;
  client.last_seq = request.seq;
  client.kernel = kernel;
  client.kernel_id = request.kernel_id;
  std::memcpy(client.params, request.params, sizeof(client.params));
  client.bytes_in = request.bytes_in;
  client.bytes_out = request.bytes_out;
  client.data_offset = vsm_data_offset(caps);
  if (config_.data_plane == DataPlane::kStaged) {
    client.staging_in.resize(static_cast<std::size_t>(request.bytes_in));
    client.staging_out.resize(static_cast<std::size_t>(request.bytes_out));
  }

  if (request.mailbox < 0) {
    // Classic handshake: the ack travels over the client's private
    // response queue (mailbox clients never created one).
    auto resp = ipc::MessageQueue<RtResponse>::open(config_.prefix + "_resp" +
                                                    suffix);
    if (!resp.ok()) {
      VGPU_ERROR("rt server: cannot open response queue: "
                 << resp.status().to_string());
      finish();
      return;
    }
    client.resp = std::move(*resp);
  }

  // A client may re-REQ after a crash/reconnect (the idempotent re-attach
  // the retry layer depends on); retire the stale registration before
  // admitting the new one — this also frees its arena slice, so the new
  // region never backpressures on the client's own stale footprint.
  // on_failure (not on_release): the stale incarnation may have died with
  // a STR still queued.
  if (auto staleit = id_slots_.find(request.client);
      staleit != id_slots_.end()) {
    if (ClientState* stale = sessions_.at(staleit->second); stale != nullptr) {
      if (!stale->released && !stale->doomed) {
        scheduler_->on_failure(request.client, rt_now());
      }
      return_quota(*stale, /*count_reclaimed=*/false);
      destroy_session(staleit->second, /*unlink_names=*/false,
                      /*count_reclaimed=*/false);
    }
  }

  // Region: a slice of the pooled arena when the client asked for one (and
  // the ring negotiation holds — the arena path has no response queue, so
  // post-handshake verbs need the ring), else the client's private
  // P_vsm<k> segment.
  bool use_ring = ring_offered;
  if ((caps & ipc::kTransportCapVsmArena) != 0) {
    if (!arena_.valid() || !ring_offered) {
      // Permanent decline (-2): this server cannot host the region. The
      // client falls back to a private segment immediately, no backoff.
      stats_.arena_declines.fetch_add(1);
      handshake_reply(request, RtAck::kWait, -2);
      finish();
      return;
    }
    const std::int64_t offset = arena_.allocate(region_size);
    if (offset < 0) {
      // Transiently full (-1 + kWait): back off and retry — the space
      // frees as other sessions detach.
      stats_.arena_declines.fetch_add(1);
      handshake_reply(request, RtAck::kWait, -1);
      finish();
      return;
    }
    stats_.arena_grants.fetch_add(1);
    client.arena_offset = offset;
    client.region = {arena_.at(offset),
                     static_cast<std::size_t>(region_size)};
    // The server owns arena placement, so it constructs the channel block
    // (in the private-segment path the client does, pre-REQ).
    client.channel = new (client.region.data()) RtChannel();
    client.channel->publish();
  } else {
    auto vsm =
        ipc::SharedMemory::open(config_.prefix + "_vsm" + suffix, region_size);
    if (!vsm.ok()) {
      VGPU_ERROR("rt server: cannot open vsm: " << vsm.status().to_string());
      handshake_reply(request, RtAck::kError, -1);
      finish();
      return;
    }
    client.vsm = std::move(*vsm);
    client.region = {client.vsm.data(), static_cast<std::size_t>(region_size)};
    // Transport negotiation: take the ring when the server offers it, the
    // client advertised it, and the channel block checks out (magic +
    // version); otherwise fall back to the message queue. The data offset
    // keeps the advertised layout either way.
    if (use_ring) {
      auto* channel = reinterpret_cast<RtChannel*>(client.region.data());
      if (channel->valid()) {
        client.channel = channel;
      } else {
        VGPU_ERROR("rt server: client "
                   << request.client
                   << " advertised a ring but its channel "
                      "block is invalid; using mqueue");
        use_ring = false;
      }
    }
  }

  client.last_seen = rt_now();
  client.admitted_bytes = ask;
  const std::int64_t arena_offset = client.arena_offset;
  auto ref = sessions_.attach(std::move(state));
  if (!ref.has_value()) {
    // Session table full: backpressure, never a crash. The arena slice
    // (if any) goes back; the ClientState (and its vsm mapping) died with
    // the rejected attach.
    if (arena_offset >= 0) arena_.release(arena_offset);
    stats_.backpressure.fetch_add(1);
    handshake_reply(request, RtAck::kWait, -1);
    finish();
    return;
  }
  client.slot = ref->slot;
  client.generation = ref->generation;
  // A leftover ready flag from the slot's previous tenant would absorb
  // the new tenant's publishes; clear it before the ack reveals the slot.
  ctrl_.reset_ready(client.slot);
  id_slots_[request.client] = client.slot;
  stats_.sessions_attached.fetch_add(1);
  admitted_total_ += ask;

  sched::ClientRequest sreq;
  sreq.client = request.client;
  sreq.bytes_in = request.bytes_in;
  sreq.bytes_out = request.bytes_out;
  sreq.priority = request.priority;
  scheduler_->admit(sreq, rt_now());

  if (paging()) {
    // Route the session to a memory domain first (placement over live
    // per-domain load), then register the job's backing with that
    // domain's pager: the staging buffers in staged mode, the region's
    // data areas in zero-copy mode. Pages are born host-side; the grant
    // path faults them in and pins them.
    client.device =
        place_domain(client.id, client.bytes_in + client.bytes_out);
    std::byte* in_base = config_.data_plane == DataPlane::kStaged
                             ? client.staging_in.data()
                             : client.input_area().data();
    std::byte* out_base = config_.data_plane == DataPlane::kStaged
                              ? client.staging_out.data()
                              : client.output_area().data();
    if (client.bytes_in > 0) {
      client.alloc_in =
          pager_of(client)->bind(client.id, in_base, client.bytes_in);
    }
    if (client.bytes_out > 0) {
      client.alloc_out =
          pager_of(client)->bind(client.id, out_base, client.bytes_out);
    }
  }
  ipc::TransportKind selected = ipc::TransportKind::kMessageQueue;
  if (use_ring) {
    client.lane = std::make_unique<ipc::RingServerLane<RtRequest, RtResponse>>(
        client.channel);
    selected = ipc::TransportKind::kShmRing;
    ++ring_lanes_;
  } else {
    client.channel = nullptr;
    client.lane = std::make_unique<ipc::MqServerLane<RtRequest, RtResponse>>(
        &client.resp);
  }
  if (to_ns(config_.lease_timeout) > 0) {
    arm_lease(client, LeaseDeadline::Kind::kSilent,
              client.last_seen + to_ns(config_.lease_timeout));
  }
  // The handshake answers on the pre-session path — mailbox or response
  // queue — because the client only switches to the negotiated transport
  // after reading this ack (which carries its session token and, for
  // arena clients, the region placement).
  RtResponse ack;
  ack.ack = RtAck::kAck;
  ack.transport = static_cast<std::int32_t>(selected);
  ack.seq = request.seq;
  ack.session = client.token();
  ack.arena_offset = client.arena_offset;
  client.last_response = ack;
  client.has_last_response = true;
  if (request.mailbox >= 0) {
    if (ctrl_.deliver(request.mailbox, request.client, ack)) {
      stats_.mailbox_acks.fetch_add(1);
    } else {
      // Claimant gone (stale index or crashed client): the lease sweep
      // will reclaim the session it never heard about.
      stats_.responses_dropped.fetch_add(1);
    }
  } else {
    const Status st = client.resp.send(ack);
    if (!st.ok()) {
      VGPU_ERROR("rt server: response send failed: " << st.to_string());
    }
  }
  finish();
}

void RtServer::pump() {
  // Grant batching: one scheduler sweep collects every batch this wakeup
  // produces; jobs are submitted per cohort (the flush accounting), and
  // the STR acks for the whole pump go out in one response sweep at the
  // end — under bursty arrivals the serve loop writes grants back in
  // O(granted) without re-entering the scheduler between cohorts.
  grant_ids_.clear();
  grant_cohorts_.clear();
  const std::size_t total =
      scheduler_->drain_grants(rt_now(), &grant_ids_, &grant_cohorts_);
  if (total == 0) return;
  stats_.record_pump(total);
  grant_acks_.clear();
  bool pinned_any = false;
  std::size_t next = 0;
  for (const std::size_t cohort : grant_cohorts_) {
    // One flush per granted batch, matching the DES GVM's accounting
    // (a barrier cohort co-flush counts once).
    stats_.flushes.fetch_add(1);
    std::vector<std::function<void()>> jobs;
    jobs.reserve(cohort);
    SimTime barrier_begin = kTimeInfinity;  // earliest STR in the cohort
    for (std::size_t i = 0; i < cohort; ++i) {
      const int id = grant_ids_[next++];
      auto it = id_slots_.find(id);
      VGPU_ASSERT_MSG(it != id_slots_.end(), "grant for unregistered client");
      ClientState* state = sessions_.at(it->second);
      VGPU_ASSERT_MSG(state != nullptr, "grant for recycled session");
      // The queue-wait span closes here: STR arrival -> scheduler grant.
      if (state->str_begin >= 0) {
        obs_.tracer().end_span(state->str_begin, obs::Phase::kQueueWait, id,
                               state->kernel_id);
        barrier_begin = std::min(barrier_begin, state->str_begin);
        state->str_begin = obs::kSpanDisabled;
      }
      if (paging()) {
        // Grant-time residency: fault and pin the working set before
        // launch so the kernel never pages mid-run; cold pages of other
        // clients spill to the host ledger to make room. A shortfall
        // (ledger exhausted) still runs — backing bytes stay valid — and
        // is counted, not deadlocked on.
        const bool resident = pager_of(*state)->pin_working_set(id);
        scheduler_->set_residency(id, resident);
        pinned_any = true;
      }
      // A graph grant acks at completion (drain_completions), never at
      // grant time — that is the whole-graph single-ack contract.
      if (state->graph_pending < 0) grant_acks_.push_back(state);
      jobs.push_back(make_job(id, *state));
    }
    if (barrier_begin != kTimeInfinity && obs_.tracer().enabled()) {
      // Cohort co-flush: first member's STR -> this grant (the barrier
      // formation time the DES GVM models as the flush window).
      obs_.tracer().record(obs::Phase::kFlushBarrier, obs::kLaneServer,
                           static_cast<std::int32_t>(cohort),
                           barrier_begin, obs_.tracer().now());
    }
    // One lock + one doorbell ring for the whole cohort.
    const Status submitted = engine_->submit(std::move(jobs));
    if (!submitted.ok()) {
      VGPU_ERROR("rt server: job submit failed: " << submitted.to_string());
    }
  }
  for (ClientState* client : grant_acks_) respond(*client, RtAck::kAck);
  if (paging() && pinned_any) {
    // Pinning may have spilled pages of idle holders; refresh the
    // scheduler's residency view so TimeQuantum's anti-thrash hold only
    // protects working sets that are actually still on-device.
    sessions_.for_each([this](std::uint32_t, ClientState& state) {
      if (!state.released && !state.doomed &&
          (state.alloc_in != 0 || state.alloc_out != 0)) {
        scheduler_->set_residency(
            state.id, pager_of(state)->working_set_resident(state.id));
      }
    });
  }
}

std::function<void()> RtServer::make_job(int client_id, ClientState& client) {
  VGPU_ASSERT_MSG(client.str_pending, "grant without a pending STR");
  client.str_pending = false;
  client.job_done->store(false, std::memory_order_release);
  client.job_failed->store(false, std::memory_order_release);
  // A graph grant replays the cached DAG; the shared_ptr pins the graph
  // across a concurrent re-upload or session teardown.
  std::shared_ptr<const RtGraph> graph;
  std::array<std::int64_t, 4> bindings{};
  client.last_job_graph = client.graph_pending >= 0;
  if (client.last_job_graph) {
    graph = client.graphs.at(client.graph_pending);
    std::memcpy(bindings.data(), client.graph_params,
                sizeof(client.graph_params));
    client.graph_pending = -1;  // consumed by this grant
  }
  // The job captures the ClientState pointer — stable: slot entries are
  // heap-held, so attach churn never moves them. ClientState outlives the
  // job because every destroy path (RLS linger, lease expiry, re-attach
  // replacement) gates on job_done, and stop() drains the engine before
  // detaching sessions.
  auto done = client.job_done;
  auto failed = client.job_failed;
  ClientState* state = &client;
  ipc::Doorbell door(door_shm_.as<ipc::Doorbell::Word>());
  return [this, graph, bindings, done, failed, client_id, door,
          state]() mutable {
    const char* what = graph != nullptr ? "graph replay" : "kernel job";
    jobs_in_flight_.fetch_add(1, std::memory_order_acq_rel);
    bool error = false;
    try {
      if (graph != nullptr) {
        run_graph_job(*state, *graph, bindings.data());
      } else {
        run_job(*state);
      }
    } catch (const std::exception& e) {
      VGPU_ERROR("rt server: " << what << " for client " << client_id
                               << " threw: " << e.what());
      error = true;
    } catch (...) {
      VGPU_ERROR("rt server: " << what << " for client " << client_id
                               << " threw");
      error = true;
    }
    jobs_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    if (error) stats_.jobs_failed.fetch_add(1);
    stats_.jobs_run.fetch_add(1);
    if (graph != nullptr) {
      stats_.graph_replays.fetch_add(1);
      stats_.graph_nodes_run.fetch_add(static_cast<long>(graph->nodes.size()));
      // Versus per-launch execution each kernel node costs a
      // SND+STR+STP+RCV exchange; the replay cost one kLaunchGraph message.
      stats_.graph_messages_saved.fetch_add(
          std::max<long>(0, 4 * graph->plan.kernel_nodes - 1));
    }
    failed->store(error, std::memory_order_release);
    done->store(true, std::memory_order_release);
    // Feed the completion back to the serve thread, which owns the
    // scheduler, then ring its doorbell so a parked loop reacts now.
    {
      std::lock_guard<std::mutex> lock(completions_mutex_);
      completions_.push_back(client_id);
      pending_completions_.fetch_add(1);
    }
    door.ring();
    if (mq_parked_.exchange(false)) {
      // The serve loop blocks on the request queue, out of the doorbell's
      // reach (pure-mqueue mode): a full queue already wakes it.
      RtRequest wake;
      wake.op = RtOp::kWake;
      (void)requests_.try_send(wake);
    }
  };
}

void RtServer::copy_chunked(std::byte* dst, const std::byte* src,
                            Bytes total) {
  if (total <= 0) return;
  const long nchunks = ceil_div(total, kCopyChunk);
  // Overlap accounting: another job computing while these chunks copy is
  // exactly the copy/compute overlap the serial path cannot have.
  const bool overlapped = jobs_in_flight_.load(std::memory_order_acquire) > 1;
  const Status st = engine_->parallel_for(nchunks, [&](long begin, long end) {
    for (long k = begin; k < end; ++k) {
      const Bytes off = k * kCopyChunk;
      const Bytes len = std::min(kCopyChunk, total - off);
      std::memcpy(dst + off, src + off, static_cast<std::size_t>(len));
    }
  });
  if (!st.ok()) throw std::runtime_error(st.to_string());
  stats_.bytes_copied.fetch_add(total);
  if (overlapped) stats_.overlap_bytes.fetch_add(total);
}

void RtServer::run_streamed(ClientState& client,
                            const kernels::KernelStream& stream,
                            long cap) {
  const long grid = stream.grid(client.params);
  std::span<const std::byte> in{client.staging_in.data(),
                                client.staging_in.size()};
  std::span<std::byte> out{client.staging_out.data(),
                           client.staging_out.size()};
  std::span<std::byte> vsm_in = client.input_area();
  // Chunk count: aim for kCopyChunk-sized input pieces, at least two so
  // the pipeline has something to overlap, never more than the grid.
  const long by_bytes =
      ceil_div(std::max<Bytes>(1, client.bytes_in), kCopyChunk);
  const long nchunks = std::clamp(by_bytes, 2L, grid);
  obs::Tracer& tracer = obs_.tracer();
  auto chunk_begin = [&](long k) { return grid * k / nchunks; };
  auto copy_in_chunk = [&](long k) {
    // Per-chunk copy-in span: these overlap the kernel span below — the
    // trace shows exactly which copies hid under compute.
    const SimTime t0 = tracer.begin_span();
    const kernels::StreamView view =
        stream.input_slices(client.params, chunk_begin(k), chunk_begin(k + 1));
    Bytes bytes = 0;
    for (int s = 0; s < view.count; ++s) {
      const kernels::StreamSlice& slice = view.slices[s];
      if (slice.len == 0) continue;
      std::memcpy(client.staging_in.data() + slice.offset,
                  vsm_in.data() + slice.offset, slice.len);
      bytes += static_cast<Bytes>(slice.len);
    }
    tracer.end_span(t0, obs::Phase::kCopyIn, client.id, client.kernel_id);
    stats_.bytes_copied.fetch_add(bytes);
    return bytes;
  };
  // Double-buffered pipeline: while chunk k computes, one engine shard
  // copies chunk k+1's input slices in.
  copy_in_chunk(0);
  const SimTime kernel_begin = tracer.begin_span();
  for (long k = 0; k < nchunks; ++k) {
    exec::ExecEngine::Group copy_group;
    Bytes next_bytes = 0;
    if (k + 1 < nchunks) {
      const long next = k + 1;
      const Status st = engine_->launch(
          copy_group, 1,
          [&, next](long, long) { next_bytes = copy_in_chunk(next); });
      if (!st.ok()) throw std::runtime_error(st.to_string());
    }
    const long begin = chunk_begin(k);
    const long blocks = chunk_begin(k + 1) - begin;
    const Status st = engine_->parallel_for(
        blocks,
        [&](long b0, long b1) {
          stream.run(in, out, client.params, begin + b0, begin + b1);
        },
        cap);
    if (!st.ok()) throw std::runtime_error(st.to_string());
    engine_->wait(copy_group);
    if (engine_->workers() > 1 && next_bytes > 0) {
      stats_.overlap_bytes.fetch_add(next_bytes);
    }
  }
  // One kernel span for the whole pipelined grid; the per-chunk copy-in
  // spans above nest inside it (that is the overlap, rendered).
  tracer.end_span(kernel_begin, obs::Phase::kKernel, client.id,
                  client.kernel_id);
  const SimTime o0 = tracer.begin_span();
  copy_chunked(client.output_area().data(), client.staging_out.data(),
               client.bytes_out);
  tracer.end_span(o0, obs::Phase::kCopyOut, client.id, client.kernel_id);
}

long RtServer::shard_cap(int kernel_id, const std::int64_t* params) const {
  const kernels::GeometryFn* geometry = registry_.find_geometry(kernel_id);
  return geometry != nullptr
             ? exec::occupancy_shard_cap(config_.device, (*geometry)(params))
             : 0;
}

ParallelFor RtServer::executor_for(int kernel_id,
                                   const std::int64_t* params) {
  if (!sharded()) return serial_executor();
  return engine_->executor(shard_cap(kernel_id, params));
}

void RtServer::run_job(ClientState& client) {
  // Serial mode stages the input at SND and writes it back at STP, on the
  // serve thread; sharded mode copies here, chunked on the engine.
  const bool staged = config_.data_plane == DataPlane::kStaged;
  const bool copy_here = staged && sharded();
  const kernels::KernelFn& kernel = *client.kernel;
  obs::Tracer& tracer = obs_.tracer();
  std::span<const std::byte> in = client.input_area();
  std::span<std::byte> out = client.output_area();
  if (staged) {
    in = {client.staging_in.data(), client.staging_in.size()};
    out = {client.staging_out.data(), client.staging_out.size()};
  }
  if (copy_here) {
    // A grid of at least two blocks pipelines; a smaller one has nothing
    // to overlap and takes the plain path below.
    if (const kernels::KernelStream* stream =
            registry_.find_stream(client.kernel_id);
        stream != nullptr && stream->grid(client.params) >= 2) {
      run_streamed(client, *stream,
                   shard_cap(client.kernel_id, client.params));
      return;
    }
    const SimTime t0 = tracer.begin_span();
    copy_chunked(client.staging_in.data(), client.input_area().data(),
                 client.bytes_in);
    tracer.end_span(t0, obs::Phase::kCopyIn, client.id, client.kernel_id);
  }
  const SimTime k0 = tracer.begin_span();
  kernel(in, out, client.params,
         executor_for(client.kernel_id, client.params));
  tracer.end_span(k0, obs::Phase::kKernel, client.id, client.kernel_id);
  if (copy_here) {
    const SimTime t0 = tracer.begin_span();
    copy_chunked(client.output_area().data(), client.staging_out.data(),
                 client.bytes_out);
    tracer.end_span(t0, obs::Phase::kCopyOut, client.id, client.kernel_id);
  }
}

void RtServer::run_graph_job(ClientState& client, const RtGraph& graph,
                             const std::int64_t* bindings) {
  obs::Tracer& tracer = obs_.tracer();
  const SimTime g0 = tracer.begin_span();
  // Graph nodes run zero-copy on the client's vsm data area in *both*
  // data-plane modes: copy nodes are the graph's own explicit data
  // movement, so staging on top of them would double every byte moved —
  // and the zero-copy and staged replays stay bitwise-identical.
  std::span<std::byte> data = client.data_area();
  const GraphPlan& plan = graph.plan;
  // run_unit executes on engine worker threads when a level has several
  // units, so fused-chain heads in one level increment this concurrently.
  std::atomic<long> fused_tails{0};

  const auto resolve_params = [&](const RtGraphNode& node,
                                  std::int64_t* out_params) {
    std::memcpy(out_params, node.params, sizeof(node.params));
    for (int i = 0; i < 4; ++i) {
      if (node.bindings[i] >= 0) out_params[i] = bindings[node.bindings[i]];
    }
  };

  // Executes node `idx` — and, when it heads a fused chain, the whole
  // chain as one pass over the data (exec/fusion.hpp).
  const auto run_unit = [&](int idx) {
    const RtGraphNode& node = graph.nodes[idx];
    const SimTime n0 = tracer.begin_span();
    if (node.kind == static_cast<std::int32_t>(GraphNodeKind::kCopy)) {
      std::memmove(data.data() + node.dst_offset,
                   data.data() + node.src_offset,
                   static_cast<std::size_t>(node.src_bytes));
      stats_.bytes_copied.fetch_add(node.src_bytes);
      tracer.end_span(n0, obs::Phase::kGraphNode, client.id, /*aux=*/-1);
      return;
    }
    if (plan.fuse_next[idx] >= 0) {
      // Fused chain: one stage per member, one sweep over the grid.
      std::vector<exec::FusedStage> stages;
      long grid = 0;
      long cap = 0;
      for (int k = idx; k >= 0; k = plan.fuse_next[k]) {
        const RtGraphNode* n = &graph.nodes[k];
        const kernels::KernelStream* stream =
            registry_.find_stream(n->kernel_id);
        grid = stream->grid(n->params);
        if (const long member_cap = shard_cap(n->kernel_id, n->params);
            member_cap > 0) {
          cap = cap > 0 ? std::min(cap, member_cap) : member_cap;
        }
        const std::span<const std::byte> in = data.subspan(
            static_cast<std::size_t>(n->src_offset),
            static_cast<std::size_t>(n->src_bytes));
        const std::span<std::byte> out = data.subspan(
            static_cast<std::size_t>(n->dst_offset),
            static_cast<std::size_t>(n->dst_bytes));
        stages.push_back([stream, n, in, out](long b0, long b1) {
          stream->run(in, out, n->params, b0, b1);
        });
      }
      // Serial mode passes no engine: run_fused's chunked serial sweep.
      const Status st =
          exec::run_fused(sharded() ? engine_.get() : nullptr, grid,
                          {stages.data(), stages.size()}, cap);
      if (!st.ok()) throw std::runtime_error(st.to_string());
      fused_tails.fetch_add(static_cast<long>(stages.size()) - 1,
                            std::memory_order_relaxed);
      tracer.end_span(n0, obs::Phase::kGraphNode, client.id, node.kernel_id);
      return;
    }
    std::int64_t params[4];
    resolve_params(node, params);
    const std::span<const std::byte> in =
        data.subspan(static_cast<std::size_t>(node.src_offset),
                     static_cast<std::size_t>(node.src_bytes));
    const std::span<std::byte> out =
        data.subspan(static_cast<std::size_t>(node.dst_offset),
                     static_cast<std::size_t>(node.dst_bytes));
    const kernels::KernelFn& kernel = *registry_.find(node.kernel_id);
    kernel(in, out, params, executor_for(node.kernel_id, params));
    tracer.end_span(n0, obs::Phase::kGraphNode, client.id, node.kernel_id);
  };

  // Level-ordered replay: nodes of one level are mutually unordered
  // (validated conflict-free), so sharded mode runs them concurrently on
  // the engine and serial mode in order; a fused chain executes as one
  // unit at its head's level.
  std::vector<int> units;
  for (int level = 0; level < plan.level_count; ++level) {
    units.clear();
    for (int i = 0; i < static_cast<int>(graph.nodes.size()); ++i) {
      if (plan.level_of[i] == level && !plan.fused_tail[i]) {
        units.push_back(i);
      }
    }
    // One launch per level, one block per unit; the engine executor
    // rethrows the first unit exception.
    const long n = static_cast<long>(units.size());
    const ParallelFor run_level =
        sharded() && n > 1 ? engine_->executor(n) : serial_executor();
    run_level(n, [&](long begin, long end) {
      for (long u = begin; u < end; ++u) {
        run_unit(units[static_cast<std::size_t>(u)]);
      }
    });
  }
  if (const long tails = fused_tails.load(std::memory_order_relaxed);
      tails > 0) {
    stats_.graph_nodes_fused.fetch_add(tails);
  }
  tracer.end_span(g0, obs::Phase::kGraph, client.id,
                  static_cast<std::int32_t>(graph.nodes.size()));
}

}  // namespace vgpu::rt
