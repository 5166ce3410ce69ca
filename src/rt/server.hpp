// The live GVM server: a user-space daemon owning the (functional) GPU
// executor, serving VGPU requests from real processes or threads over the
// negotiated IPC transport — the deployable counterpart of the DES Gvm
// used for timing reproduction.
//
// Resource naming, for prefix P and client id k:
//   request queue   P_req          (created by the server; carries REQ,
//                                   mqueue-mode ops, shutdown and the
//                                   jobs' completion wakes)
//   doorbell        P_door         (created by the server; ring clients
//                                   and workers wake the serve loop here)
//   response queue  P_resp<k>      (created by the client; REQ handshake
//                                   and mqueue-mode responses)
//   data plane      P_vsm<k>       (created by the client; optional ring
//                                   channel block, then input area, then
//                                   output area — layout fixed at REQ)
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "exec/engine.hpp"
#include "gpu/spec.hpp"
#include "ipc/arena.hpp"
#include "ipc/control.hpp"
#include "ipc/mqueue.hpp"
#include "ipc/shm.hpp"
#include "ipc/transport.hpp"
#include "obs/obs.hpp"
#include "rt/graph.hpp"
#include "rt/messages.hpp"
#include "rt/registry.hpp"
#include "rt/session.hpp"
#include "sched/admission.hpp"
#include "sched/placement.hpp"
#include "sched/scheduler.hpp"
#include "vmem/pager.hpp"

namespace vgpu::fault {
class Injector;
}

namespace vgpu::rt {

/// How job data crosses the client/server boundary.
enum class DataPlane : std::int32_t {
  /// Paper-faithful: SND copies vsm -> pinned staging, STP copies staging
  /// -> vsm (the Figure 10 "data in/out" overhead, reproduced live).
  kStaged = 0,
  /// Kernels execute directly on spans into the client's vsm region; the
  /// job path moves zero bytes. Relies on the protocol's discipline (the
  /// client only touches the data area between RCV and SND).
  kZeroCopy = 1,
};

const char* data_plane_name(DataPlane plane);
/// Parses the CLI spelling ("staged" | "zero_copy").
bool parse_data_plane(const std::string& text, DataPlane* out);

/// How granted kernels execute. Both modes run every job on the one
/// exec::ExecEngine; the mode decides only which executor a kernel body
/// gets and where the staged data plane copies.
enum class ExecMode : std::int32_t {
  /// Each granted kernel runs whole on one engine worker
  /// (serial_executor(), so a launch never uses more than one core); the
  /// serve thread stages the copies at SND and STP.
  kSerial = 0,
  /// Grid-sharded execution: each launch fans out into block-range shards
  /// capped by modeled SM occupancy, and the staged data plane's copies
  /// are chunked and overlapped with compute inside the job.
  kSharded = 1,
};

const char* exec_mode_name(ExecMode mode);
/// Parses the CLI spelling ("serial" | "sharded").
bool parse_exec_mode(const std::string& text, ExecMode* out);

/// Ceiling conversion for the serve loop's idle park: microseconds to
/// whole milliseconds (mq_timedreceive granularity), never below 1ms.
/// Truncating instead (the old `count() / 1000`) cut a 1.9ms park to 1ms
/// and woke the idle loop up to twice as often as the scheduler asked.
inline std::chrono::milliseconds park_ceil_ms(std::chrono::microseconds park) {
  const auto ms = (park.count() + 999) / 1000;
  return std::chrono::milliseconds(ms < 1 ? 1 : ms);
}

struct RtServerConfig {
  std::string prefix = "/vgpu";
  /// STR barrier width (SPMD process count). 1 disables batching.
  int expected_clients = 1;
  /// Worker threads executing kernel functions.
  int workers = 4;
  /// Scheduling policy (src/sched) — the same policy objects the DES GVM
  /// uses, so the live and simulated paths cannot drift. For the default
  /// kBarrierCoFlush policy the width is `expected_clients`.
  sched::SchedulerConfig sched;
  /// Per-client cap on bytes_in + bytes_out at REQ; 0 = unlimited.
  /// Over-quota requests are rejected with RtAck::kError.
  Bytes per_client_quota = 0;
  /// Control-plane transport offered to clients. REQ negotiates: the
  /// selected transport is the best both sides speak, falling back to the
  /// paper-faithful message queue.
  ipc::TransportKind transport = ipc::TransportKind::kMessageQueue;
  /// Data plane for kernel execution (see DataPlane).
  DataPlane data_plane = DataPlane::kStaged;
  /// Execution mode for granted kernels (see ExecMode).
  ExecMode exec = ExecMode::kSerial;
  /// Modeled device for occupancy shard caps (sharded mode).
  gpu::DeviceSpec device = gpu::tesla_c2070();
  /// Serve-loop wait strategy (spin -> yield -> doorbell park).
  ipc::WaitConfig wait;
  /// Session-table capacity: the most concurrently attached clients the
  /// control region's ready set is sized for. Attaches beyond it answer
  /// kWait (backpressure), never a crash.
  int max_sessions = 4096;
  /// Pooled vsm arena size; 0 disables (every client creates a private
  /// P_vsm<k> segment). When set, clients advertising the arena
  /// capability get their region carved out of one shared
  /// (hugepage-advised) segment — see docs/scaling.md.
  Bytes arena_size = 0;
  /// Observability: span tracing (per-job queue/Tin/Tcomp/Tout phases)
  /// and ring sizing. The metrics registry is always on; stop() exports
  /// every legacy counter into it (see docs/observability.md).
  obs::ObsConfig obs;
  /// Lease: a registered client whose process is gone (pid probe), or that
  /// stays silent for this long while nothing of its is queued or running,
  /// is declared dead and fully reclaimed (vsm, rings, queues, quota,
  /// scheduler state — the barrier wave releases for the survivors).
  /// Zero disables client-death detection entirely.
  std::chrono::milliseconds lease_timeout{5000};
  /// How often the serve loop sweeps leases (and the pid probes run).
  std::chrono::milliseconds lease_check_interval{50};
  /// Released clients linger this long before their state is dropped, so
  /// a duplicate RLS (retry after a lost ack) still gets its replay.
  std::chrono::milliseconds release_linger{100};
  /// Admission capacity across all registered clients (bytes_in +
  /// bytes_out summed); 0 = unlimited. When new work does not fit, REQ
  /// answers kWait (backpressure: the client backs off and re-attaches).
  Bytes total_capacity = 0;
  /// After this many consecutive kWait answers to the same client id, the
  /// server degrades to DENIED (kError) instead of stringing the client
  /// along — graceful degradation under sustained overload. 0 disables.
  int deny_after_backpressure = 16;
  /// Optional fault injector (not owned; must outlive the server). Drives
  /// the server-side points (server.handle, server.respond, device.alloc)
  /// and is forwarded to the exec engine (exec.shard) and the vmem pager
  /// (vmem.pagein). Null (the default) costs one pointer compare per hook.
  fault::Injector* fault = nullptr;
  /// Transparent memory oversubscription (src/vmem). When enabled,
  /// admission runs in paged mode — clients are admitted up to the
  /// *virtual* capacity (device + host ledger) and never denied or
  /// whole-client evicted under memory pressure — and the grant path pins
  /// each job's working set on the modeled device, spilling cold pages of
  /// other clients to the host-RAM ledger (see docs/memory.md).
  struct Vmem {
    bool enabled = false;
    Bytes page_size = 2 * kMiB;
    /// Modeled device memory backing page frames; 0 = use total_capacity.
    Bytes device_capacity = 0;
    /// Host ledger bound for spilled pages.
    Bytes host_ledger = 1024 * kMiB;
    /// Sequential pages faulted ahead on a residency miss.
    int prefetch_window = 4;
    /// Modeled memory domains (devices) behind the front door: each gets
    /// its own pager (device_capacity frames + host_ledger) and clients
    /// are routed to one at REQ time by `placement`. Metrics gain
    /// per-device labels (vmem.device<k>.*, gpu.device<k>.mem.*,
    /// rt.device<k>.*) alongside the pooled vmem.* aggregates.
    int devices = 1;
  } vmem;
  /// Placement policy routing clients across the vmem memory domains at
  /// REQ time (static / pack / spread / locality); only consulted when
  /// vmem.devices > 1.
  sched::PlacementConfig placement;
};

struct RtServerStats {
  std::atomic<long> requests{0};
  std::atomic<long> flushes{0};
  std::atomic<long> jobs_run{0};
  /// kWait heartbeats: answers to resends of a parked STP/kLaunchGraph.
  std::atomic<long> waits_sent{0};
  /// Requests that arrived via a shm-ring lane (no syscalls).
  std::atomic<long> ring_requests{0};
  /// Data-plane bytes memcpy'd on the job path (staged mode only; the
  /// zero-copy plane keeps this at 0).
  std::atomic<long> bytes_copied{0};
  /// Kernel entries avoided versus the mqueue control plane: 4 per ring
  /// round trip (client mq_send + server mq_timedreceive + server mq_send
  /// + client mq_receive), doorbell futexes not deducted (the spin phase
  /// elides most of them; see spin_wakeups).
  std::atomic<long> syscalls_saved{0};
  /// Serve-loop idle waits satisfied while spinning (no futex park).
  std::atomic<long> spin_wakeups{0};
  /// Serve-loop futex parks.
  std::atomic<long> doorbell_blocks{0};
  /// Data-plane bytes whose copy ran while the engine had other compute
  /// in flight (sharded mode: the chunked-overlap payoff; 0 in serial
  /// mode, where every copy serializes against compute).
  std::atomic<long> overlap_bytes{0};
  /// Kernel jobs that raised an exception (surfaced to the client as an
  /// RtAck::kError at STP instead of terminating the server).
  std::atomic<long> jobs_failed{0};
  /// Client leases expired (pid probe or silent deadline).
  std::atomic<long> leases_expired{0};
  /// Dead clients fully reclaimed (segments, queues, quota, scheduler).
  std::atomic<long> clients_reclaimed{0};
  /// Admitted quota bytes returned by reclamation.
  std::atomic<long> reclaimed_bytes{0};
  /// REQ answered kWait (admission backpressure under memory pressure).
  std::atomic<long> backpressure{0};
  /// REQ answered kError after sustained backpressure (DENIED).
  std::atomic<long> denials{0};
  /// Repeated-seq requests absorbed by replaying the recorded response.
  std::atomic<long> duplicates_absorbed{0};
  /// Responses dropped on a full (likely dead) client queue or ring.
  std::atomic<long> responses_dropped{0};
  /// Sessions attached into the slot table (REQ accepted).
  std::atomic<long> sessions_attached{0};
  /// Slots recycled back to the free list (detach under churn).
  std::atomic<long> slots_recycled{0};
  /// Verbs rejected because their session token's generation was recycled.
  std::atomic<long> stale_sessions{0};
  /// REQ acks delivered through control-region mailboxes (no mqueue).
  std::atomic<long> mailbox_acks{0};
  /// REQs granted a region inside the pooled vsm arena.
  std::atomic<long> arena_grants{0};
  /// Arena asks declined (no arena configured, or transiently full).
  std::atomic<long> arena_declines{0};
  /// Ring requests recovered by the reconciliation sweep instead of the
  /// ready set (a publisher died mid-publish, or a pre-session client).
  std::atomic<long> reconcile_requests{0};
  /// Serve-thread CPU time (CLOCK_THREAD_CPUTIME_ID), total over the
  /// serve loop's life; divide by rt.requests for CPU-per-request.
  std::atomic<long> serve_cpu_ns{0};
  /// Histogram of requests handled per serve-loop wakeup; bucket i counts
  /// wakeups that drained a batch of depth in [2^i, 2^(i+1)).
  static constexpr int kBatchBuckets = 8;  // 1,2-3,4-7,...,128+
  std::atomic<long> batch_depth[kBatchBuckets] = {};
  /// Ready-set depth per drain (same 2^i bucketing): how many lanes were
  /// actually ready per wakeup — the tentpole's O(ready) evidence.
  std::atomic<long> ready_depth[kBatchBuckets] = {};
  /// Grants written back per pump (one response sweep each).
  std::atomic<long> grants_per_pump[kBatchBuckets] = {};
  /// Control-plane messages received, per verb — the measured baseline
  /// for the graph path's fewer-messages-per-iteration claim. Duplicates
  /// count too: every arrival is control-plane work.
  std::atomic<long> ctrl_req{0};
  std::atomic<long> ctrl_snd{0};
  std::atomic<long> ctrl_str{0};
  std::atomic<long> ctrl_stp{0};
  std::atomic<long> ctrl_rcv{0};
  std::atomic<long> ctrl_rls{0};
  /// kGraphUpload + kLaunchGraph messages.
  std::atomic<long> ctrl_graph{0};
  /// Graph capture/replay (docs/graphs.md).
  std::atomic<long> graph_uploads{0};       // upload chunks received
  std::atomic<long> graphs_cached{0};       // validated + cached
  std::atomic<long> graphs_rejected{0};     // failed validation
  std::atomic<long> graph_replays{0};       // kLaunchGraph jobs completed
  std::atomic<long> graph_nodes_run{0};     // nodes executed across replays
  /// Kernel nodes whose data pass was merged into their predecessor's
  /// fused chain (the saved sweeps over the data).
  std::atomic<long> graph_nodes_fused{0};
  /// Control messages a replay avoided versus per-launch execution:
  /// 4 verbs (SND/STR/STP/RCV) per kernel node, minus the one launch.
  std::atomic<long> graph_messages_saved{0};
  /// Cached graphs torn down with their session (lease expiry, RLS
  /// linger GC, re-attach replacement).
  std::atomic<long> graphs_reclaimed{0};
  /// Nodes currently cached across all sessions; must drain to zero when
  /// every session dies (the recovery tests' leak check).
  std::atomic<long> graph_nodes_live{0};

  void record_batch(std::size_t depth);
  void record_ready(std::size_t depth);
  void record_pump(std::size_t grants);
};

/// Snapshot of the execution engine's counters, captured at stop() (the
/// engine itself is torn down with the serve loop).
struct RtExecCounters {
  long launches = 0;
  long shards_executed = 0;
  long steals = 0;
  long overflow_pushes = 0;
  long external_jobs = 0;
  /// Shards executed per worker; the last entry counts non-worker
  /// participants (threads inside engine waits).
  std::vector<long> worker_shards;
};

class RtServer {
 public:
  RtServer(RtServerConfig config, const KernelRegistry& registry);
  RtServer(const RtServer&) = delete;
  RtServer& operator=(const RtServer&) = delete;
  ~RtServer();

  /// Creates the request queue and doorbell region, then starts the serve
  /// thread.
  Status start();

  /// Posts a shutdown message and joins the serve thread. Idempotent.
  void stop();

  const RtServerStats& stats() const { return stats_; }
  const RtServerConfig& config() const { return config_; }
  /// Execution-engine counters; meaningful after stop() in sharded mode
  /// (all zeros in serial mode).
  const RtExecCounters& exec_counters() const { return exec_counters_; }
  /// Scheduler counters; read after stop() (the serve thread owns the
  /// scheduler while running).
  const sched::Scheduler& scheduler() const { return *scheduler_; }
  const sched::AdmissionController& admission() const { return *admission_; }
  /// The vmem pager (memory domain 0); null unless config.vmem.enabled.
  /// Counters are safe to read after stop() (the serve thread owns the
  /// pagers while running).
  const vmem::Pager* pager() const {
    return pagers_.empty() ? nullptr : pagers_.front().get();
  }
  /// Memory domains behind the front door (0 when vmem is off).
  std::size_t memory_domains() const { return pagers_.size(); }
  const vmem::Pager* pager(std::size_t domain) const {
    return pagers_[domain].get();
  }
  /// The observability hub: metrics registry (fully populated after
  /// stop(), via export_obs) and the span tracer.
  obs::Hub& obs() { return obs_; }
  const obs::Hub& obs() const { return obs_; }

 private:
  struct ClientState {
    /// Private P_vsm<k> segment (empty when the region lives in the
    /// pooled arena).
    ipc::SharedMemory vsm;
    /// The client's channel-plus-data region: the vsm segment's bytes, or
    /// an arena slice. All data-area access goes through this view.
    std::span<std::byte> region;
    /// Arena placement (-1 = private segment).
    std::int64_t arena_offset = -1;
    /// REQ handshake and mqueue-mode responses (client-created; invalid
    /// for arena clients, whose handshake used a control-region mailbox).
    ipc::MessageQueue<RtResponse> resp;
    /// Post-negotiation response path (and, for rings, request source).
    std::unique_ptr<ipc::ServerLane<RtRequest, RtResponse>> lane;
    RtChannel* channel = nullptr;      // ring transport only; head of region
    std::size_t data_offset = 0;       // data area offset inside region
    /// Slot-table coordinates; token() is what verbs carry.
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
    std::int64_t token() const { return make_session_token(slot, generation); }
    std::vector<std::byte> staging_in;   // staged data plane only
    std::vector<std::byte> staging_out;
    const kernels::KernelFn* kernel = nullptr;
    int id = -1;         // client id (the span lane)
    int kernel_id = -1;
    /// STR arrival per the tracer clock; closes the kQueueWait span at
    /// grant time (kSpanDisabled while tracing is off).
    SimTime str_begin = obs::kSpanDisabled;
    std::int64_t params[4] = {};
    Bytes bytes_in = 0;
    Bytes bytes_out = 0;
    bool str_pending = false;
    std::shared_ptr<std::atomic<bool>> job_done =
        std::make_shared<std::atomic<bool>>(true);
    /// Set by the job when the kernel threw; STP answers kError.
    std::shared_ptr<std::atomic<bool>> job_failed =
        std::make_shared<std::atomic<bool>>(false);
    /// Lease bookkeeping. `pid` is the client's process id from REQ (0 for
    /// in-process clients: no liveness probe). `last_seen` is the tracer-
    /// clock time of the client's last control message.
    int pid = 0;
    SimTime last_seen = 0;
    /// Lease expired; resources are reclaimed once the in-flight job (if
    /// any) drains — the job still references vsm and the staging buffers.
    bool doomed = false;
    /// RLS handled; state lingers for release_linger so duplicate RLS
    /// retries get their replay instead of "unknown client".
    bool released = false;
    SimTime released_at = 0;
    /// At-least-once RPC: highest request seq seen and the response it
    /// got. A repeat of last_seq replays last_response verbatim (the
    /// request side effects must not run twice); seq 0 opts out.
    std::int64_t last_seq = 0;
    RtResponse last_response{};
    bool has_last_response = false;
    /// Quota charged against total_capacity at admission (returned on
    /// release or reclamation).
    Bytes admitted_bytes = 0;
    /// vmem registrations (0 = unbound): input/output backing — staging
    /// buffers in staged mode, the vsm data areas in zero-copy mode.
    vmem::AllocId alloc_in = 0;
    vmem::AllocId alloc_out = 0;
    /// The vmem memory domain (device) serving this session.
    int device = 0;
    /// Cached graphs, keyed by the client-chosen graph id; they die with
    /// the session (destroy_session), and a replay in flight pins its
    /// graph through the shared_ptr its job captured.
    std::unordered_map<int, std::shared_ptr<const RtGraph>> graphs;
    /// Multi-part kGraphUpload accumulation.
    std::vector<std::byte> graph_upload;
    int graph_upload_id = -1;
    std::int64_t graph_upload_total = 0;
    std::int64_t graph_upload_received = 0;
    /// kLaunchGraph granted but not yet jobbed: the graph id
    /// (make_job consumes it) and the per-iteration bindings.
    int graph_pending = -1;
    std::int64_t graph_params[4] = {};
    /// Deferred completion: the seq of an STP or kLaunchGraph that arrived
    /// before its job finished. Nothing is sent then; drain_completions
    /// answers it when the job lands, provided it is still last_seq (the
    /// client has not moved on) and the session is not released.
    std::optional<std::int64_t> parked_seq;
    /// True while the most recent job was a graph replay: STP must not
    /// write back staging bytes the replay never produced.
    bool last_job_graph = false;

    std::span<std::byte> input_area() {
      return region.subspan(data_offset, static_cast<std::size_t>(bytes_in));
    }
    std::span<std::byte> output_area() {
      return region.subspan(data_offset + static_cast<std::size_t>(bytes_in),
                            static_cast<std::size_t>(bytes_out));
    }
    /// The whole data area (input then output) — graph node offsets are
    /// relative to its base.
    std::span<std::byte> data_area() {
      return region.subspan(data_offset,
                            static_cast<std::size_t>(bytes_in + bytes_out));
    }
  };

  /// Deadline-ordered lease work: instead of scanning every client each
  /// sweep, the serve loop pops only entries that are due. Entries are
  /// lazily validated — a recycled (slot, generation) no longer resolves
  /// and is dropped; a deadline pushed back by later activity re-arms at
  /// the recomputed time.
  struct LeaseDeadline {
    enum class Kind { kSilent, kLinger, kDoomed };
    SimTime due = 0;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
    Kind kind = Kind::kSilent;
    bool operator>(const LeaseDeadline& other) const {
      return due > other.due;
    }
  };

  void serve_loop();
  /// One non-blocking sweep over the shared queue, then over exactly the
  /// lanes the ready set names (O(ready), not O(attached)). Returns the
  /// number of requests handled; sets *shutdown when the shutdown message
  /// was seen.
  std::size_t drain_requests(bool* shutdown);
  void handle(const RtRequest& request);
  void handle_req(const RtRequest& request);
  /// Graph verbs (docs/graphs.md): chunk accumulation + validate/cache,
  /// and the deferred-ack launch that enqueues a whole-graph round.
  void handle_graph_upload(const RtRequest& request, ClientState& client);
  void handle_launch_graph(const RtRequest& request, ClientState& client);
  /// O(1) session lookup: token-checked slot access when the verb carries
  /// one (stale generations are rejected and counted), id-table fallback
  /// for pre-session clients.
  ClientState* resolve(const RtRequest& request);
  /// Answers a REQ that never reached registration (busy / denied /
  /// backpressured): through the request's claimed mailbox when it names
  /// one, else over the client's P_resp<k> queue.
  void handshake_reply(const RtRequest& request, RtAck ack,
                       std::int64_t arena_offset);
  /// Drains scheduler grants: submits each granted cohort's jobs to the
  /// engine as one batch and ACKs the STRs.
  void pump();
  /// Builds the engine job for a granted client (marks it busy): one
  /// kernel launch, or for a graph grant one replay of the whole cached
  /// DAG (acked at completion, not at grant time).
  std::function<void()> make_job(int client_id, ClientState& client);
  /// Replays a graph over the client's data area: level-ordered (nodes of
  /// one level run concurrently under the engine), elementwise chains
  /// fused through exec::run_fused, per-node kGraphNode spans nested in
  /// one kGraph span.
  void run_graph_job(ClientState& client, const RtGraph& graph,
                     const std::int64_t* bindings);
  /// Job body (on an engine worker). Serial mode runs the kernel on
  /// serial_executor(); sharded mode does a chunked stage-in, the
  /// engine-sharded kernel and a chunked write-back.
  void run_job(ClientState& client);
  bool sharded() const { return config_.exec == ExecMode::kSharded; }
  /// The executor a kernel body gets: serial_executor() in serial mode,
  /// the engine capped at the kernel's occupancy (shard_cap) otherwise.
  ParallelFor executor_for(int kernel_id, const std::int64_t* params);
  /// Occupancy shard cap of a launch (0 = uncapped): the blocks of the
  /// kernel's geometry the modeled device can co-schedule.
  long shard_cap(int kernel_id, const std::int64_t* params) const;
  /// Pipelined elementwise path for grids of two or more blocks: copy
  /// chunk k+1's input slices while chunk k computes (double-buffered
  /// copy/compute overlap).
  void run_streamed(ClientState& client, const kernels::KernelStream& stream,
                    long cap);
  /// Chunked memcpy on the engine; counts overlap when other jobs are in
  /// flight.
  void copy_chunked(std::byte* dst, const std::byte* src, Bytes total);
  /// Feeds worker-thread job completions back into the scheduler (serve
  /// thread only).
  void drain_completions();
  /// Answers a finished job's completion wait (STP, or the parked STP /
  /// kLaunchGraph in drain_completions): kError if the kernel threw, else
  /// the pager makes the output readable, the serial staged plane copies
  /// staging -> vsm, and kAck.
  void answer_completion(ClientState& client);
  void respond(ClientState& client, RtAck ack);
  /// Records the response for duplicate replay, applies the
  /// server.respond fault point, and sends without ever blocking the
  /// serve loop (a full dead-client queue counts responses_dropped).
  void send_response(ClientState& client, const RtResponse& response);
  /// Sends without recording a duplicate-replay answer: the kWait
  /// heartbeat a resend of a parked verb gets must not shadow the
  /// completion ack a later retry needs to replay.
  void send_unrecorded(ClientState& client, RtAck ack);
  /// The raw fault-pointed send both of the above share.
  void send_now(ClientState& client, const RtResponse& response);
  /// Per-verb control-plane message accounting (rt.ctrl_messages_*).
  void count_ctrl(RtOp op);
  /// Lease sweep (rate-limited by lease_check_interval): pops only the
  /// *due* entries off the deadline heap (silent expiry, linger GC,
  /// doomed reclaim), then rotates a bounded pid-probe/lane-reconcile
  /// window of kProbeBatch sessions — idle wakeups stop scanning every
  /// client.
  void check_leases();
  /// Pushes a lazily-validated deadline for `client` onto the heap.
  void arm_lease(const ClientState& client, LeaseDeadline::Kind kind,
                 SimTime due);
  /// Declares a client dead: dequeues it from the scheduler (releasing
  /// the barrier wave for survivors), records the kLeaseExpiry span, and
  /// marks it doomed for reclamation.
  void expire_lease(ClientState& client, SimTime now);
  /// The single code path returning a client's bytes to the admission
  /// ledger — RLS, lease expiry, and stale re-attach replacement all land
  /// here — and, with the pager on, reclaiming its pages and ledger
  /// slots. `count_reclaimed` adds the bytes to rt.reclaimed_bytes
  /// (crash-path accounting; a clean RLS does not count).
  void return_quota(ClientState& client, bool count_reclaimed);
  /// Modeled device capacity backing the pager's frames.
  Bytes device_capacity() const;
  /// Admission budget: virtual (device + ledger) in vmem mode, else
  /// total_capacity; "unlimited" when neither is configured.
  Bytes admission_capacity() const;
  /// Tears down one session: ring-lane count, arena slice or orphaned
  /// P_vsm / P_resp names (`unlink_names`: crash path only — a released
  /// client unlinks its own), id-table entry, and the slot itself (its
  /// generation bumps, invalidating outstanding tokens). Quota is the
  /// caller's job (RLS / expiry / replacement each return it already).
  void destroy_session(std::uint32_t slot, bool unlink_names,
                       bool count_reclaimed);
  /// Monotonic nanoseconds since server start — the scheduler's clock.
  SimTime rt_now() const;
  /// Syncs every legacy stats_/exec_counters_/sched counter into the obs
  /// registry (the single source print paths read from). Runs at stop().
  void export_obs();

  RtServerConfig config_;
  const KernelRegistry& registry_;
  ipc::MessageQueue<RtRequest> requests_;
  /// The control region (P_door): doorbell word + ready set + handshake
  /// mailboxes. ctrl_ is a view into this mapping.
  ipc::SharedMemory door_shm_;
  ipc::ControlRegion<RtResponse> ctrl_;
  /// Pooled vsm arena (invalid unless config.arena_size > 0).
  ipc::ShmArena arena_;
  /// The session table and the id index over it. The table is the owner;
  /// id_slots_ exists for REQ-time re-attach and pre-session verbs.
  SlotTable<ClientState> sessions_;
  std::unordered_map<int, std::uint32_t> id_slots_;
  int ring_lanes_ = 0;  // clients negotiated onto the ring transport
  Bytes admitted_total_ = 0;     // quota charged across live clients
  SimTime last_lease_check_ = 0;
  std::priority_queue<LeaseDeadline, std::vector<LeaseDeadline>,
                      std::greater<LeaseDeadline>>
      lease_heap_;
  std::uint32_t probe_cursor_ = 0;  // pid-probe/reconcile rotation
  std::unordered_map<int, int> backpressure_counts_;  // consecutive kWait
  std::vector<RtRequest> ring_batch_;        // drain_requests scratch
  std::vector<std::uint32_t> ready_batch_;   // drained ready slots
  std::vector<int> done_batch_;              // drain_completions scratch
  std::vector<int> grant_ids_;               // pump scratch
  std::vector<std::size_t> grant_cohorts_;
  std::vector<ClientState*> grant_acks_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::unique_ptr<sched::AdmissionController> admission_;
  /// One pager per memory domain; empty unless config.vmem.enabled.
  std::vector<std::unique_ptr<vmem::Pager>> pagers_;
  bool paging() const { return !pagers_.empty(); }
  vmem::Pager* pager_of(const ClientState& client) {
    return pagers_[static_cast<std::size_t>(client.device)].get();
  }
  /// Chooses the memory domain for an attaching client (placement over
  /// live per-domain load) and updates the per-device accounting.
  int place_domain(int client_id, Bytes bytes);
  std::unique_ptr<sched::Placement> placement_;  // domain router
  std::vector<long> domain_clients_;      // attached clients per domain
  std::vector<long> domain_placements_;   // REQ-time placements per domain
  std::unordered_map<int, int> warm_domain_;  // client -> last domain
  std::chrono::steady_clock::time_point start_time_;
  std::mutex completions_mutex_;
  std::vector<int> completions_;  // worker -> serve thread job completions
  std::atomic<int> pending_completions_{0};
  /// Set while the pure-mqueue serve loop blocks in the request queue's
  /// timed receive, where the doorbell cannot reach it: the job that
  /// clears it posts a kWake so the completion is answered now, not when
  /// the receive times out.
  std::atomic<bool> mq_parked_{false};
  std::unique_ptr<exec::ExecEngine> engine_;  // runs every granted job
  std::atomic<int> jobs_in_flight_{0};
  RtExecCounters exec_counters_;
  std::thread serve_thread_;
  std::atomic<bool> running_{false};
  RtServerStats stats_;
  obs::Hub obs_;
};

}  // namespace vgpu::rt
