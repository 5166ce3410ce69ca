// The GPU Virtualization Manager (GVM) — the paper's core contribution.
//
// A single run-time process owns the only GPU context and exposes one
// Virtual GPU per client process. Per client it maintains a CUDA stream,
// a device buffer pair and a pinned host staging buffer; data moves
// client <-> virtual shared memory <-> pinned staging <-> device. Requests
// arrive over a message queue; STR requests are barrier-synchronized so
// that all clients' streams flush together — the precondition for
// concurrent kernel execution and copy/compute overlap on Fermi.
//
// This is the deterministic (DES) implementation used for reproducing the
// paper's figures; src/rt hosts the live POSIX shm/mq implementation of the
// same protocol.
#pragma once

#include <map>
#include <memory>

#include "common/status.hpp"
#include "des/channel.hpp"
#include "des/sim.hpp"
#include "des/sync.hpp"
#include "gvm/protocol.hpp"
#include "sched/admission.hpp"
#include "sched/placement.hpp"
#include "sched/scheduler.hpp"
#include "vcuda/runtime.hpp"

namespace vgpu::gvm {

/// Order in which the GVM flushes client streams at the STR barrier.
/// Smallest-first fills the pipeline fastest (the first kernel starts as
/// soon as the smallest transfer lands); FIFO is the paper's behaviour.
/// (Now owned by src/sched; aliased here for existing call sites.)
using FlushOrder = sched::FlushOrder;

struct GvmConfig {
  /// STR barrier width: the SPMD process count. The GVM flushes all
  /// streams when this many clients have sent STR.
  int expected_clients = 1;

  /// Host memcpy bandwidth for the vsm <-> pinned staging hops. The GVM is
  /// a single process, so these copies serialize — the dominant
  /// virtualization overhead (paper Figure 10).
  BytesPerSecond host_memcpy_bw = gb_per_s(12.0);

  /// One-way message-queue latency per protocol message.
  SimDuration msg_latency = microseconds(5.0);

  /// Client STP re-poll interval after a WAIT response.
  SimDuration poll_interval = microseconds(20.0);

  /// Ablation knobs.
  bool use_barriers = true;     // false: flush each STR immediately
  bool pinned_staging = true;   // false: pageable transfers (no overlap win)
  bool model_staging_copies = true;  // false: zero-cost shm hops (Fig 10)
  FlushOrder flush_order = FlushOrder::kFifo;

  /// Memory-pressure handling: when a REQ cannot be satisfied because
  /// device memory is oversubscribed, the GVM suspends idle clients
  /// (snapshotting their device state to host) until the allocation fits.
  /// A suspended client is transparently resumed before its next flush.
  /// Routed through the admission controller's oversubscription mode.
  bool auto_suspend_on_pressure = false;

  /// Scheduling policy (src/sched). For the default kBarrierCoFlush
  /// policy the barrier width and flush order are derived from the legacy
  /// `expected_clients` / `use_barriers` / `flush_order` knobs above, so
  /// existing configurations behave exactly as before.
  sched::SchedulerConfig sched;

  /// Per-client device-memory quota enforced at REQ; 0 = unlimited.
  /// Requests over quota are permanently denied (kDenied).
  Bytes per_client_quota = 0;
};

struct GvmStats {
  long requests = 0;
  long flushes = 0;
  long waits_sent = 0;     // STP polls answered WAIT
  Bytes bytes_staged_in = 0;
  Bytes bytes_staged_out = 0;
  long pressure_suspends = 0;  // auto-suspends due to memory pressure
  long pressure_resumes = 0;   // transparent resumes before a flush
  long migrations_out = 0;     // clients exported to another device
  long migrations_in = 0;      // clients imported from another device
};

/// A client in flight between two GVMs (cross-device migration): its plan
/// plus the host-side snapshot of its device buffers. Produced by
/// Gvm::export_client between rounds, consumed by Gvm::import_client.
struct MigratedClient {
  TaskPlan plan;
  std::shared_ptr<std::vector<std::byte>> saved_in;
  std::shared_ptr<std::vector<std::byte>> saved_out;
  SimTime last_active = 0;

  Bytes working_set() const { return plan.bytes_in + plan.bytes_out; }
};

class Gvm : private des::Lookahead {
 public:
  Gvm(des::Simulator& sim, vcuda::Runtime& runtime, GvmConfig config);
  Gvm(const Gvm&) = delete;
  Gvm& operator=(const Gvm&) = delete;
  ~Gvm();

  /// Spawns the GVM: driver init, context creation, then the serve loop.
  /// Await `ready()` before starting clients.
  void start();

  des::OneShotEvent& ready() { return ready_; }
  const GvmStats& stats() const { return stats_; }
  const GvmConfig& config() const { return config_; }
  vcuda::Context* context() { return context_.get(); }
  const sched::Scheduler& scheduler() const { return *scheduler_; }
  const sched::AdmissionController& admission() const { return admission_; }

  /// Pure GPU time spent on behalf of clients (sum of device busy time);
  /// the paper's Figure 10 baseline for overhead measurement.
  SimDuration gpu_time() const;

  // --- device-pool API (DevicePoolGvm / federation) ------------------------

  /// Live load snapshot for the placement layer (`device` left at -1; the
  /// pool indexes it).
  sched::DeviceLoad load() const;

  bool has_client(int client) const {
    return clients_.find(client) != clients_.end();
  }

  /// True when `client` is between rounds: attached, no buffered STR and
  /// an idle (or snapshotted) stream — the only state export_client
  /// accepts.
  bool quiescent(int client) const;

  /// Drains `client` off this GVM: snapshots its device buffers to host
  /// (charging the D2H sweep), frees the device allocation and removes the
  /// client from the scheduler — the source device's memory and scheduler
  /// state for the client drain to zero. Fails (kFailedPrecondition)
  /// mid-round; callers migrate at round boundaries.
  des::Task<StatusOr<MigratedClient>> export_client(int client);

  /// Re-creates an exported client here: admission-checks the footprint,
  /// allocates stream + buffers and restores the snapshot (charging the
  /// H2D sweep). kUnavailable under transient memory pressure; on any
  /// failure `state` is left intact so the caller can re-import elsewhere
  /// (typically back to the source, whose memory the export just freed).
  des::Task<Status> import_client(int client, MigratedClient& state);

 private:
  friend class VGpuClient;

  struct ClientState {
    TaskPlan plan;
    vcuda::Stream* stream = nullptr;
    vcuda::DeviceBuffer dev_in;
    vcuda::DeviceBuffer dev_out;
    vcuda::PinnedBuffer staging;  // page-locked staging for both directions
    bool str_pending = false;  // buffered STR awaiting a scheduler grant
    bool suspended = false;
    SimTime last_active = 0;  // last protocol message (LRU eviction order)
    // Host-side snapshots of the device buffers while suspended.
    std::shared_ptr<std::vector<std::byte>> saved_in;
    std::shared_ptr<std::vector<std::byte>> saved_out;
  };

  /// A client whose resend loop (STP / SUS until ACK, REQ until admitted)
  /// runs elided. The loop's events — response, response hop, poll sleep,
  /// request hop, GVM dispatch — repeat as a fixed chain from the response
  /// event that delivered the last `again`; `next` indexes the chain's next
  /// request-send event.
  struct Parked {
    RequestType type;
    ResponseType again;  // the answer that keeps the client resending
    long* waits;         // the client's tally of `again` answers
    des::EventKey root;
    long next;
    bool in_flight = false;  // `next` materialized: a real request now
  };

  /// Client-side hooks (called by VGpuClient).
  void submit(Request request) { requests_.send(request); }
  /// Called by a client whose request was just answered `again` (taken
  /// from its response channel in event `response`) and which would now
  /// sleep a poll interval and resend. Returns false when the loop must
  /// run for real (a timeline records every request); otherwise the GVM
  /// takes the loop over: the client awaits its response channel, which
  /// receives the first answer other than `again`.
  bool park(int client, RequestType type, ResponseType again, long* waits,
            const des::EventKey& response);
  des::Channel<Response>& response_channel(int client);
  void register_plan(int client, TaskPlan plan) {
    pending_plans_[client] = std::move(plan);
  }
  void drop_plan(int client) { pending_plans_.erase(client); }

  des::Task<> run();
  des::Task<> handle(Request request);   // traces, then dispatches
  des::Task<> dispatch(Request request);
  des::Task<> handle_req(int client);
  des::Task<> handle_snd(int client);
  des::Task<> handle_str(int client);
  des::Task<> handle_stp(int client);
  des::Task<> handle_rcv(int client);
  des::Task<> handle_rls(int client);
  des::Task<> handle_sus(int client);
  des::Task<> handle_res(int client);
  des::Task<> suspend_client(ClientState& state);
  des::Task<> resume_client(ClientState& state);
  /// Suspends idle clients (excluding `except`) until `needed` device
  /// bytes are free or no candidates remain (LRU order, via the
  /// admission controller's eviction planner).
  des::Task<> relieve_pressure(Bytes needed, int except);
  Bytes device_free() const;
  /// The allocator layout a REQ for `plan` is placed against.
  sched::AdmissionController::Fit fit_of(const TaskPlan& plan) const;
  /// Evictable residents for the admission controller (excluding
  /// `except`): idle streams with valid device buffers, not suspended,
  /// not awaiting a grant.
  std::vector<sched::AdmissionController::Victim> victims(int except) const;
  /// Drains scheduler grants: flushes every granted client's stream and
  /// ACKs its STR, repeating until the scheduler has nothing runnable.
  des::Task<> pump();
  /// Awaits a granted round's completion, then notifies the scheduler
  /// and pumps again (e.g. to hand a freed time quantum to the next
  /// client).
  des::Task<> watch_round(int client, vcuda::Stream* stream, SimTime granted);
  /// Arms a timer at the scheduler's next requested wakeup (time-quantum
  /// expiry), if any.
  void arm_wakeup();
  des::Task<> flush_stream(int client, ClientState& state);
  void respond(int client, ResponseType type);
  SimDuration staging_time(Bytes bytes) const;

  // --- resend-loop elision (des::Lookahead) --------------------------------
  SimTime horizon(SimTime limit) override;
  void advance(SimTime t) override;
  /// Whether a resend from `client` landing now would be answered
  /// `again` and change nothing but counters: the GVM idles on its request
  /// queue and the answer the client is waiting for has not changed.
  bool resend_repeats(int client, const Parked& p) const;
  SimTime chain_time(const Parked& p, long index) const;
  des::Ancestry chain_ancestry(const Parked& p, long index) const;
  /// Turns the chain's next resend into a real event at its exact slot.
  void materialize(int client, Parked& p);

  des::Simulator& sim_;
  vcuda::Runtime& runtime_;
  GvmConfig config_;
  des::OneShotEvent ready_;
  des::Channel<Request> requests_;
  std::map<int, std::unique_ptr<des::Channel<Response>>> responses_;
  std::map<int, TaskPlan> pending_plans_;  // handed over at REQ
  std::map<int, ClientState> clients_;
  std::unique_ptr<vcuda::Context> context_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  sched::AdmissionController admission_;
  SimTime armed_wakeup_ = kTimeInfinity;  // earliest pending pump timer
  GvmStats stats_;
  std::map<int, Parked> parked_;
  bool lookahead_registered_ = false;
};

/// The user-process API layer: exposes the VGPU abstraction over the
/// GVM protocol, mirroring the paper's SND()/STR()/STP()/RCV()/RLS()
/// routines. Each call is an awaitable DES task.
class VGpuClient {
 public:
  VGpuClient(des::Simulator& sim, Gvm& gvm, int id);

  int id() const { return id_; }

  /// REQ: registers the task plan and obtains VGPU resources. Under
  /// transient memory pressure (kRetry) the client re-polls like STP;
  /// a permanent denial (over quota) returns kResourceExhausted.
  des::Task<Status> req(TaskPlan plan);
  /// SND: input data (already in virtual shared memory) is staged.
  des::Task<> snd();
  /// STR: start execution; returns when the GVM has flushed the streams.
  des::Task<> str();
  /// STP polling loop: resends STP until the GVM answers ACK.
  des::Task<> wait_done();
  /// RCV: results are available in virtual shared memory.
  des::Task<> rcv();
  /// RLS: release VGPU resources.
  des::Task<> rls();
  /// SUS: snapshot device state to host and free the device allocation.
  /// Polls (like STP) while the stream still has work in flight.
  des::Task<> suspend();
  /// RES: restore the snapshot onto freshly allocated device buffers.
  des::Task<> resume();

  /// Convenience: REQ + `rounds` x (SND, STR, STP..., RCV) + RLS.
  des::Task<> run_task(TaskPlan plan, int rounds);

  /// Number of resends answered WAIT / RETRY (diagnostics; complete once
  /// the client's loop has ended).
  long waits_observed() const { return waits_; }

 private:
  /// One request/response round trip. `response_event`, when set,
  /// receives the key of the event that took the response off the channel.
  des::Task<Response> call(RequestType type,
                           des::EventKey* response_event = nullptr);
  /// The paper's polling loop: sends `type`, and while the answer is
  /// `again` sleeps a poll interval and resends. Returns the first other
  /// answer. After the first `again` the GVM normally takes the loop over
  /// (Gvm::park), producing the identical schedule without its events.
  des::Task<Response> poll(RequestType type, ResponseType again);

  des::Simulator& sim_;
  Gvm& gvm_;
  int id_;
  long waits_ = 0;
};

}  // namespace vgpu::gvm
