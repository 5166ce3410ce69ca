// Client-side API layer of the live GVM: exposes the paper's VGPU routines
// (REQ/SND/STR/STP/RCV/RLS) over real POSIX IPC. The client owns (or is
// granted) a virtual-shared-memory region; input data is written directly
// into it (no extra client-side copy), as in the paper's design.
//
// REQ negotiates the control-plane transport: the client advertises what
// it can speak (message queue always; shm ring when it could map the
// server's doorbell; pooled-arena placement when asked to), the server
// answers with its selection, and every later verb travels over that
// transport (see docs/transport.md and docs/scaling.md).
//
// Thousands of clients in one process share an RtClientContext: the
// server's request queue, the control region (ready set + handshake
// mailboxes) and the pooled arena are one set of process resources, not
// per-client ones — a 10k-client load generator opens three kernel
// objects, not 30k.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "ipc/control.hpp"
#include "ipc/mqueue.hpp"
#include "ipc/shm.hpp"
#include "ipc/transport.hpp"
#include "obs/trace.hpp"
#include "rt/graph.hpp"
#include "rt/messages.hpp"

namespace vgpu::fault {
class Injector;
}

namespace vgpu::rt {

/// Process-wide client-side resources for one server prefix, shared by
/// every RtClient connected through it. Everything here is safe for
/// concurrent use from many client threads: the request queue is a
/// kernel object, the control region's structures are lock-free, and the
/// lazily mapped arena is guarded.
class RtClientContext {
 public:
  static StatusOr<std::shared_ptr<RtClientContext>> open(
      const std::string& prefix);

  const std::string& prefix() const { return prefix_; }
  ipc::MessageQueue<RtRequest>* request_queue() { return &req_; }
  /// Null on pre-control servers (doorbell-only region, or none at all).
  ipc::ControlRegion<RtResponse>* control() {
    return ctrl_.valid() ? &ctrl_ : nullptr;
  }
  /// The serve-loop doorbell word; null when the server published no
  /// doorbell region (mqueue-only servers).
  ipc::Doorbell::Word* server_door() {
    return door_.data() != nullptr
               ? reinterpret_cast<ipc::Doorbell::Word*>(door_.data())
               : nullptr;
  }
  /// Lazily maps the server's pooled vsm arena. Null when the server
  /// created none — the caller falls back to a private segment.
  std::byte* arena_base();

 private:
  explicit RtClientContext(std::string prefix) : prefix_(std::move(prefix)) {}

  std::string prefix_;
  ipc::MessageQueue<RtRequest> req_;
  ipc::SharedMemory door_;
  ipc::ControlRegion<RtResponse> ctrl_;
  std::mutex arena_mu_;
  ipc::SharedMemory arena_;
  bool arena_tried_ = false;
};

/// Retry backoff with decorrelated jitter. A pure-exponential schedule
/// synchronizes every client that timed out together — they all resend on
/// the same beat and collide again. Decorrelated jitter (next sleep drawn
/// uniformly from [base, 3 * previous], capped) spreads the herd while
/// keeping the same bounded growth. The draw comes from a SplitMix64
/// stream seeded by the caller, so a FaultPlan chaos run replays its
/// retry timing bit-exactly.
struct RtBackoff {
  std::chrono::microseconds base{500};
  std::chrono::microseconds cap{100'000};

  void seed(std::uint64_t s) {
    state_ = s;
    prev_ = base;
  }
  /// The next sleep duration (advances the jitter stream).
  std::chrono::microseconds next() {
    // SplitMix64 step: deterministic for a given seed, no shared state.
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const std::int64_t lo = std::max<std::int64_t>(1, base.count());
    const std::int64_t hi = std::max<std::int64_t>(lo, 3 * prev_.count());
    const std::int64_t span = hi - lo + 1;
    prev_ = std::min(
        cap, std::chrono::microseconds(
                 lo + static_cast<std::int64_t>(z % static_cast<std::uint64_t>(
                                                        span))));
    return prev_;
  }

 private:
  std::uint64_t state_ = 0;
  std::chrono::microseconds prev_{0};
};

struct RtClientOptions {
  /// Preferred control-plane transport; the server may negotiate down to
  /// the message queue. kMessageQueue here skips advertising the ring
  /// capability entirely (paper-faithful wire behaviour).
  ipc::TransportKind transport = ipc::TransportKind::kShmRing;
  /// Ask for a region inside the server's pooled vsm arena instead of
  /// creating a private P_vsm<k> segment and P_resp<k> queue. The REQ ack
  /// travels over a control-region handshake mailbox, so an arena client
  /// costs the kernel *zero* per-client objects — the scaling path when
  /// fs.mqueue.queues_max caps the population. Falls back to the private
  /// path when the server declines (arena_offset == -2) or the context
  /// lacks the control region. Implies the ring transport.
  bool arena = false;
  /// Wait strategy for ring receives.
  ipc::WaitConfig wait;
  /// Optional span tracer (not owned; must outlive the client). When set,
  /// every verb round trip records a kClientVerb span on this client's
  /// lane (aux = the RtOp) — the client-observed latency next to the
  /// server-side phase spans. In-process harnesses pass the server's own
  /// tracer so both ends share one timebase.
  obs::Tracer* tracer = nullptr;
  /// Deadline for one control-plane round trip. A verb whose response
  /// does not arrive within this window is resent (same seq: the server
  /// replays its recorded answer, so the retry is side-effect free).
  std::chrono::milliseconds op_timeout{2500};
  /// Resends in a row that may go unanswered before the verb fails
  /// kTimedOut — the bound that turns a dead server into an error instead
  /// of a hang. A kWait heartbeat (the answer to a resend of a parked STP
  /// or graph launch) restarts the count.
  int max_retries = 3;
  /// First retry backoff; doubles per attempt (capped at 100 ms).
  std::chrono::microseconds retry_backoff{500};
  /// Overall bound on one completion wait (wait_done(), launch_graph());
  /// 0 = unlimited, like the paper client's wait-forever loop. A job that
  /// outruns op_timeout does not need this: the server's kWait heartbeat
  /// keeps the wait alive while the server is up.
  std::chrono::milliseconds done_timeout{0};
  /// Optional fault injector (not owned). Drives the client-side points:
  /// kill-between-verbs (client.after_*) and the ctrl.send / ctrl.recv
  /// message faults on the negotiated transport. ONLY configure kill
  /// rules in expendable (forked) clients — they SIGKILL the process.
  fault::Injector* fault = nullptr;
  /// Scheduling hint stamped on the REQ (read by the priority-aging
  /// policy; higher runs first). The trace replay engine maps each
  /// tenant's priority attribute here.
  int priority = 0;
};

class RtClient {
 public:
  /// Creates the client's IPC resources and connects to the server at
  /// `prefix`. `bytes_in` / `bytes_out` fix the vsm layout for this task.
  /// Opens a fresh single-client context; multi-client harnesses use the
  /// context overload so the per-process resources are opened once.
  static StatusOr<RtClient> connect(const std::string& prefix, int id,
                                    Bytes bytes_in, Bytes bytes_out,
                                    RtClientOptions options = {});
  /// Connects through a shared context (thread-safe; one context serves
  /// any number of concurrent clients).
  static StatusOr<RtClient> connect(std::shared_ptr<RtClientContext> context,
                                    int id, Bytes bytes_in, Bytes bytes_out,
                                    RtClientOptions options = {});

  RtClient(RtClient&&) = default;
  RtClient& operator=(RtClient&&) = default;

  /// The vsm input area: write task input here before snd(). For arena
  /// clients the region exists only after req() granted placement.
  std::span<std::byte> input() {
    return region_.subspan(data_offset_, static_cast<std::size_t>(bytes_in_));
  }
  /// The vsm output area: valid after rcv().
  std::span<const std::byte> output() const {
    return region_.subspan(data_offset_ + static_cast<std::size_t>(bytes_in_),
                           static_cast<std::size_t>(bytes_out_));
  }

  /// REQ: acquire VGPU resources for `kernel_id` with scalar `params`.
  /// Also performs the transport negotiation (and, when asked, the
  /// arena-placement handshake).
  Status req(int kernel_id, const std::int64_t params[4]);
  /// SND: hand the input area to the GVM for staging.
  Status snd();
  /// STR: start execution (barrier-synchronized on the server).
  Status str();
  /// STP: returns once the GVM acknowledges completion. One STP is sent;
  /// the server parks its ack until the job finishes, and the client
  /// blocks in the transport's receive (spin -> yield -> futex on the
  /// ring, mq_timedreceive on the message queue). Every op_timeout
  /// without an answer it resends under the same seq; the server answers
  /// a resend of a parked STP with a kWait heartbeat, which restarts the
  /// retry budget. max_retries unanswered resends in a row fail kTimedOut
  /// (the server is gone), as does done_timeout when set.
  Status wait_done();
  /// RCV: results are in the output area afterwards.
  Status rcv();
  /// RLS: release VGPU resources.
  Status rls();

  // --- Graph capture / replay (docs/graphs.md) ---------------------------
  //
  // Between begin_capture() and end_capture() the data-plane verbs record
  // instead of executing: str() appends a kernel node replaying the last
  // REQ's kernel over the whole input/output areas, and snd(), rcv() and
  // wait_done() become no-ops (a replay runs zero-copy on the vsm region,
  // so there is nothing to stage per iteration). Explicit capture_kernel /
  // capture_copy record finer-grained DAGs than the verb mirror can. The
  // captured graph uploads once through kGraphUpload chunks; afterwards
  // launch_graph() fires the whole recorded sequence with a single verb.

  /// Starts recording. Fails when a capture is already open.
  Status begin_capture();
  /// Records a kernel node. Offsets are data-area-relative (input at 0,
  /// output at bytes_in). `deps` lists earlier node indices; `bindings`
  /// (optional, 4 slots) maps params to kLaunchGraph argument slots.
  /// Returns the node's index.
  StatusOr<int> capture_kernel(int kernel_id, const std::int64_t params[4],
                               std::int64_t in_offset, std::int64_t in_bytes,
                               std::int64_t out_offset, std::int64_t out_bytes,
                               std::span<const int> deps = {},
                               const std::int32_t* bindings = nullptr);
  /// Records a copy node (memmove dst <- src inside the data area).
  StatusOr<int> capture_copy(std::int64_t src_offset, std::int64_t dst_offset,
                             std::int64_t bytes, std::span<const int> deps = {});
  /// Ends recording and returns the graph hash (equal recorded sequences
  /// hash equal — the capture-determinism contract). The nodes stay
  /// buffered for upload_graph().
  StatusOr<std::uint64_t> end_capture();
  /// The recorded nodes of the last finished capture.
  std::span<const RtGraphNode> captured() const { return captured_; }

  /// Uploads the last finished capture under `graph_id`, chunking the
  /// serialized bytes through the vsm input area (multi-part when the
  /// graph outgrows it). The input area's prior contents are clobbered.
  Status upload_graph(int graph_id);
  /// Uploads an explicit node list under `graph_id`.
  Status upload_graph(int graph_id, std::span<const RtGraphNode> nodes);
  /// Fires one replay of `graph_id`. `bindings` (optional) supplies the
  /// 4 per-iteration scalars bound nodes substitute. One message per
  /// iteration: the server parks the ack until the replay completes, and
  /// the client waits for it exactly as wait_done() waits for STP's.
  Status launch_graph(int graph_id, const std::int64_t* bindings = nullptr);

  /// kWait heartbeats received: answers to resends of a verb whose ack the
  /// server parked (0 while every job finishes within op_timeout).
  long waits_observed() const { return waits_; }
  /// The negotiated control-plane transport (valid after req()).
  ipc::TransportKind transport() const { return active_; }
  /// The session token the REQ ack assigned (0 before req(), or against a
  /// pre-session server).
  std::int64_t session() const { return session_; }
  /// True when the region lives inside the server's pooled arena.
  bool in_arena() const { return arena_offset_ >= 0; }

 private:
  RtClient(std::shared_ptr<RtClientContext> context, int id, Bytes bytes_in,
           Bytes bytes_out, RtClientOptions options)
      : ctx_(std::move(context)),
        id_(id),
        bytes_in_(bytes_in),
        bytes_out_(bytes_out),
        options_(options) {}

  /// One verb as a bounded at-least-once RPC (see client.cpp): Ok on kAck,
  /// kInternal on kError. `bound` caps the whole wait (0 = none);
  /// completion waits pass done_timeout.
  Status call(RtRequest request, std::chrono::milliseconds bound = {});
  /// Creates the private P_vsm<k> segment (+ channel block when `caps`
  /// advertises the ring) and P_resp<k> queue — the classic per-client
  /// resources, also the fallback when the arena declines.
  Status open_private(std::uint32_t caps);
  /// One REQ send/await round over the mailbox or the response queue.
  /// Fills `*out` and returns Ok, or kUnavailable to mean "resend".
  Status await_handshake(const RtRequest& request, std::int32_t mailbox,
                         RtResponse* out);
  /// Installs the post-handshake transport and region from the REQ grant.
  Status adopt_grant(const RtResponse& granted, std::uint32_t caps);

  std::shared_ptr<RtClientContext> ctx_;
  int id_;
  // Heap-held so the mqueue transport endpoint keeps a stable pointer
  // across RtClient moves. Null for arena clients (mailbox handshake).
  std::unique_ptr<ipc::MessageQueue<RtResponse>> resp_;
  ipc::SharedMemory vsm_;         // private segment (non-arena path)
  std::span<std::byte> region_;   // the vsm view: private segment or arena slice
  RtChannel* channel_ = nullptr;  // at the head of region_, ring caps only
  std::unique_ptr<ipc::ClientTransport<RtRequest, RtResponse>> chan_;
  std::uint32_t caps_ = ipc::kTransportCapMqueue;
  std::size_t data_offset_ = 0;
  ipc::TransportKind active_ = ipc::TransportKind::kMessageQueue;
  std::int64_t session_ = 0;      // REQ ack token, stamped on every verb
  std::int64_t arena_offset_ = -1;
  Bytes bytes_in_;
  Bytes bytes_out_;
  RtClientOptions options_;
  long waits_ = 0;
  /// Monotone per-client sequence number stamped on every request; the
  /// retry layer resends under the same seq and discards stale responses.
  std::int64_t seq_ = 0;
  /// Jitter stream seed: the FaultPlan seed when an injector is attached
  /// (chaos runs replay their retry timing), a fixed constant otherwise;
  /// mixed with the client id so co-located clients never share a stream.
  std::uint64_t backoff_seed_ = 0;
  bool capturing_ = false;
  std::vector<RtGraphNode> capture_;   // open recording
  std::vector<RtGraphNode> captured_;  // last finished recording
  int last_kernel_id_ = -1;            // from req(): what str() mirrors
  std::int64_t last_params_[4] = {};
};

}  // namespace vgpu::rt
