#include "rt/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <thread>
#include <utility>

#include "common/log.hpp"
#include "fault/fault.hpp"
#include "fault/transport_fault.hpp"

namespace vgpu::rt {

namespace {

/// Default jitter seed for clients without a fault injector: any fixed
/// constant works, determinism is what matters.
constexpr std::uint64_t kDefaultBackoffSeed = 0x6b8b4567327b23c6ull;

}  // namespace

// ---------------------------------------------------------------------------
// RtClientContext
// ---------------------------------------------------------------------------

StatusOr<std::shared_ptr<RtClientContext>> RtClientContext::open(
    const std::string& prefix) {
  auto ctx = std::shared_ptr<RtClientContext>(new RtClientContext(prefix));
  auto req = ipc::MessageQueue<RtRequest>::open(prefix + "_req");
  if (!req.ok()) return req.status();
  ctx->req_ = std::move(*req);

  // The doorbell region is optional (mqueue-only servers publish none) and
  // its *layout* is a negotiation: a control-region server carries the
  // ready set and handshake mailboxes behind the futex word, a pre-control
  // server only the word itself. attach() validates the magic, so a bare
  // doorbell degrades gracefully to doorbell-only operation.
  auto door = ipc::SharedMemory::open_existing(prefix + "_door");
  if (door.ok() && door->size() >= ipc::kDoorbellRegionSize) {
    ctx->door_ = std::move(*door);
    auto ctrl = ipc::ControlRegion<RtResponse>::attach(ctx->door_.data(),
                                                       ctx->door_.size());
    if (ctrl.ok()) ctx->ctrl_ = *ctrl;
  }
  return ctx;
}

std::byte* RtClientContext::arena_base() {
  std::lock_guard<std::mutex> lock(arena_mu_);
  if (!arena_tried_) {
    arena_tried_ = true;
    auto arena = ipc::SharedMemory::open_existing(prefix_ + "_arena");
    if (arena.ok()) arena_ = std::move(*arena);
  }
  return arena_.valid() ? arena_.data() : nullptr;
}

// ---------------------------------------------------------------------------
// RtClient
// ---------------------------------------------------------------------------

StatusOr<RtClient> RtClient::connect(const std::string& prefix, int id,
                                     Bytes bytes_in, Bytes bytes_out,
                                     RtClientOptions options) {
  auto ctx = RtClientContext::open(prefix);
  if (!ctx.ok()) return ctx.status();
  return connect(std::move(*ctx), id, bytes_in, bytes_out, options);
}

StatusOr<RtClient> RtClient::connect(std::shared_ptr<RtClientContext> context,
                                     int id, Bytes bytes_in, Bytes bytes_out,
                                     RtClientOptions options) {
  // Tag this thread's log lines so interleaved multi-client output stays
  // attributable ("[W][client 3] ...").
  set_log_scope("client " + std::to_string(id));
  RtClient client(std::move(context), id, bytes_in, bytes_out, options);
  // Chaos runs replay their retry timing from the FaultPlan seed; the id
  // mix keeps co-located clients off a shared jitter stream.
  client.backoff_seed_ =
      (options.fault != nullptr ? options.fault->plan().seed()
                                : kDefaultBackoffSeed) ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)) *
       0x9e3779b97f4a7c15ull);

  const bool ring_reachable =
      options.transport == ipc::TransportKind::kShmRing &&
      client.ctx_->server_door() != nullptr;
  std::uint32_t caps = ipc::kTransportCapMqueue;
  if (ring_reachable) caps |= ipc::kTransportCapShmRing;
  // The arena path needs all three legs: the ring (its only post-REQ
  // transport), the control region (its handshake channel) and the arena
  // segment itself. Probe them up front so a doomed request never burns a
  // handshake round trip.
  if (options.arena && ring_reachable && client.ctx_->control() != nullptr &&
      client.ctx_->arena_base() != nullptr) {
    caps |= ipc::kTransportCapVsmArena;
  }
  client.caps_ = caps;

  if ((caps & ipc::kTransportCapVsmArena) == 0) {
    // Classic per-client resources, created before REQ so input() is
    // usable immediately; arena clients get their region from the grant.
    const Status opened = client.open_private(caps);
    if (!opened.ok()) return opened;
  }
  return client;
}

Status RtClient::open_private(std::uint32_t caps) {
  const std::string suffix = std::to_string(id_);
  auto resp = ipc::MessageQueue<RtResponse>::create(ctx_->prefix() + "_resp" +
                                                    suffix);
  if (!resp.ok()) return resp.status();
  resp_ = std::make_unique<ipc::MessageQueue<RtResponse>>(std::move(*resp));

  auto vsm =
      ipc::SharedMemory::create(ctx_->prefix() + "_vsm" + suffix,
                                vsm_region_size(caps, bytes_in_, bytes_out_));
  if (!vsm.ok()) return vsm.status();
  vsm_ = std::move(*vsm);
  region_ = vsm_.bytes();
  data_offset_ = vsm_data_offset(caps);
  caps_ = caps;
  channel_ = nullptr;
  if ((caps & ipc::kTransportCapShmRing) != 0) {
    // Construct and publish the channel block before the server can see
    // the REQ that names this region.
    channel_ = new (vsm_.data()) RtChannel();
    channel_->publish();
  }
  return Status::Ok();
}

Status RtClient::call(RtRequest request, std::chrono::milliseconds bound) {
  request.client = id_;
  request.seq = ++seq_;
  request.session = session_;
  if (chan_ == nullptr) {
    return FailedPrecondition("protocol op before REQ negotiated a transport");
  }
  obs::Tracer* tracer = options_.tracer;
  const SimTime t0 =
      tracer != nullptr ? tracer->begin_span() : obs::kSpanDisabled;
  const auto finish = [&] {
    if (tracer != nullptr) {
      tracer->end_span(t0, obs::Phase::kClientVerb, id_,
                       static_cast<std::int32_t>(request.op));
    }
  };
  // Bounded at-least-once RPC: resend under the same seq after each
  // op_timeout without an answer (the server replays its recorded answer,
  // so a retry never re-runs the verb), discard stale responses from
  // earlier verbs, and surface kTimedOut once max_retries resends in a row
  // went unanswered — a dead server becomes an error, not a hang. A kWait
  // is the server's heartbeat for a verb whose ack it parked until the
  // job completes (STP, kLaunchGraph): the server is alive, so it restarts
  // the retry budget and the wait goes on.
  const bool bounded = bound.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() + bound;
  RtBackoff backoff;
  backoff.base = options_.retry_backoff;
  backoff.seed(backoff_seed_ ^ static_cast<std::uint64_t>(request.seq));
  int silent = 0;  // resends in a row that got no answer at all
  for (;;) {
    const Status sent = chan_->send(request);
    if (!sent.ok() && sent.code() != ErrorCode::kUnavailable) {
      finish();
      return sent;
    }
    // A full ring/queue (kUnavailable) counts as an unanswered attempt.
    while (sent.ok()) {
      auto window = options_.op_timeout;
      if (bounded) {
        const auto left = std::chrono::ceil<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0) break;
        window = std::min(window, left);
      }
      auto response = chan_->receive(window);
      if (!response.ok()) {
        if (response.status().code() != ErrorCode::kUnavailable) {
          finish();
          return response.status();
        }
        break;  // window expired without an answer
      }
      if (response->seq != 0 && response->seq < request.seq) {
        continue;  // stale answer to an earlier verb
      }
      if (response->ack == RtAck::kWait) {
        ++waits_;
        silent = 0;
        continue;
      }
      finish();
      if (response->ack == RtAck::kError) {
        return Internal("GVM rejected the request");
      }
      return Status::Ok();
    }
    if (bounded && std::chrono::steady_clock::now() >= deadline) {
      finish();
      return TimedOut("job did not complete within done_timeout");
    }
    if (silent >= options_.max_retries) {
      finish();
      return TimedOut("GVM did not answer op " +
                      std::to_string(static_cast<int>(request.op)) +
                      " after " + std::to_string(options_.max_retries + 1) +
                      " attempts");
    }
    ++silent;
    std::this_thread::sleep_for(backoff.next());
  }
}

Status RtClient::await_handshake(const RtRequest& request,
                                 std::int32_t mailbox, RtResponse* out) {
  if (mailbox >= 0) {
    // Mailbox collect: a lock-free poll against the control region, with
    // a sleep that starts fine-grained (sub-millisecond handshakes) and
    // backs off — no kernel object, no syscall on the hit path.
    ipc::ControlRegion<RtResponse>* ctrl = ctx_->control();
    const auto deadline =
        std::chrono::steady_clock::now() + options_.op_timeout;
    std::chrono::microseconds nap{1};
    for (;;) {
      if (ctrl->try_collect(mailbox, id_, out)) {
        if (out->seq != 0 && out->seq < request.seq) continue;  // stale
        return Status::Ok();
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        return Unavailable("handshake mailbox collect timed out");
      }
      std::this_thread::sleep_for(nap);
      nap = std::min(nap * 2, std::chrono::microseconds(500));
    }
  }
  for (;;) {
    auto response = resp_->receive(options_.op_timeout);
    if (!response.ok()) return response.status();
    if (response->seq != 0 && response->seq < request.seq) continue;
    *out = *response;
    return Status::Ok();
  }
}

Status RtClient::adopt_grant(const RtResponse& granted, std::uint32_t caps) {
  session_ = granted.session;
  if (granted.arena_offset >= 0) {
    // Pooled placement: the region is a server-carved slice of the arena,
    // with the server-constructed channel block at its head.
    std::byte* base = ctx_->arena_base();
    if (base == nullptr) {
      return Internal("arena grant but the arena segment is unmapped");
    }
    arena_offset_ = granted.arena_offset;
    region_ = {base + granted.arena_offset,
               static_cast<std::size_t>(
                   vsm_region_size(caps, bytes_in_, bytes_out_))};
    data_offset_ = vsm_data_offset(caps);
    channel_ = reinterpret_cast<RtChannel*>(region_.data());
    if (!channel_->valid()) {
      return Internal("arena grant carries an unpublished channel block");
    }
  }
  const auto selected = static_cast<ipc::TransportKind>(granted.transport);
  if (selected == ipc::TransportKind::kShmRing &&
      (caps & ipc::kTransportCapShmRing) != 0 && channel_ != nullptr) {
    active_ = ipc::TransportKind::kShmRing;
    // Session-aware servers hand out a token whose slot keys the ready
    // set; publish it on every send so the serve loop's drain touches
    // only lanes with work. Pre-session servers (token 0) get the plain
    // ring endpoint — doorbell-only wakeups, as before.
    if (ctx_->control() != nullptr && session_ != 0) {
      chan_ = std::make_unique<
          ipc::SessionRingTransport<RtRequest, RtResponse>>(
          channel_, ctx_->control(), session_slot(session_),
          ctx_->server_door(), options_.wait);
    } else {
      chan_ =
          std::make_unique<ipc::RingClientTransport<RtRequest, RtResponse>>(
              channel_, ctx_->server_door(), options_.wait);
    }
  } else {
    if (resp_ == nullptr) {
      // An arena client has no response queue; a server that grants the
      // arena but not the ring has broken the protocol's invariant.
      return Internal("mqueue transport selected without a response queue");
    }
    active_ = ipc::TransportKind::kMessageQueue;
    // A session's sends also publish its ready slot and ring the serve-loop
    // doorbell (send, publish, ring: SessionRingTransport's order), so a
    // serve loop parked on the doorbell wakes for them.
    std::function<void()> wake;
    ipc::ControlRegion<RtResponse>* ctrl = ctx_->control();
    ipc::Doorbell::Word* door = ctx_->server_door();
    if (ctrl != nullptr && door != nullptr && session_ != 0) {
      wake = [ctrl, door, slot = session_slot(session_)] {
        ctrl->publish_ready(slot);
        ipc::Doorbell(door).ring();
      };
    }
    chan_ = std::make_unique<ipc::MqClientTransport<RtRequest, RtResponse>>(
        ctx_->request_queue(), resp_.get(), std::move(wake));
  }
  if (options_.fault != nullptr) {
    chan_ =
        std::make_unique<fault::FaultyClientTransport<RtRequest, RtResponse>>(
            std::move(chan_), options_.fault);
  }
  return Status::Ok();
}

Status RtClient::req(int kernel_id, const std::int64_t params[4]) {
  RtRequest request;
  request.op = RtOp::kReq;
  request.client = id_;
  request.kernel_id = kernel_id;
  request.priority = options_.priority;
  request.transport_caps = caps_;
  request.pid = static_cast<std::int32_t>(::getpid());
  request.seq = ++seq_;
  request.bytes_in = bytes_in_;
  request.bytes_out = bytes_out_;
  for (int i = 0; i < 4; ++i) request.params[i] = params[i];
  // Remember the launch shape so a later capture scope can mirror str().
  last_kernel_id_ = kernel_id;
  for (int i = 0; i < 4; ++i) last_params_[i] = params[i];

  // Arena clients answer over a claimed handshake mailbox; everyone else
  // over their private response queue. The pool is smaller than the
  // population it serves (an attach storm claims every box at once), but
  // boxes recycle within one handshake round trip — so a failed claim
  // retries against the pool for the op window before giving up on the
  // arena. The private-path fallback is a last resort: it needs a kernel
  // queue, the very resource whose cap the arena path exists to dodge.
  std::int32_t mailbox = -1;
  if ((caps_ & ipc::kTransportCapVsmArena) != 0) {
    const auto claim_deadline =
        std::chrono::steady_clock::now() + options_.op_timeout;
    std::chrono::microseconds nap{50};
    for (;;) {
      mailbox = ctx_->control()->claim_mailbox(id_);
      if (mailbox >= 0 || std::chrono::steady_clock::now() >= claim_deadline) {
        break;
      }
      std::this_thread::sleep_for(nap);
      nap = std::min(nap * 2, std::chrono::microseconds(2000));
    }
    if (mailbox < 0) {
      caps_ &= ~ipc::kTransportCapVsmArena;
      const Status opened = open_private(caps_);
      if (!opened.ok()) return opened;
      request.transport_caps = caps_;
    }
  }
  request.mailbox = mailbox;
  const auto release_mailbox = [&] {
    if (mailbox >= 0) {
      ctx_->control()->release_mailbox(mailbox, id_);
      mailbox = -1;
      request.mailbox = -1;
    }
  };

  // The handshake always travels over the pre-session path; only
  // afterwards does traffic switch to whatever the server selected. REQ
  // is an idempotent re-attach (the server retires a stale registration
  // for the same id), so timeouts and kWait backpressure both resend it
  // whole.
  RtBackoff backoff;
  backoff.base = options_.retry_backoff;
  backoff.seed(backoff_seed_ ^ static_cast<std::uint64_t>(request.seq));
  bool backpressured = false;
  RtResponse granted;
  bool have_grant = false;
  for (int attempt = 0; attempt <= options_.max_retries && !have_grant;
       ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(backoff.next());
    const Status sent = ctx_->request_queue()->send(request);
    if (!sent.ok()) {
      if (sent.code() != ErrorCode::kUnavailable) {
        release_mailbox();
        return sent;
      }
      continue;
    }
    RtResponse response;
    const Status got = await_handshake(request, mailbox, &response);
    if (!got.ok()) {
      if (got.code() != ErrorCode::kUnavailable) {
        release_mailbox();
        return got;
      }
      continue;  // handshake deadline expired: re-attach
    }
    if (response.ack == RtAck::kWait) {
      if (response.arena_offset == -2 &&
          (caps_ & ipc::kTransportCapVsmArena) != 0) {
        // Permanent arena decline: this server cannot host the region.
        // Fall back to a private segment and re-REQ without the bit —
        // no backoff, the decline is a protocol answer, not pressure.
        release_mailbox();
        caps_ &= ~ipc::kTransportCapVsmArena;
        const Status opened = open_private(caps_);
        if (!opened.ok()) return opened;
        request.transport_caps = caps_;
        continue;
      }
      // Admission backpressure (or a transiently full arena): back off,
      // then re-attach.
      backpressured = true;
      continue;
    }
    if (response.ack == RtAck::kError) {
      release_mailbox();
      return Internal("GVM rejected the request");
    }
    granted = response;
    have_grant = true;
  }
  release_mailbox();
  if (!have_grant) {
    if (backpressured) {
      return Unavailable("GVM admission backpressure persisted across " +
                         std::to_string(options_.max_retries + 1) +
                         " attempts");
    }
    return TimedOut("GVM did not answer REQ after " +
                    std::to_string(options_.max_retries + 1) + " attempts");
  }
  const Status adopted = adopt_grant(granted, caps_);
  if (!adopted.ok()) return adopted;
  if (options_.fault != nullptr) {
    options_.fault->maybe_kill(fault::Point::kClientAfterReq);
  }
  return Status::Ok();
}

Status RtClient::snd() {
  if (capturing_) return Status::Ok();  // replays run zero-copy on the vsm
  const Status st = call(RtRequest{RtOp::kSnd});
  if (!st.ok()) return st;
  if (options_.fault != nullptr) {
    options_.fault->maybe_kill(fault::Point::kClientAfterSnd);
  }
  return Status::Ok();
}

Status RtClient::str() {
  if (capturing_) {
    // Mirror the verb: record "run the REQ kernel over the whole input
    // area into the whole output area", chained after the previous node
    // (the verb sequence is serial, so is its recording).
    if (last_kernel_id_ < 0) {
      return FailedPrecondition("capture str() before any req()");
    }
    const int prev = static_cast<int>(capture_.size()) - 1;
    const std::span<const int> deps =
        prev >= 0 ? std::span<const int>(&prev, 1) : std::span<const int>();
    return capture_kernel(last_kernel_id_, last_params_, 0, bytes_in_,
                          bytes_in_, bytes_out_, deps)
        .status();
  }
  const Status st = call(RtRequest{RtOp::kStr});
  if (!st.ok()) return st;
  if (options_.fault != nullptr) {
    options_.fault->maybe_kill(fault::Point::kClientAfterStr);
  }
  return Status::Ok();
}

Status RtClient::wait_done() {
  if (capturing_) return Status::Ok();
  const Status st = call(RtRequest{RtOp::kStp}, options_.done_timeout);
  if (!st.ok()) return st;
  if (options_.fault != nullptr) {
    options_.fault->maybe_kill(fault::Point::kClientAfterStp);
  }
  return Status::Ok();
}

Status RtClient::rcv() {
  if (capturing_) return Status::Ok();
  const Status st = call(RtRequest{RtOp::kRcv});
  if (!st.ok()) return st;
  if (options_.fault != nullptr) {
    options_.fault->maybe_kill(fault::Point::kClientAfterRcv);
  }
  return Status::Ok();
}

Status RtClient::rls() {
  return call(RtRequest{RtOp::kRls});
}

// ---------------------------------------------------------------------------
// Graph capture / replay
// ---------------------------------------------------------------------------

Status RtClient::begin_capture() {
  if (capturing_) return FailedPrecondition("capture already open");
  capture_.clear();
  capturing_ = true;
  return Status::Ok();
}

StatusOr<int> RtClient::capture_kernel(int kernel_id,
                                       const std::int64_t params[4],
                                       std::int64_t in_offset,
                                       std::int64_t in_bytes,
                                       std::int64_t out_offset,
                                       std::int64_t out_bytes,
                                       std::span<const int> deps,
                                       const std::int32_t* bindings) {
  if (!capturing_) return FailedPrecondition("no capture open");
  if (capture_.size() >= static_cast<std::size_t>(kGraphMaxNodes)) {
    return InvalidArgument("capture exceeds the graph node limit");
  }
  if (deps.size() > static_cast<std::size_t>(kGraphMaxDeps)) {
    return InvalidArgument("too many dependencies for one node");
  }
  RtGraphNode node;
  node.kind = static_cast<std::int32_t>(GraphNodeKind::kKernel);
  node.kernel_id = kernel_id;
  for (int i = 0; i < 4; ++i) node.params[i] = params[i];
  if (bindings != nullptr) {
    for (int i = 0; i < 4; ++i) node.bindings[i] = bindings[i];
  }
  node.src_offset = in_offset;
  node.src_bytes = in_bytes;
  node.dst_offset = out_offset;
  node.dst_bytes = out_bytes;
  node.dep_count = static_cast<std::int32_t>(deps.size());
  for (std::size_t d = 0; d < deps.size(); ++d) {
    if (deps[d] < 0 || deps[d] >= static_cast<int>(capture_.size())) {
      return InvalidArgument("dependency on a node not yet captured");
    }
    node.deps[d] = deps[d];
  }
  capture_.push_back(node);
  return static_cast<int>(capture_.size()) - 1;
}

StatusOr<int> RtClient::capture_copy(std::int64_t src_offset,
                                     std::int64_t dst_offset,
                                     std::int64_t bytes,
                                     std::span<const int> deps) {
  if (!capturing_) return FailedPrecondition("no capture open");
  if (capture_.size() >= static_cast<std::size_t>(kGraphMaxNodes)) {
    return InvalidArgument("capture exceeds the graph node limit");
  }
  if (deps.size() > static_cast<std::size_t>(kGraphMaxDeps)) {
    return InvalidArgument("too many dependencies for one node");
  }
  RtGraphNode node;
  node.kind = static_cast<std::int32_t>(GraphNodeKind::kCopy);
  node.src_offset = src_offset;
  node.src_bytes = bytes;
  node.dst_offset = dst_offset;
  node.dst_bytes = bytes;
  node.dep_count = static_cast<std::int32_t>(deps.size());
  for (std::size_t d = 0; d < deps.size(); ++d) {
    if (deps[d] < 0 || deps[d] >= static_cast<int>(capture_.size())) {
      return InvalidArgument("dependency on a node not yet captured");
    }
    node.deps[d] = deps[d];
  }
  capture_.push_back(node);
  return static_cast<int>(capture_.size()) - 1;
}

StatusOr<std::uint64_t> RtClient::end_capture() {
  if (!capturing_) return FailedPrecondition("no capture open");
  capturing_ = false;
  if (capture_.empty()) return InvalidArgument("capture recorded no nodes");
  captured_ = std::move(capture_);
  capture_.clear();
  return graph_hash(captured_);
}

Status RtClient::upload_graph(int graph_id) {
  if (capturing_) return FailedPrecondition("end_capture before upload");
  if (captured_.empty()) return FailedPrecondition("no finished capture");
  return upload_graph(graph_id, captured_);
}

Status RtClient::upload_graph(int graph_id,
                              std::span<const RtGraphNode> nodes) {
  if (nodes.empty()) return InvalidArgument("cannot upload an empty graph");
  if (bytes_in_ <= 0) {
    return FailedPrecondition("graph upload chunks through the input area");
  }
  const std::vector<std::byte> wire = serialize_graph(nodes);
  const auto total = static_cast<std::int64_t>(wire.size());
  std::span<std::byte> in = input();
  std::int64_t offset = 0;
  while (offset < total) {
    const std::int64_t chunk = std::min<std::int64_t>(total - offset, bytes_in_);
    std::memcpy(in.data(), wire.data() + offset,
                static_cast<std::size_t>(chunk));
    RtRequest request{RtOp::kGraphUpload};
    request.kernel_id = graph_id;
    request.params[0] = total;
    request.params[1] = offset;
    request.params[2] = chunk;
    const Status st = call(request);
    if (!st.ok()) return st;
    offset += chunk;
  }
  return Status::Ok();
}

Status RtClient::launch_graph(int graph_id, const std::int64_t* bindings) {
  RtRequest request{RtOp::kLaunchGraph};
  request.kernel_id = graph_id;
  if (bindings != nullptr) {
    for (int i = 0; i < 4; ++i) request.params[i] = bindings[i];
  }
  return call(request, options_.done_timeout);
}

}  // namespace vgpu::rt
