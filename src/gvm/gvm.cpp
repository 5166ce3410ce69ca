#include "gvm/gvm.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace vgpu::gvm {

const char* request_type_name(RequestType t) {
  switch (t) {
    case RequestType::kReq:
      return "REQ";
    case RequestType::kSnd:
      return "SND";
    case RequestType::kStr:
      return "STR";
    case RequestType::kStp:
      return "STP";
    case RequestType::kRcv:
      return "RCV";
    case RequestType::kRls:
      return "RLS";
    case RequestType::kSus:
      return "SUS";
    case RequestType::kRes:
      return "RES";
  }
  return "?";
}

const char* response_type_name(ResponseType t) {
  switch (t) {
    case ResponseType::kAck:
      return "ACK";
    case ResponseType::kWait:
      return "WAIT";
    case ResponseType::kRetry:
      return "RETRY";
    case ResponseType::kDenied:
      return "DENIED";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Gvm
// ---------------------------------------------------------------------------

namespace {

/// The effective scheduler configuration: for the default barrier
/// co-flush policy the barrier width and flush order come from the
/// legacy GvmConfig knobs, so pre-subsystem configurations reproduce
/// their exact behaviour (use_barriers=false is a width-1 barrier).
sched::SchedulerConfig effective_sched_config(const GvmConfig& config) {
  sched::SchedulerConfig sc = config.sched;
  if (sc.policy == sched::Policy::kBarrierCoFlush) {
    sc.barrier_width = config.use_barriers ? config.expected_clients : 1;
    sc.flush_order = config.flush_order;
  }
  return sc;
}

sched::AdmissionConfig admission_config(vcuda::Runtime& runtime,
                                        const GvmConfig& config) {
  sched::AdmissionConfig ac;
  ac.capacity = runtime.device().spec().global_mem;
  ac.per_client_quota = config.per_client_quota;
  ac.oversubscribe = config.auto_suspend_on_pressure;
  return ac;
}

}  // namespace

Gvm::Gvm(des::Simulator& sim, vcuda::Runtime& runtime, GvmConfig config)
    : sim_(sim),
      runtime_(runtime),
      config_(config),
      ready_(sim),
      requests_(sim),
      scheduler_(sched::Scheduler::make(effective_sched_config(config))),
      admission_(admission_config(runtime, config)) {
  VGPU_ASSERT(config_.expected_clients >= 1);
}

Gvm::~Gvm() {
  if (lookahead_registered_) sim_.remove_lookahead(this);
}

void Gvm::start() { sim_.spawn(run()); }

des::Channel<Response>& Gvm::response_channel(int client) {
  auto it = responses_.find(client);
  if (it == responses_.end()) {
    it = responses_
             .emplace(client, std::make_unique<des::Channel<Response>>(sim_))
             .first;
  }
  return *it->second;
}

SimDuration Gvm::gpu_time() const {
  const gpu::DeviceStats& s = runtime_.device().stats();
  return s.h2d_busy + s.kernel_busy + s.d2h_busy;
}

SimDuration Gvm::staging_time(Bytes bytes) const {
  if (!config_.model_staging_copies) return 0;
  return transfer_time(bytes, config_.host_memcpy_bw);
}

void Gvm::respond(int client, ResponseType type) {
  if (auto it = parked_.find(client); it != parked_.end()) {
    Parked& p = it->second;
    VGPU_ASSERT_MSG(p.in_flight, "response to a parked client with no request");
    if (type == p.again) {
      // The materialized resend was answered `again` too: the loop carries
      // on elided, rooted at the response this answer would deliver.
      ++*p.waits;
      p.root = des::EventKey{sim_.now(), sim_.child_ancestry(),
                             sim_.reserve_seq()};
      p.next = 3;
      p.in_flight = false;
      return;
    }
    parked_.erase(it);
  }
  response_channel(client).send(Response{type});
}

des::Task<> Gvm::run() {
  // Initialization (paper Figure 8, left column): get the device, create
  // the single GPU context. Per-client streams and memory objects are
  // created lazily at REQ.
  context_ = co_await runtime_.create_context();
  ready_.set();
  VGPU_INFO("GVM: ready, serving requests");
  for (;;) {
    Request request = co_await requests_.receive();
    ++stats_.requests;
    co_await handle(request);
  }
}

des::Task<> Gvm::handle(Request request) {
  const SimTime begin = sim_.now();
  if (auto it = clients_.find(request.client); it != clients_.end()) {
    it->second.last_active = begin;  // LRU order for eviction planning
  }
  co_await dispatch(request);
  if (auto* tl = runtime_.device().timeline()) {
    tl->record({std::string(request_type_name(request.type)) + " client " +
                    std::to_string(request.client),
                "protocol", "GVM requests", begin, sim_.now()});
  }
}

des::Task<> Gvm::dispatch(Request request) {
  switch (request.type) {
    case RequestType::kReq:
      co_await handle_req(request.client);
      break;
    case RequestType::kSnd:
      co_await handle_snd(request.client);
      break;
    case RequestType::kStr:
      co_await handle_str(request.client);
      break;
    case RequestType::kStp:
      co_await handle_stp(request.client);
      break;
    case RequestType::kRcv:
      co_await handle_rcv(request.client);
      break;
    case RequestType::kRls:
      co_await handle_rls(request.client);
      break;
    case RequestType::kSus:
      co_await handle_sus(request.client);
      break;
    case RequestType::kRes:
      co_await handle_res(request.client);
      break;
  }
}

des::Task<> Gvm::handle_req(int client) {
  auto plan_it = pending_plans_.find(client);
  VGPU_ASSERT_MSG(plan_it != pending_plans_.end(),
                  "REQ without a registered task plan");
  // The plan stays registered until the request is admitted: a
  // backpressured client re-sends the same REQ after a poll interval.
  const TaskPlan& plan = plan_it->second;
  const Bytes needed = plan.bytes_in + plan.bytes_out;
  const sched::AdmissionController::Fit fit = fit_of(plan);
  sched::AdmitDecision decision =
      admission_.admit(needed, device_free(), victims(client), &fit);
  if (decision.action == sched::AdmitAction::kReject) {
    VGPU_DEBUG("GVM: denied REQ from client " << client << " (" << needed
                                              << " bytes over quota)");
    respond(client, ResponseType::kDenied);
    co_return;
  }
  if (decision.action == sched::AdmitAction::kRetry) {
    ++stats_.waits_sent;
    respond(client, ResponseType::kRetry);
    co_return;
  }
  // Admitted: make room first (oversubscription evicts idle residents'
  // device state to host through SUS, charging the PCIe swap cost).
  for (int victim : decision.evict) {
    auto vit = clients_.find(victim);
    VGPU_ASSERT_MSG(vit != clients_.end(), "evicting unknown client");
    co_await suspend_client(vit->second);
    ++stats_.pressure_suspends;
    VGPU_DEBUG("GVM: suspended client " << victim << " under memory pressure");
  }

  ClientState state;
  state.plan = std::move(plan_it->second);
  pending_plans_.erase(plan_it);
  state.last_active = sim_.now();

  state.stream = &context_->create_stream();
  // Page-locked staging for both directions (required for async overlap);
  // bounded by the node's pinned-memory ledger.
  if (config_.pinned_staging &&
      state.plan.bytes_in + state.plan.bytes_out > 0) {
    auto staging =
        runtime_.alloc_pinned(state.plan.bytes_in + state.plan.bytes_out);
    VGPU_ASSERT_MSG(staging.ok(), staging.status().to_string().c_str());
    state.staging = std::move(*staging);
  }
  if (state.plan.bytes_in > 0) {
    auto buf = context_->malloc(state.plan.bytes_in, state.plan.backed);
    VGPU_ASSERT_MSG(buf.ok(), buf.status().to_string().c_str());
    state.dev_in = *buf;
  }
  if (state.plan.bytes_out > 0) {
    auto buf = context_->malloc(state.plan.bytes_out, state.plan.backed);
    VGPU_ASSERT_MSG(buf.ok(), buf.status().to_string().c_str());
    state.dev_out = *buf;
  }
  sched::ClientRequest request;
  request.client = client;
  request.bytes_in = state.plan.bytes_in;
  request.bytes_out = state.plan.bytes_out;
  for (const auto& k : state.plan.kernels) {
    request.compute_cost += k.total_flops();
  }
  request.priority = state.plan.priority;
  request.weight = state.plan.weight;
  scheduler_->admit(request, sim_.now());
  clients_[client] = std::move(state);
  respond(client, ResponseType::kAck);
  co_return;
}

des::Task<> Gvm::handle_snd(int client) {
  auto it = clients_.find(client);
  VGPU_ASSERT_MSG(it != clients_.end(), "SND from unregistered client");
  // Copy from the client's virtual shared memory into its pinned staging
  // buffer. The GVM is a single process: these copies serialize here, which
  // is the dominant source of virtualization overhead (Figure 10).
  const Bytes n = it->second.plan.bytes_in;
  stats_.bytes_staged_in += n;
  const SimDuration t = staging_time(n);
  co_await sim_.delay(t);
  if (auto* tl = runtime_.device().timeline()) {
    tl->record({"stage in, client " + std::to_string(client), "staging",
                "GVM staging", sim_.now() - t, sim_.now()});
  }
  respond(client, ResponseType::kAck);
}

des::Task<> Gvm::handle_str(int client) {
  auto it = clients_.find(client);
  VGPU_ASSERT_MSG(it != clients_.end(), "STR from unregistered client");
  VGPU_ASSERT_MSG(!it->second.str_pending, "duplicate STR before flush");
  it->second.str_pending = true;
  // Hand the STR to the scheduler; the pump flushes whatever it grants.
  // Under the barrier policy nothing is granted until the full SPMD
  // cohort has sent STR (Figure 8's paired barriers); the time-quantum /
  // fair-share / priority policies grant according to their own state.
  scheduler_->enqueue(client, sim_.now());
  co_await pump();
}

des::Task<> Gvm::pump() {
  for (;;) {
    const std::vector<int> batch = scheduler_->pick_next(sim_.now());
    if (batch.empty()) break;
    // One flush per granted batch: the barrier policy's cohort co-flush
    // counts once, matching the paper's flush accounting.
    ++stats_.flushes;
    for (int id : batch) {
      auto it = clients_.find(id);
      VGPU_ASSERT_MSG(it != clients_.end(), "grant for unregistered client");
      ClientState& state = it->second;
      const SimTime granted = sim_.now();
      co_await flush_stream(id, state);
      state.str_pending = false;
      state.last_active = sim_.now();
      respond(id, ResponseType::kAck);
      sim_.spawn(watch_round(id, state.stream, granted));
    }
  }
  arm_wakeup();
}

des::Task<> Gvm::watch_round(int client, vcuda::Stream* stream,
                             SimTime granted) {
  co_await stream->synchronize();
  scheduler_->on_complete(client, sim_.now());
  // Scheduler lane in the timeline — but never under the default barrier
  // policy, whose traces are byte-compared against the pre-subsystem GVM.
  if (scheduler_->config().policy != sched::Policy::kBarrierCoFlush) {
    if (auto* tl = runtime_.device().timeline()) {
      tl->record({"round client " + std::to_string(client), "sched",
                  "GVM scheduler", granted, sim_.now()});
    }
  }
  // A completed round may unblock the next grant (quantum rotation,
  // fair-share round advance).
  co_await pump();
}

void Gvm::arm_wakeup() {
  const SimTime at = scheduler_->next_wakeup(sim_.now());
  if (at == kTimeInfinity) return;
  if (armed_wakeup_ != kTimeInfinity && armed_wakeup_ <= at &&
      armed_wakeup_ > sim_.now()) {
    return;  // an earlier pending timer already covers this wakeup
  }
  armed_wakeup_ = at;
  sim_.call_at(at, [this, at] {
    if (armed_wakeup_ == at) armed_wakeup_ = kTimeInfinity;
    sim_.spawn(pump());
  });
}

des::Task<> Gvm::flush_stream(int client, ClientState& state) {
  // A client suspended under memory pressure is transparently restored
  // before its work flushes.
  if (state.suspended) {
    const Bytes needed = state.plan.bytes_in + state.plan.bytes_out;
    if (device_free() < needed) {
      co_await relieve_pressure(needed, client);
    }
    co_await resume_client(state);
    ++stats_.pressure_resumes;
  }
  TaskPlan& plan = state.plan;
  if (plan.bytes_in > 0) {
    state.stream->memcpy_h2d_async(state.dev_in, plan.input, plan.bytes_in,
                                   config_.pinned_staging);
  }
  for (std::size_t i = 0; i < plan.kernels.size(); ++i) {
    const bool last = (i + 1 == plan.kernels.size());
    std::function<void()> body;
    if (last && plan.kernel_body) {
      body = [&state] {
        TaskBuffers buffers{&state.dev_in, &state.dev_out};
        state.plan.kernel_body(buffers);
      };
    }
    state.stream->launch(plan.kernels[i], std::move(body));
  }
  if (plan.bytes_out > 0) {
    state.stream->memcpy_d2h_async(plan.output, state.dev_out, plan.bytes_out,
                                   config_.pinned_staging);
  }
}

des::Task<> Gvm::handle_stp(int client) {
  auto it = clients_.find(client);
  VGPU_ASSERT_MSG(it != clients_.end(), "STP from unregistered client");
  if (!it->second.stream->idle()) {
    ++stats_.waits_sent;
    respond(client, ResponseType::kWait);
    co_return;
  }
  // Round complete: copy results from pinned staging into the client's
  // virtual shared memory before acknowledging.
  const Bytes n = it->second.plan.bytes_out;
  stats_.bytes_staged_out += n;
  const SimDuration t = staging_time(n);
  co_await sim_.delay(t);
  if (auto* tl = runtime_.device().timeline()) {
    tl->record({"stage out, client " + std::to_string(client), "staging",
                "GVM staging", sim_.now() - t, sim_.now()});
  }
  respond(client, ResponseType::kAck);
}

des::Task<> Gvm::handle_rcv(int client) {
  // Data is already in the client's virtual shared memory (placed at STP
  // completion); RCV is the handshake that hands it over.
  respond(client, ResponseType::kAck);
  co_return;
}

des::Task<> Gvm::handle_rls(int client) {
  auto it = clients_.find(client);
  VGPU_ASSERT_MSG(it != clients_.end(), "RLS from unregistered client");
  if (it->second.dev_in.valid()) {
    VGPU_ASSERT(context_->free(it->second.dev_in).ok());
  }
  if (it->second.dev_out.valid()) {
    VGPU_ASSERT(context_->free(it->second.dev_out).ok());
  }
  clients_.erase(it);
  scheduler_->on_release(client, sim_.now());
  respond(client, ResponseType::kAck);
  // A departure can unblock grants (e.g. a released quantum holder).
  co_await pump();
}

des::Task<> Gvm::suspend_client(ClientState& state) {
  VGPU_ASSERT_MSG(!state.suspended, "client already suspended");
  VGPU_ASSERT(state.stream->idle());
  // Snapshot device state to host (one D2H per buffer), then release the
  // device allocation so other clients can use the memory.
  auto snapshot = [&](vcuda::DeviceBuffer& buf,
                      std::shared_ptr<std::vector<std::byte>>& saved)
      -> des::Task<> {
    if (!buf.valid()) co_return;
    saved = std::make_shared<std::vector<std::byte>>(
        static_cast<std::size_t>(buf.size));
    state.stream->memcpy_d2h_async(saved->data(), buf, buf.size,
                                   config_.pinned_staging);
    co_await state.stream->synchronize();
    VGPU_ASSERT(context_->free(buf).ok());
  };
  co_await snapshot(state.dev_in, state.saved_in);
  co_await snapshot(state.dev_out, state.saved_out);
  state.suspended = true;
}

des::Task<> Gvm::resume_client(ClientState& state) {
  VGPU_ASSERT_MSG(state.suspended, "resume without a prior suspend");
  auto restore = [&](vcuda::DeviceBuffer& buf, Bytes size,
                     std::shared_ptr<std::vector<std::byte>>& saved)
      -> des::Task<> {
    if (size <= 0) co_return;
    auto fresh = context_->malloc(size, state.plan.backed);
    VGPU_ASSERT_MSG(fresh.ok(), fresh.status().to_string().c_str());
    buf = *fresh;
    if (saved) {
      state.stream->memcpy_h2d_async(buf, saved->data(), size,
                                     config_.pinned_staging);
      co_await state.stream->synchronize();
      saved.reset();
    }
  };
  co_await restore(state.dev_in, state.plan.bytes_in, state.saved_in);
  co_await restore(state.dev_out, state.plan.bytes_out, state.saved_out);
  state.suspended = false;
}

Bytes Gvm::device_free() const {
  const gpu::Device& device = runtime_.device();
  return device.spec().global_mem - device.memory_used();
}

sched::AdmissionController::Fit Gvm::fit_of(const TaskPlan& plan) const {
  // handle_req allocates the input buffer, then the output buffer.
  const gpu::DeviceMemoryAllocator& memory = runtime_.device().memory();
  sched::AdmissionController::Fit fit;
  fit.buffers = {plan.bytes_in, plan.bytes_out};
  fit.free_extents = memory.free_extent_sizes();
  fit.alignment = gpu::DeviceMemoryAllocator::kAlignment;
  return fit;
}

std::vector<sched::AdmissionController::Victim> Gvm::victims(
    int except) const {
  std::vector<sched::AdmissionController::Victim> out;
  for (const auto& [id, state] : clients_) {
    if (id == except || state.suspended || state.str_pending) continue;
    if (!state.stream->idle()) continue;
    if (!state.dev_in.valid() && !state.dev_out.valid()) continue;
    sched::AdmissionController::Victim v;
    v.client = id;
    v.bytes = (state.dev_in.valid() ? state.dev_in.size : 0) +
              (state.dev_out.valid() ? state.dev_out.size : 0);
    v.last_active = state.last_active;
    out.push_back(v);
  }
  return out;
}

des::Task<> Gvm::relieve_pressure(Bytes needed, int except) {
  // Suspend idle resident clients (least recently active first) until
  // the allocation fits; the admission controller plans the victim set.
  for (int id :
       admission_.plan_eviction(needed, device_free(), victims(except))) {
    auto it = clients_.find(id);
    VGPU_ASSERT_MSG(it != clients_.end(), "evicting unknown client");
    co_await suspend_client(it->second);
    ++stats_.pressure_suspends;
    VGPU_DEBUG("GVM: suspended client " << id << " under memory pressure");
  }
}

des::Task<> Gvm::handle_sus(int client) {
  auto it = clients_.find(client);
  VGPU_ASSERT_MSG(it != clients_.end(), "SUS from unregistered client");
  ClientState& state = it->second;
  if (!state.stream->idle()) {
    ++stats_.waits_sent;
    respond(client, ResponseType::kWait);
    co_return;
  }
  co_await suspend_client(state);
  respond(client, ResponseType::kAck);
}

des::Task<> Gvm::handle_res(int client) {
  auto it = clients_.find(client);
  VGPU_ASSERT_MSG(it != clients_.end(), "RES from unregistered client");
  co_await resume_client(it->second);
  respond(client, ResponseType::kAck);
}

// ---------------------------------------------------------------------------
// Resend-loop elision
// ---------------------------------------------------------------------------
//
// A client answered WAIT (STP, SUS) or RETRY (REQ) sleeps a poll interval
// and resends, until the answer changes (paper Sec. V). Each resend costs
// five events: request hop, GVM dispatch, response, response hop, sleep.
// While the GVM idles on its request queue and the awaited state (stream
// idle, admissible memory) is unchanged, a resend is answered `again` and
// changes nothing but counters and the client's LRU stamp — so from the
// second resend on the GVM computes those in closed form instead of
// simulating the loop. A resend becomes a real event whenever its outcome
// could differ:
//   - the GVM is busy when it lands (its FIFO position matters);
//   - any real event falls at its instant (insertion order decides);
//   - the awaited state changed (its answer differs).
// It is inserted with the time and ancestry it has in the polled schedule
// (des/sim.hpp), and the sequence number of its chain's root response as
// the final tie-break. Chains whose resends coincide share their root's
// instant — a real event at a resend instant re-roots every chain resending
// then — so that tie-break orders them as their responses were ordered.
// The polled and the elided runs thus dispatch the same real events in the
// same order, and every counter, including `last_active` (eviction order),
// comes out identical. With a timeline attached every request is recorded,
// so the loop runs for real.

bool Gvm::park(int client, RequestType type, ResponseType again,
               long* waits, const des::EventKey& response) {
  if (runtime_.device().timeline() != nullptr) return false;
  if (2 * config_.msg_latency + config_.poll_interval <= 0) return false;
  if (!lookahead_registered_) {
    sim_.add_lookahead(this);
    lookahead_registered_ = true;
  }
  parked_.insert_or_assign(client, Parked{type, again, waits, response, 3});
  return true;
}

SimTime Gvm::chain_time(const Parked& p, long index) const {
  // Per resend: response, response hop, sleep, request hop, GVM dispatch.
  const SimDuration l = config_.msg_latency;
  const SimDuration period = 2 * l + config_.poll_interval;
  const SimDuration offset[5] = {0, l, l + config_.poll_interval, period,
                                 period};
  return p.root.time + (index / 5) * period + offset[index % 5];
}

des::Ancestry Gvm::chain_ancestry(const Parked& p, long index) const {
  des::Ancestry out;
  for (long j = 0; j < static_cast<long>(out.size()); ++j) {
    out[static_cast<std::size_t>(j)] =
        j < index ? chain_time(p, index - 1 - j)
                  : p.root.ancestry[static_cast<std::size_t>(j - index)];
  }
  return out;
}

bool Gvm::resend_repeats(int client, const Parked& p) const {
  if (requests_.waiting_receivers() == 0) return false;  // GVM busy
  if (p.type == RequestType::kReq) {
    const TaskPlan& plan = pending_plans_.at(client);
    const sched::AdmissionController::Fit fit = fit_of(plan);
    return admission_
               .decide(plan.bytes_in + plan.bytes_out, device_free(),
                       victims(client), &fit)
               .action == sched::AdmitAction::kRetry;
  }
  const auto it = clients_.find(client);
  return it != clients_.end() && !it->second.stream->idle();
}

SimTime Gvm::horizon(SimTime limit) {
  for (const auto& [client, p] : parked_) {
    if (p.in_flight || resend_repeats(client, p)) continue;
    limit = std::min(limit, chain_time(p, p.next));
  }
  return limit;
}

void Gvm::advance(SimTime t) {
  const SimDuration period = 2 * config_.msg_latency + config_.poll_interval;
  for (auto& [client, p] : parked_) {
    if (p.in_flight) continue;
    SimTime at = chain_time(p, p.next);
    if (at < t) {
      // horizon() vouched that every resend before `t` repeats.
      const long skipped = (t - at + period - 1) / period;
      stats_.requests += skipped;
      stats_.waits_sent += skipped;
      *p.waits += skipped;
      if (p.type == RequestType::kReq) admission_.count_backpressure(skipped);
      if (auto it = clients_.find(client); it != clients_.end()) {
        it->second.last_active = at + (skipped - 1) * period;
      }
      p.next += 5 * skipped;
      at = chain_time(p, p.next);
    }
    if (at == t) materialize(client, p);
  }
}

void Gvm::materialize(int client, Parked& p) {
  p.in_flight = true;
  const RequestType type = p.type;
  sim_.schedule_elided(chain_time(p, p.next), chain_ancestry(p, p.next),
                       p.root.seq,
                       [this, client, type] { submit(Request{type, client}); });
}

// ---------------------------------------------------------------------------
// Device-pool API
// ---------------------------------------------------------------------------

sched::DeviceLoad Gvm::load() const {
  sched::DeviceLoad d;
  d.clients = static_cast<int>(clients_.size());
  d.pending = static_cast<int>(scheduler_->pending()) + scheduler_->in_flight();
  d.free_mem = device_free();
  d.capacity = runtime_.device().spec().global_mem;
  for (const auto& [id, state] : clients_) {
    if (!state.str_pending) continue;
    d.queued_cost += static_cast<double>(state.plan.bytes_in +
                                         state.plan.bytes_out);
  }
  return d;
}

bool Gvm::quiescent(int client) const {
  auto it = clients_.find(client);
  if (it == clients_.end()) return false;
  const ClientState& state = it->second;
  return !state.str_pending && (state.suspended || state.stream->idle());
}

des::Task<StatusOr<MigratedClient>> Gvm::export_client(int client) {
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    co_return NotFound("export of unattached client " +
                       std::to_string(client));
  }
  ClientState& state = it->second;
  if (state.str_pending || (!state.suspended && !state.stream->idle())) {
    co_return FailedPrecondition("export of client " + std::to_string(client) +
                                 " mid-round: drain the round first");
  }
  // The suspend machinery is the drain: one D2H sweep snapshots the device
  // buffers to host and frees the device allocation.
  if (!state.suspended) co_await suspend_client(state);
  MigratedClient out;
  out.plan = std::move(state.plan);
  out.saved_in = std::move(state.saved_in);
  out.saved_out = std::move(state.saved_out);
  out.last_active = state.last_active;
  clients_.erase(it);
  scheduler_->on_migrate(client, sim_.now());
  ++stats_.migrations_out;
  co_return out;
}

des::Task<Status> Gvm::import_client(int client, MigratedClient& state) {
  if (clients_.find(client) != clients_.end()) {
    co_return AlreadyExists("import of already-attached client " +
                            std::to_string(client));
  }
  const Bytes needed = state.working_set();
  sched::AdmitDecision decision =
      admission_.admit(needed, device_free(), victims(client));
  if (decision.action == sched::AdmitAction::kReject) {
    co_return ResourceExhausted("import of client " + std::to_string(client) +
                                " over quota/capacity");
  }
  if (decision.action == sched::AdmitAction::kRetry) {
    co_return Unavailable("target device under memory pressure");
  }
  for (int victim : decision.evict) {
    auto vit = clients_.find(victim);
    VGPU_ASSERT_MSG(vit != clients_.end(), "evicting unknown client");
    co_await suspend_client(vit->second);
    ++stats_.pressure_suspends;
  }

  ClientState fresh;
  fresh.plan = std::move(state.plan);
  // Leaves `state` importable elsewhere when this device cannot take the
  // client after all.
  auto bounce = [&](Status why) {
    state.plan = std::move(fresh.plan);
    if (fresh.dev_in.valid()) VGPU_ASSERT(context_->free(fresh.dev_in).ok());
    return why;
  };
  fresh.last_active = sim_.now();
  fresh.stream = &context_->create_stream();
  if (config_.pinned_staging && needed > 0) {
    auto staging = runtime_.alloc_pinned(needed);
    if (!staging.ok()) co_return bounce(staging.status());
    fresh.staging = std::move(*staging);
  }
  // Allocate both buffers before any await so a concurrently-handled REQ
  // cannot slip between the admission verdict and the allocation.
  if (fresh.plan.bytes_in > 0) {
    auto buf = context_->malloc(fresh.plan.bytes_in, fresh.plan.backed);
    if (!buf.ok()) co_return bounce(Unavailable("import lost an alloc race"));
    fresh.dev_in = *buf;
  }
  if (fresh.plan.bytes_out > 0) {
    auto buf = context_->malloc(fresh.plan.bytes_out, fresh.plan.backed);
    if (!buf.ok()) co_return bounce(Unavailable("import lost an alloc race"));
    fresh.dev_out = *buf;
  }

  sched::ClientRequest request;
  request.client = client;
  request.bytes_in = fresh.plan.bytes_in;
  request.bytes_out = fresh.plan.bytes_out;
  for (const auto& k : fresh.plan.kernels) {
    request.compute_cost += k.total_flops();
  }
  request.priority = fresh.plan.priority;
  request.weight = fresh.plan.weight;
  scheduler_->admit(request, sim_.now());
  clients_[client] = std::move(fresh);
  ClientState& placed = clients_[client];

  // Restore the working-set snapshot with one H2D sweep per buffer.
  auto restore = [&](vcuda::DeviceBuffer& buf,
                     std::shared_ptr<std::vector<std::byte>>& saved)
      -> des::Task<> {
    if (!buf.valid() || !saved) co_return;
    placed.stream->memcpy_h2d_async(buf, saved->data(), buf.size,
                                    config_.pinned_staging);
    co_await placed.stream->synchronize();
    saved.reset();
  };
  co_await restore(placed.dev_in, state.saved_in);
  co_await restore(placed.dev_out, state.saved_out);
  ++stats_.migrations_in;
  co_return Status::Ok();
}

// ---------------------------------------------------------------------------
// VGpuClient
// ---------------------------------------------------------------------------

VGpuClient::VGpuClient(des::Simulator& sim, Gvm& gvm, int id)
    : sim_(sim), gvm_(gvm), id_(id) {}

des::Task<Response> VGpuClient::call(RequestType type,
                                     des::EventKey* response_event) {
  co_await sim_.delay(gvm_.config().msg_latency);  // request queue hop
  gvm_.submit(Request{type, id_});
  Response response = co_await gvm_.response_channel(id_).receive();
  if (response_event != nullptr) *response_event = sim_.current_event();
  co_await sim_.delay(gvm_.config().msg_latency);  // response queue hop
  co_return response;
}

des::Task<Response> VGpuClient::poll(RequestType type, ResponseType again) {
  for (;;) {
    des::EventKey response;
    const Response r = co_await call(type, &response);
    if (r.type != again) co_return r;
    ++waits_;
    if (gvm_.park(id_, type, again, &waits_, response)) {
      const Response last = co_await gvm_.response_channel(id_).receive();
      co_await sim_.delay(gvm_.config().msg_latency);  // response queue hop
      co_return last;
    }
    co_await sim_.delay(gvm_.config().poll_interval);
  }
}

des::Task<Status> VGpuClient::req(TaskPlan plan) {
  gvm_.register_plan(id_, std::move(plan));
  const Response r = co_await poll(RequestType::kReq, ResponseType::kRetry);
  if (r.type == ResponseType::kDenied) {
    gvm_.drop_plan(id_);
    co_return ResourceExhausted("REQ denied: over device-memory quota");
  }
  VGPU_ASSERT(r.type == ResponseType::kAck);
  co_return Status::Ok();
}

des::Task<> VGpuClient::snd() {
  const Response r = co_await call(RequestType::kSnd);
  VGPU_ASSERT(r.type == ResponseType::kAck);
}

des::Task<> VGpuClient::str() {
  const Response r = co_await call(RequestType::kStr);
  VGPU_ASSERT(r.type == ResponseType::kAck);
}

des::Task<> VGpuClient::wait_done() {
  co_await poll(RequestType::kStp, ResponseType::kWait);
}

des::Task<> VGpuClient::rcv() {
  const Response r = co_await call(RequestType::kRcv);
  VGPU_ASSERT(r.type == ResponseType::kAck);
}

des::Task<> VGpuClient::rls() {
  const Response r = co_await call(RequestType::kRls);
  VGPU_ASSERT(r.type == ResponseType::kAck);
}

des::Task<> VGpuClient::suspend() {
  co_await poll(RequestType::kSus, ResponseType::kWait);
}

des::Task<> VGpuClient::resume() {
  const Response r = co_await call(RequestType::kRes);
  VGPU_ASSERT(r.type == ResponseType::kAck);
}

des::Task<> VGpuClient::run_task(TaskPlan plan, int rounds) {
  VGPU_ASSERT(rounds >= 1);
  const Status admitted = co_await req(std::move(plan));
  VGPU_ASSERT_MSG(admitted.ok(), admitted.to_string().c_str());
  for (int round = 0; round < rounds; ++round) {
    co_await snd();
    co_await str();
    co_await wait_done();
    co_await rcv();
  }
  co_await rls();
}

}  // namespace vgpu::gvm
