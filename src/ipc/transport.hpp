// Pluggable IPC transport layer for the live GVM control plane.
//
// Two implementations sit behind one interface:
//
//   * MessageQueue transport — the paper-faithful default (Section V: two
//     POSIX message queues per client) and the portability fallback. Every
//     message is a syscall round trip through the kernel.
//   * Shared-memory SPSC-ring transport — per-client request/response rings
//     of fixed-size protocol records embedded at the head of the client's
//     P_vsm<k> region, with a futex doorbell for blocking wakeups. The hot
//     path (spin-phase hit) is two cache-line handoffs and zero syscalls.
//
// Both sides share one adaptive WaitStrategy (spin -> yield -> block on a
// Doorbell) so the ring client's response wait and the server's serve-loop
// idle wait use the same, tunable machinery. See docs/transport.md.
#pragma once

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>

#include "common/status.hpp"
#include "common/units.hpp"
#include "ipc/mqueue.hpp"
#include "ipc/ring.hpp"

namespace vgpu::ipc {

enum class TransportKind : std::int32_t {
  kMessageQueue = 0,
  kShmRing = 1,
};

/// Capability bits a client advertises at connection time (REQ); the
/// server answers with the TransportKind it selected.
inline constexpr std::uint32_t kTransportCapMqueue = 1u << 0;
inline constexpr std::uint32_t kTransportCapShmRing = 1u << 1;
/// Client can take its data region (and ring channel) inside the server's
/// pooled vsm arena instead of creating a private P_vsm<k> segment; the
/// REQ ack's arena_offset answers the placement (-1 = declined, create
/// your own segment and re-REQ without this bit). See docs/scaling.md.
inline constexpr std::uint32_t kTransportCapVsmArena = 1u << 2;

const char* transport_name(TransportKind kind);
/// Parses the CLI spelling ("mq" | "mqueue" | "shm" | "shm_ring").
bool parse_transport(const std::string& text, TransportKind* out);

/// Pause instruction for spin loops (PAUSE/YIELD); compiler barrier on
/// other architectures.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("pause" ::: "memory");
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// A futex doorbell: an epoch word plus a parked-waiter count living in
/// (shared) memory. ring() bumps the epoch and issues the FUTEX_WAKE only
/// when someone is actually parked — the common ring-into-a-spinning-peer
/// case costs zero syscalls. wait() blocks until the epoch moves past a
/// previously observed value or a bounded park expires. Falls back to
/// sleep-polling where futexes are unavailable.
///
/// The wait protocol is race-free as long as callers re-check their
/// predicate between epoch() and wait(): a waiter that registers after the
/// ringer sampled the count parks on an already-moved epoch, so its
/// FUTEX_WAIT returns immediately (EAGAIN).
class Doorbell {
 public:
  struct Word {
    std::atomic<std::uint32_t> epoch{0};
    std::atomic<std::uint32_t> waiters{0};
  };
  static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t),
                "futex word must be exactly 32 bits");

  explicit Doorbell(Word* word) : word_(word) {}

  bool valid() const { return word_ != nullptr; }
  std::uint32_t epoch() const {
    return word_->epoch.load(std::memory_order_acquire);
  }

  /// Publishes a new epoch and wakes up to `wake` waiters (every waiter
  /// by default). A producer that published n work items passes n, so a
  /// single job wakes one idle consumer instead of the whole herd.
  void ring(int wake = INT_MAX);

  /// Blocks until the epoch differs from `seen` or `park` elapses.
  /// Returns true when the epoch moved.
  bool wait(std::uint32_t seen, std::chrono::microseconds park);

 private:
  Word* word_ = nullptr;
};

/// Size of the stand-alone doorbell region a server publishes (one cache
/// line holding the futex word).
inline constexpr Bytes kDoorbellRegionSize = 64;

struct WaitStats {
  long spin_hits = 0;   // predicate satisfied while spinning
  long yield_hits = 0;  // ... while sched_yield-ing
  long blocks = 0;      // futex parks (each is one syscall)
};

struct WaitConfig {
  /// Busy-poll iterations before yielding. The spin phase is what turns a
  /// sub-microsecond ring handoff into a syscall-free round trip.
  int spin = 4096;
  /// sched_yield() rounds between spinning and parking.
  int yields = 64;
  /// Longest single futex park; waits re-check their predicate (and any
  /// deadline) at least this often.
  std::chrono::microseconds park{500};
};

/// Adaptive spin -> yield -> block waiter shared by the ring transport's
/// receive paths and the server's serve-loop idle wait. On a single-CPU
/// system the spin budget is dropped entirely: a spinner there can only
/// delay the peer it is waiting for.
class WaitStrategy {
 public:
  explicit WaitStrategy(WaitConfig config = {}) : config_(config) {
    if (std::thread::hardware_concurrency() <= 1) config_.spin = 0;
  }

  /// Waits until `pred()` returns true. `doorbell` (optional) is parked on
  /// during the block phase; `deadline` (optional) bounds the total wait.
  /// Returns false on deadline expiry.
  template <typename Pred>
  bool wait(Pred&& pred, Doorbell* doorbell,
            std::optional<std::chrono::steady_clock::time_point> deadline =
                std::nullopt) {
    for (int i = 0; i < config_.spin; ++i) {
      if (pred()) {
        ++stats_.spin_hits;
        return true;
      }
      cpu_relax();
    }
    for (int i = 0; i < config_.yields; ++i) {
      if (pred()) {
        ++stats_.yield_hits;
        return true;
      }
      std::this_thread::yield();
    }
    for (;;) {
      // Record the epoch *before* the final predicate check so a ring()
      // between check and park is never lost.
      const std::uint32_t seen =
          doorbell != nullptr && doorbell->valid() ? doorbell->epoch() : 0;
      if (pred()) return true;
      auto park = config_.park;
      if (deadline.has_value()) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::microseconds>(
                *deadline - std::chrono::steady_clock::now());
        if (remaining <= std::chrono::microseconds::zero()) return false;
        park = std::min(park, remaining);
      }
      ++stats_.blocks;
      if (doorbell != nullptr && doorbell->valid()) {
        doorbell->wait(seen, park);
      } else {
        std::this_thread::sleep_for(
            std::min(park, std::chrono::microseconds(50)));
      }
    }
  }

  const WaitStats& stats() const { return stats_; }
  const WaitConfig& config() const { return config_; }

 private:
  WaitConfig config_;
  WaitStats stats_;
};

/// Protocol-record slots per ring direction. A client has at most one
/// request in flight, so 64 slots never fill; the headroom lets a future
/// pipelined client batch without a layout change.
inline constexpr std::size_t kChannelSlots = 64;

inline constexpr std::uint32_t kChannelMagic = 0x56475043;  // "VGPC"
inline constexpr std::uint32_t kChannelVersion = 2;  // v2: session tokens

/// The shared-memory control block of one client<->server channel: a
/// request ring (client -> server), a response ring (server -> client) and
/// the client's doorbell word. Layout-stable POD, placed by the *client*
/// at the head of its vsm region; the server validates magic/version
/// before accepting the ring transport (else it negotiates down to the
/// message queue).
template <typename Req, typename Resp, std::size_t Slots = kChannelSlots>
struct ShmChannelBlock {
  static_assert(std::is_trivially_copyable_v<Req> &&
                    std::is_trivially_copyable_v<Resp>,
                "channel records must be trivially copyable");

  std::atomic<std::uint32_t> magic{0};  // set last, with release ordering
  std::uint32_t version = kChannelVersion;
  /// Rung by the server after pushing a response.
  Doorbell::Word client_door{};
  alignas(64) SpscRing<Req, Slots> requests;
  alignas(64) SpscRing<Resp, Slots> responses;

  /// Creator-side publish: call after construction, before handing the
  /// region's name to the peer.
  void publish() { magic.store(kChannelMagic, std::memory_order_release); }

  /// Peer-side validation.
  bool valid() const {
    return magic.load(std::memory_order_acquire) == kChannelMagic &&
           version == kChannelVersion;
  }
};

// ---------------------------------------------------------------------------
// The transport interface: a client endpoint that sends requests and
// awaits responses, and a per-client server lane that yields requests and
// carries responses back. The GVM server keeps its shared request queue
// for connection setup; everything after negotiation flows through these.
// ---------------------------------------------------------------------------

template <typename Req, typename Resp>
class ClientTransport {
 public:
  virtual ~ClientTransport() = default;
  virtual TransportKind kind() const = 0;
  virtual Status send(const Req& request) = 0;
  /// Blocks (adaptively for rings) until a response arrives; kUnavailable
  /// on timeout.
  virtual StatusOr<Resp> receive(std::chrono::milliseconds timeout) = 0;
};

template <typename Req, typename Resp>
class ServerLane {
 public:
  virtual ~ServerLane() = default;
  virtual TransportKind kind() const = 0;
  /// Non-blocking request poll. Message-queue lanes always return nullopt:
  /// their requests arrive on the server's shared queue.
  virtual std::optional<Req> try_receive() = 0;
  virtual Status send(const Resp& response) = 0;
};

/// Message-queue client endpoint over the server's shared request queue
/// and this client's private response queue (both non-owning).
/// `after_send` (optional) runs after each successful send: a session
/// client passes the ready-set publish plus server doorbell ring a ring
/// client does, so a serve loop parked on the doorbell for its ring lanes
/// wakes for the message instead of finding it when the park ends.
template <typename Req, typename Resp>
class MqClientTransport final : public ClientTransport<Req, Resp> {
 public:
  MqClientTransport(MessageQueue<Req>* request_queue,
                    MessageQueue<Resp>* response_queue,
                    std::function<void()> after_send = {})
      : request_queue_(request_queue),
        response_queue_(response_queue),
        after_send_(std::move(after_send)) {}

  TransportKind kind() const override { return TransportKind::kMessageQueue; }
  Status send(const Req& request) override {
    const Status sent = request_queue_->send(request);
    if (sent.ok() && after_send_) after_send_();
    return sent;
  }
  StatusOr<Resp> receive(std::chrono::milliseconds timeout) override {
    return response_queue_->receive(timeout);
  }

 private:
  MessageQueue<Req>* request_queue_;
  MessageQueue<Resp>* response_queue_;
  std::function<void()> after_send_;
};

/// Message-queue server lane: wraps the per-client response queue.
template <typename Req, typename Resp>
class MqServerLane final : public ServerLane<Req, Resp> {
 public:
  explicit MqServerLane(MessageQueue<Resp>* response_queue)
      : response_queue_(response_queue) {}

  TransportKind kind() const override { return TransportKind::kMessageQueue; }
  std::optional<Req> try_receive() override { return std::nullopt; }
  Status send(const Resp& response) override {
    // Non-blocking, like the ring lane's push: a client that stopped
    // draining its queue (crashed mid-protocol) must not be able to wedge
    // the serve loop; a full queue reports kUnavailable and the client's
    // retry re-elicits the response.
    return response_queue_->try_send(response);
  }

 private:
  MessageQueue<Resp>* response_queue_;
};

/// Shm-ring client endpoint: pushes requests into the channel block and
/// rings the server's doorbell; receives via spin -> yield -> park on its
/// own doorbell word.
template <typename Req, typename Resp, std::size_t Slots = kChannelSlots>
class RingClientTransport final : public ClientTransport<Req, Resp> {
 public:
  using Block = ShmChannelBlock<Req, Resp, Slots>;

  RingClientTransport(Block* block, Doorbell::Word* server_door,
                      WaitConfig wait = {})
      : block_(block), server_door_(server_door), waiter_(wait) {}

  TransportKind kind() const override { return TransportKind::kShmRing; }

  Status send(const Req& request) override {
    if (!block_->requests.push(request)) {
      return ResourceExhausted("request ring full");
    }
    Doorbell(server_door_).ring();
    return Status::Ok();
  }

  StatusOr<Resp> receive(std::chrono::milliseconds timeout) override {
    std::optional<Resp> response;
    Doorbell door(&block_->client_door);
    const bool got = waiter_.wait(
        [&] {
          response = block_->responses.pop();
          return response.has_value();
        },
        &door, std::chrono::steady_clock::now() + timeout);
    if (!got) return Unavailable("shm-ring receive timeout");
    return *response;
  }

  const WaitStats& wait_stats() const { return waiter_.stats(); }

 private:
  Block* block_;
  Doorbell::Word* server_door_;
  WaitStrategy waiter_;
};

/// Shm-ring server lane: pops requests from the channel block, pushes
/// responses and rings the client's doorbell.
template <typename Req, typename Resp, std::size_t Slots = kChannelSlots>
class RingServerLane final : public ServerLane<Req, Resp> {
 public:
  using Block = ShmChannelBlock<Req, Resp, Slots>;

  explicit RingServerLane(Block* block) : block_(block) {}

  TransportKind kind() const override { return TransportKind::kShmRing; }

  std::optional<Req> try_receive() override {
    return block_->requests.pop();
  }

  Status send(const Resp& response) override {
    if (!block_->responses.push(response)) {
      return ResourceExhausted("response ring full");
    }
    Doorbell(&block_->client_door).ring();
    return Status::Ok();
  }

  /// True when a request is waiting (serve-loop wait predicate).
  bool has_request() const { return !block_->requests.empty(); }

 private:
  Block* block_;
};

}  // namespace vgpu::ipc
