// Wire format of the live GVM protocol: fixed-size POD records carried by
// the negotiated control-plane transport (paper Figure 8's
// REQ/SND/STR/STP/RCV/RLS over POSIX message queues, or the same records
// over per-client shared-memory rings — see ipc/transport.hpp and
// docs/transport.md).
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "ipc/transport.hpp"

namespace vgpu::rt {

enum class RtOp : std::int32_t {
  kReq = 1,
  kSnd,
  kStr,
  kStp,
  kRcv,
  kRls,
  kShutdown,  // server-internal: posted by stop()
  /// Graph verbs (docs/graphs.md). kGraphUpload carries one chunk of a
  /// serialized RtGraph through the client's vsm input area:
  ///   kernel_id = graph id, params[0] = total bytes, params[1] = chunk
  ///   offset, params[2] = chunk bytes. The server acks each chunk and
  ///   validates + caches the graph when the last chunk lands.
  kGraphUpload,
  /// Fires one replay of a cached graph: kernel_id = graph id, params =
  /// the per-iteration scalar bindings substituted into nodes that
  /// declared a binding slot. The server acks once, when the whole graph
  /// completes (kWait answers a duplicate while the replay is running).
  kLaunchGraph,
  /// Server-internal: posted by a finishing job to wake a serve loop
  /// blocked on the request queue (pure-mqueue mode). Carries nothing.
  kWake,
};

enum class RtAck : std::int32_t {
  kAck = 1,
  kWait,
  kError,
};

struct RtRequest {
  RtOp op = RtOp::kReq;
  std::int32_t client = -1;
  std::int32_t kernel_id = -1;  // REQ only
  std::int32_t priority = 0;    // REQ only (priority-aging scheduler)
  /// REQ only: transports the client can speak (ipc::kTransportCap*).
  /// Zero (a pre-negotiation client) means mqueue-only.
  std::uint32_t transport_caps = ipc::kTransportCapMqueue;
  /// REQ only: the client's OS process id — the lease layer's liveness
  /// probe target. 0 (a pre-lease client) disables the pid probe; the
  /// deadline expiry still applies.
  std::int32_t pid = 0;
  /// Per-client monotone sequence number, stamped on every verb. Makes the
  /// control plane safe under at-least-once delivery: the server replays
  /// its recorded response for a repeated seq instead of re-executing the
  /// verb, and the client discards responses for superseded seqs. 0 (a
  /// pre-seq client) opts out of duplicate detection.
  std::int64_t seq = 0;
  /// Session token from the REQ ack (slot | generation), stamped on every
  /// post-REQ verb: the server resolves it in O(1) against its slot table
  /// and rejects tokens whose generation was recycled. 0 (a pre-session
  /// client) falls back to the id lookup.
  std::int64_t session = 0;
  /// REQ only: handshake mailbox index the client claimed in the control
  /// region (-1 = none; the ack travels over P_resp<k> instead).
  std::int32_t mailbox = -1;
  std::int64_t bytes_in = 0;        // REQ only
  std::int64_t bytes_out = 0;       // REQ only
  std::int64_t params[4] = {};      // forwarded to the kernel function
};

struct RtResponse {
  RtAck ack = RtAck::kAck;
  /// REQ ack only: the transport the server selected for this client's
  /// post-REQ traffic (a static_cast of ipc::TransportKind).
  std::int32_t transport =
      static_cast<std::int32_t>(ipc::TransportKind::kMessageQueue);
  /// Echo of the request seq this response answers (0 from pre-seq
  /// servers); the client's retry loop matches on it.
  std::int64_t seq = 0;
  /// REQ ack only: the session token to stamp on every later verb (0 from
  /// pre-session servers).
  std::int64_t session = 0;
  /// REQ ack only: byte offset of this client's region inside the pooled
  /// vsm arena, when the client advertised kTransportCapVsmArena and the
  /// server granted it; -1 = no arena (create a private segment).
  std::int64_t arena_offset = -1;
};

/// The control-plane channel embedded at the head of the vsm region when
/// the client advertises the shm-ring capability.
using RtChannel = ipc::ShmChannelBlock<RtRequest, RtResponse>;

/// Session tokens pack (slot, generation) into one int64. Generations
/// start at 1, so a valid token is never 0 (the "no token" sentinel).
constexpr std::int64_t make_session_token(std::uint32_t slot,
                                          std::uint32_t generation) {
  return (static_cast<std::int64_t>(generation) << 32) |
         static_cast<std::int64_t>(slot);
}
constexpr std::uint32_t session_slot(std::int64_t token) {
  return static_cast<std::uint32_t>(token & 0xffffffff);
}
constexpr std::uint32_t session_generation(std::int64_t token) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(token) >> 32);
}

/// Byte offset of the data area (input then output) inside P_vsm<k>. The
/// layout depends only on the *advertised* capabilities — not on the
/// negotiated result — so both sides can compute it from the REQ message.
constexpr std::size_t vsm_data_offset(std::uint32_t transport_caps) {
  return (transport_caps & ipc::kTransportCapShmRing) != 0
             ? sizeof(RtChannel)
             : 0;
}

/// Total size of P_vsm<k> for a given capability set and data-plane
/// footprint (an all-empty data plane is clamped to one byte).
constexpr Bytes vsm_region_size(std::uint32_t transport_caps, Bytes bytes_in,
                                Bytes bytes_out) {
  const Bytes data = bytes_in + bytes_out > 0 ? bytes_in + bytes_out : 1;
  return static_cast<Bytes>(vsm_data_offset(transport_caps)) + data;
}

}  // namespace vgpu::rt
