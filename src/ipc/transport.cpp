#include "ipc/transport.hpp"

#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#endif

namespace vgpu::ipc {

const char* transport_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kMessageQueue:
      return "mqueue";
    case TransportKind::kShmRing:
      return "shm_ring";
  }
  return "?";
}

bool parse_transport(const std::string& text, TransportKind* out) {
  if (text == "mq" || text == "mqueue") {
    *out = TransportKind::kMessageQueue;
    return true;
  }
  if (text == "shm" || text == "shm_ring" || text == "ring") {
    *out = TransportKind::kShmRing;
    return true;
  }
  return false;
}

#ifdef __linux__

namespace {
// FUTEX_WAIT/WAKE without FUTEX_PRIVATE_FLAG: the word may live in a
// shared-memory mapping visible from several processes.
long futex(std::uint32_t* addr, int op, std::uint32_t value,
           const struct timespec* timeout) {
  return ::syscall(SYS_futex, addr, op, value, timeout, nullptr, 0);
}
}  // namespace

void Doorbell::ring(int wake) {
  // seq_cst on both sides orders the epoch bump against the waiter-count
  // read: either the ringer sees the registered waiter (and wakes it), or
  // the waiter's FUTEX_WAIT sees the moved epoch (and returns EAGAIN).
  word_->epoch.fetch_add(1, std::memory_order_seq_cst);
  if (word_->waiters.load(std::memory_order_seq_cst) != 0) {
    futex(reinterpret_cast<std::uint32_t*>(&word_->epoch), FUTEX_WAKE,
          static_cast<std::uint32_t>(std::max(1, wake)), nullptr);
  }
}

bool Doorbell::wait(std::uint32_t seen, std::chrono::microseconds park) {
  if (park <= std::chrono::microseconds::zero()) return epoch() != seen;
  struct timespec ts {};
  ts.tv_sec = static_cast<time_t>(park.count() / 1'000'000);
  ts.tv_nsec = static_cast<long>((park.count() % 1'000'000) * 1'000);
  word_->waiters.fetch_add(1, std::memory_order_seq_cst);
  // EAGAIN (word already moved), EINTR and ETIMEDOUT are all fine: the
  // caller re-checks its predicate either way.
  futex(reinterpret_cast<std::uint32_t*>(&word_->epoch), FUTEX_WAIT, seen,
        &ts);
  word_->waiters.fetch_sub(1, std::memory_order_seq_cst);
  return epoch() != seen;
}

#else  // !__linux__

void Doorbell::ring(int) {
  word_->epoch.fetch_add(1, std::memory_order_seq_cst);
}

bool Doorbell::wait(std::uint32_t seen, std::chrono::microseconds park) {
  // Portability fallback: bounded sleep-poll. WaitStrategy keeps parks
  // short, so worst-case wakeup latency stays near `park`.
  std::this_thread::sleep_for(
      std::min(park, std::chrono::microseconds(50)));
  return epoch() != seen;
}

#endif

}  // namespace vgpu::ipc
