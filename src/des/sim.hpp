// Deterministic discrete-event simulator.
//
// Events are ordered by virtual time; ties resolve in insertion order, so a
// given program produces a bit-identical schedule on every run. "Processes"
// are coroutines spawned with Simulator::spawn; they suspend on awaitables
// (delay, channel receive, semaphore acquire, barrier) and are resumed by the
// event loop.
//
// Insertion order is kept as an (ancestry, sequence) key: an event's
// ancestry lists the dispatch times of the event that inserted it and of
// that event's own inserters, most recent first. Ordering equal-time events
// by ancestry and then by sequence is the same total order as by sequence
// alone — an event inserted earlier descends from an inserter dispatched
// earlier — but it is computable for an event that was never inserted. A
// Lookahead uses that to skip a run of events whose outcome it can compute
// in closed form and re-enter the schedule with one event at exactly the
// position the skipped run would have given it.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "des/task.hpp"

namespace vgpu::des {

/// Dispatch times of an event's inserter and of its inserters in turn, most
/// recent first (see the file comment).
inline constexpr std::size_t kAncestryDepth = 6;
using Ancestry = std::array<SimTime, kAncestryDepth>;

/// An event's position in the schedule: time, ancestry, sequence number.
struct EventKey {
  SimTime time = 0;
  Ancestry ancestry{};
  std::uint64_t seq = 0;
};

/// A component that elides a deterministic stream of events (computing its
/// effect in closed form) and materializes real events only where the
/// stream meets the rest of the simulation. The simulator consults every
/// registered lookahead before virtual time advances past the events it
/// has dispatched.
class Lookahead {
 public:
  virtual ~Lookahead() = default;
  /// Earliest time in (now, limit] at which an elided event must become a
  /// real one; `limit` when none must.
  virtual SimTime horizon(SimTime limit) = 0;
  /// Accounts for every elided event strictly before `t` and materializes
  /// (Simulator::schedule_elided) the ones that fall exactly at `t`.
  virtual void advance(SimTime t) = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `h` to resume after `delay` (>= 0).
  void schedule(SimDuration delay, std::coroutine_handle<> h) {
    VGPU_ASSERT(delay >= 0);
    schedule_at(now_ + delay, h);
  }

  /// Schedules `h` to resume at absolute time `t` (>= now).
  void schedule_at(SimTime t, std::coroutine_handle<> h);

  /// Schedules a plain callback at absolute time `t`.
  void call_at(SimTime t, std::function<void()> fn);
  void call_after(SimDuration delay, std::function<void()> fn) {
    VGPU_ASSERT(delay >= 0);
    call_at(now_ + delay, std::move(fn));
  }

  /// Starts a detached root process. It runs when the event loop reaches the
  /// current time slot; its coroutine frame is owned by the simulator and
  /// destroyed on completion (or at simulator destruction if still live).
  void spawn(Task<void> task);

  /// Runs until the event queue drains. Returns the final virtual time.
  SimTime run();

  /// Runs events with time <= t; leaves later events queued.
  void run_until(SimTime t);

  /// Ancestry an event inserted right now receives.
  Ancestry child_ancestry() const;
  /// Key of the event being dispatched (only meaningful during dispatch).
  EventKey current_event() const { return current_; }

  /// Consumes one insertion sequence number without inserting an event:
  /// the position an elided event would have taken.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Inserts a materialized elided event at `t` with the ancestry and
  /// sequence number it has in the schedule that never elided it.
  void schedule_elided(SimTime t, const Ancestry& ancestry, std::uint64_t seq,
                       std::function<void()> fn);

  void add_lookahead(Lookahead* lookahead);
  void remove_lookahead(Lookahead* lookahead);

  /// Number of spawned root processes that have not yet completed.
  std::size_t live_processes() const { return live_processes_; }

  /// Total events dispatched so far (diagnostics / determinism tests).
  std::uint64_t events_dispatched() const { return events_dispatched_; }

  /// Awaitable: suspends the current coroutine for `d` virtual time.
  auto delay(SimDuration d) {
    struct Awaiter {
      Simulator& sim;
      SimDuration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { sim.schedule(d, h); }
      void await_resume() const noexcept {}
    };
    VGPU_ASSERT(d >= 0);
    return Awaiter{*this, d};
  }

  /// Awaitable: yields to other events scheduled at the current time.
  auto yield() { return delay(0); }

 private:
  struct Event {
    SimTime time;
    Ancestry ancestry;
    std::uint64_t seq;
    std::coroutine_handle<> handle;      // exactly one of handle / fn is set
    std::function<void()> fn;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      // Min-heap: earlier insertion first (see the file comment).
      if (a.ancestry != b.ancestry) return a.ancestry > b.ancestry;
      return a.seq > b.seq;
    }
  };

  void dispatch(Event& ev);
  /// Brings every lookahead up to the next real event (at most `limit`)
  /// before time advances to it.
  void settle(SimTime limit);

  // Wrapper that owns a root coroutine and notifies completion.
  struct RootPromise;
  struct RootTask {
    using promise_type = RootPromise;
    std::coroutine_handle<RootPromise> handle;
  };
  struct RootPromise {
    Simulator* sim = nullptr;
    bool* alive_flag = nullptr;  // owned by sim's registry

    RootTask get_return_object() {
      return {std::coroutine_handle<RootPromise>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    // On completion: update the simulator's bookkeeping, then destroy the
    // frame from within the final suspend point (the coroutine is suspended
    // there, so self-destruction is well-defined).
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<RootPromise> h) noexcept {
        auto& p = h.promise();
        --p.sim->live_processes_;
        *p.alive_flag = false;
        h.destroy();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception();
  };
  static RootTask run_root(Simulator& sim, Task<void> task);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_dispatched_ = 0;
  std::size_t live_processes_ = 0;
  // The event being dispatched, and the ancestry of events it inserts.
  EventKey current_;
  Ancestry child_ancestry_{};
  bool dispatching_ = false;
  std::vector<Lookahead*> lookaheads_;
  SimTime settled_ = -1;  // lookaheads are current up to this time
  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
  // Registry of live root coroutines so ~Simulator can destroy them.
  std::vector<std::pair<std::coroutine_handle<>, bool*>> roots_;
};

}  // namespace vgpu::des
