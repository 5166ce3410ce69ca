#include "des/sim.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace vgpu::des {

Simulator::~Simulator() {
  // Destroy any still-suspended root processes. Their frames own the inner
  // task chain, so the whole coroutine tree unwinds here. Events left in the
  // queue are dropped without resumption.
  for (auto& [handle, alive] : roots_) {
    if (*alive) handle.destroy();
    delete alive;
  }
}

Ancestry Simulator::child_ancestry() const {
  if (dispatching_) return child_ancestry_;
  // Outside dispatch the inserter is "the present": later than every event
  // dispatched so far, earlier than every event dispatched from now on.
  Ancestry now;
  now.fill(now_);
  return now;
}

void Simulator::schedule_at(SimTime t, std::coroutine_handle<> h) {
  VGPU_ASSERT_MSG(t >= now_, "cannot schedule into the past");
  queue_.push(Event{t, child_ancestry(), next_seq_++, h, nullptr});
}

void Simulator::call_at(SimTime t, std::function<void()> fn) {
  VGPU_ASSERT_MSG(t >= now_, "cannot schedule into the past");
  queue_.push(Event{t, child_ancestry(), next_seq_++, {}, std::move(fn)});
}

void Simulator::schedule_elided(SimTime t, const Ancestry& ancestry,
                                std::uint64_t seq, std::function<void()> fn) {
  VGPU_ASSERT_MSG(t > now_ || (t == now_ && !dispatching_),
                  "an elided event must lie ahead of the dispatched ones");
  VGPU_ASSERT(seq < next_seq_);
  queue_.push(Event{t, ancestry, seq, {}, std::move(fn)});
}

void Simulator::add_lookahead(Lookahead* lookahead) {
  lookaheads_.push_back(lookahead);
  settled_ = -1;
}

void Simulator::remove_lookahead(Lookahead* lookahead) {
  std::erase(lookaheads_, lookahead);
}

void Simulator::settle(SimTime limit) {
  if (lookaheads_.empty()) return;
  SimTime next = queue_.empty() ? kTimeInfinity : queue_.top().time;
  next = std::min(next, limit);
  if (next <= settled_) return;
  for (Lookahead* la : lookaheads_) next = std::min(next, la->horizon(next));
  // Nothing real left and nothing elided that could change: an elided
  // stream that would repeat forever (a client polling a GVM that can never
  // answer otherwise) is left parked rather than spun.
  if (next == kTimeInfinity) return;
  for (Lookahead* la : lookaheads_) la->advance(next);
  settled_ = next;
}

Simulator::RootTask Simulator::run_root(Simulator& sim, Task<void> task) {
  (void)sim;  // kept for symmetry; the promise carries the back-pointer
  co_await std::move(task);
}

void Simulator::RootPromise::unhandled_exception() {
  std::fprintf(stderr,
               "vgpu::des: unhandled exception escaped a root process\n");
  std::abort();
}

void Simulator::spawn(Task<void> task) {
  // Opportunistically prune completed registry entries so long simulations
  // that spawn many processes do not grow without bound.
  if (roots_.size() > 64) {
    auto it = std::remove_if(roots_.begin(), roots_.end(), [](auto& entry) {
      if (!*entry.second) {
        delete entry.second;
        return true;
      }
      return false;
    });
    roots_.erase(it, roots_.end());
  }

  RootTask rt = run_root(*this, std::move(task));
  auto handle = rt.handle;
  auto* alive = new bool(true);
  handle.promise().sim = this;
  handle.promise().alive_flag = alive;
  roots_.emplace_back(handle, alive);
  ++live_processes_;
  schedule_at(now_, handle);
}

void Simulator::dispatch(Event& ev) {
  now_ = ev.time;
  ++events_dispatched_;
  current_ = EventKey{ev.time, ev.ancestry, ev.seq};
  child_ancestry_[0] = ev.time;
  std::copy(ev.ancestry.begin(), ev.ancestry.end() - 1,
            child_ancestry_.begin() + 1);
  dispatching_ = true;
  if (ev.handle) {
    ev.handle.resume();
  } else {
    ev.fn();
  }
  dispatching_ = false;
}

SimTime Simulator::run() {
  for (;;) {
    settle(kTimeInfinity);
    if (queue_.empty()) break;
    Event ev = queue_.top();
    queue_.pop();
    dispatch(ev);
  }
  return now_;
}

void Simulator::run_until(SimTime t) {
  for (;;) {
    settle(t);
    if (queue_.empty() || queue_.top().time > t) break;
    Event ev = queue_.top();
    queue_.pop();
    dispatch(ev);
  }
  now_ = std::max(now_, t);
}

}  // namespace vgpu::des
