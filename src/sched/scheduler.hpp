// Pluggable GVM scheduling: the policy layer extracted from the GPU
// Virtualization Manager.
//
// A Scheduler decides *when* and *in what order* client rounds (STR
// requests) are dispatched onto the device. It is pure policy: no
// coroutines, no threads, no clock of its own — callers (the DES
// `gvm::Gvm` and the live `rt::RtServer`) feed it events with an explicit
// timestamp and perform the actual flush/suspend mechanics. Keeping the
// policy side-effect free is what lets the deterministic and the live
// execution paths share one implementation and never drift.
//
// Event protocol (all timestamps are caller-supplied):
//
//   admit(request, now)    client registered (REQ accepted)
//   enqueue(client, now)   client has a round ready to run (STR)
//   pick_next(now)         -> ordered batch of clients to dispatch now
//   on_complete(client)    a dispatched round finished (stream drained)
//   on_release(client)     client deregistered (RLS); a round still
//                          pending is cancelled through on_failure
//   on_failure(client)     client died (lease expiry / crash): any pending
//                          round is dropped and the client is deregistered;
//                          BarrierCoFlush shrinks its effective width so
//                          the surviving cohort's wave still releases
//   next_wakeup(now)       absolute time to poll pick_next() again even if
//                          no event arrives (time-quantum expiry); callers
//                          arm a timer when this is finite
//
// Policies:
//
//   BarrierCoFlush   the paper's SPMD barrier: hold rounds until `width`
//                    clients are pending, then co-flush the whole cohort
//                    (FIFO / smallest-first / largest-first order)
//   TimeQuantum      nvshare-style exclusive windows: one client owns the
//                    device for up to `quantum`, with an anti-thrash
//                    hysteresis before ownership rotates
//   FairShare        deficit round-robin; each round costs its requested
//                    bytes + scaled compute, so shares are resource-true
//   PriorityAging    strict priority, starvation-avoided by aging waiters
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace vgpu::sched {

enum class Policy { kBarrierCoFlush, kTimeQuantum, kFairShare, kPriorityAging };

/// Cohort order used by BarrierCoFlush (the GVM's historical knob).
enum class FlushOrder { kFifo, kSmallestFirst, kLargestFirst };

const char* policy_name(Policy policy);
/// Parses the CLI spelling ("barrier" | "tq" | "fair" | "prio").
bool parse_policy(const std::string& text, Policy* out);

/// What a client declares at admission time; the basis for every policy's
/// ordering decision.
struct ClientRequest {
  int client = -1;
  Bytes bytes_in = 0;
  Bytes bytes_out = 0;
  double compute_cost = 0.0;  // total flops across the plan's kernels
  int priority = 0;           // PriorityAging: higher runs first
  double weight = 1.0;        // FairShare: relative share
};

struct SchedulerConfig {
  Policy policy = Policy::kBarrierCoFlush;

  // BarrierCoFlush.
  int barrier_width = 1;
  FlushOrder flush_order = FlushOrder::kFifo;
  /// Cap the barrier width at the number of currently admitted clients.
  /// Off by default (strict SPMD semantics; a wave that loses a member
  /// deadlocks, exactly as the paper's design assumes it cannot). Enable
  /// for heterogeneous client populations with unequal lifetimes.
  bool dynamic_width = false;

  // TimeQuantum.
  SimDuration quantum = milliseconds(30.0);
  /// Anti-thrash grace: an idle holder keeps the device this long before
  /// ownership rotates to a waiter (it is likely to submit its next round
  /// immediately, and moving its working set off-device costs two PCIe
  /// sweeps under memory pressure).
  SimDuration hysteresis = milliseconds(2.0);

  // FairShare (deficit round-robin).
  double drr_quantum = 16.0 * 1024 * 1024;  // cost units credited per pass
  double compute_cost_scale = 1e-2;         // flops -> cost units

  // PriorityAging.
  SimDuration aging_interval = milliseconds(10.0);  // +1 priority per wait
};

struct SchedStats {
  long admitted = 0;
  long released = 0;
  long failures = 0;          // on_failure() removals (dead clients, and
                              // RLS cancelling a still-pending round)
  long migrated = 0;          // on_migrate() removals (moved to another
                              // device's scheduler between rounds)
  long enqueued = 0;
  long grants = 0;            // rounds dispatched
  long batches = 0;           // non-empty pick_next() results
  long pumps = 0;             // drain_grants() calls granting >= 1 batch
  long quanta_granted = 0;    // TimeQuantum: exclusive windows opened
  long rotations = 0;         // TimeQuantum: ownership changes
  long resident_holds = 0;    // TimeQuantum: idle holds extended because
                              // the holder's working set was resident
  long aging_promotions = 0;  // PriorityAging: aged waiter beat base order
  /// Per-grant wait (enqueue -> grant), seconds. Source of the bench
  /// harness's wait-time percentiles.
  std::vector<double> wait_seconds;

  double wait_percentile(double q) const;
  double mean_wait() const;
};

class Scheduler {
 public:
  static std::unique_ptr<Scheduler> make(const SchedulerConfig& config);

  virtual ~Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  void admit(const ClientRequest& request, SimTime now);
  void on_release(int client, SimTime now);
  /// Removes a client whose session is being handed to another device's
  /// scheduler (cross-device migration). Legal only between rounds — no
  /// pending round, nothing in flight for this client — because the
  /// migrating side drains the round first; the importing scheduler
  /// re-admits the client with its original request.
  void on_migrate(int client, SimTime now);
  /// Removes a dead client. Tolerates any state (pending round, never
  /// enqueued, already gone); an in-flight round stays counted until its
  /// on_complete arrives (the device-side work finishes regardless).
  void on_failure(int client, SimTime now);
  void enqueue(int client, SimTime now);
  /// Ordered batch of clients whose pending round should be dispatched
  /// now; empty when the policy wants to hold. Grant bookkeeping (wait
  /// times, in-flight count) is applied here.
  std::vector<int> pick_next(SimTime now);
  /// Batch-grant interface for the live serve loop: drains every batch
  /// pick_next() would produce at `now` in one call, appending the client
  /// ids to *out and each cohort's width to *cohorts — the caller submits
  /// jobs per cohort but acks the whole pump in one response sweep.
  /// Returns the total clients granted.
  std::size_t drain_grants(SimTime now, std::vector<int>* out,
                           std::vector<std::size_t>* cohorts);
  void on_complete(int client, SimTime now);

  /// Residency hint from the memory layer (the vmem pager): true while
  /// the client's working set is device-resident. Policies may use it for
  /// anti-thrash decisions — TimeQuantum extends an idle resident
  /// holder's grace to its full window, since rotating away from a
  /// resident working set costs two PCIe sweeps under memory pressure.
  /// Unknown clients are ignored; callers that never page (the DES GVM)
  /// never call this and see identical behavior.
  void set_residency(int client, bool resident);

  /// Per-round cost override for graph grants: one kLaunchGraph grant
  /// stands for a whole recorded DAG, so its FairShare charge must be the
  /// graph's aggregate bytes + blocks, not the admission-time footprint.
  /// Sticky until cleared (a plain STR round) or the client is removed.
  /// Unknown clients are ignored.
  void set_round_cost(int client, Bytes bytes, double compute_cost);
  void clear_round_cost(int client);

  /// Absolute time at which pick_next() should be polled again even if no
  /// enqueue/complete event arrives; kTimeInfinity = event-driven only.
  virtual SimTime next_wakeup(SimTime now) const {
    (void)now;
    return kTimeInfinity;
  }

  virtual const char* name() const = 0;
  const SchedulerConfig& config() const { return config_; }
  const SchedStats& stats() const { return stats_; }
  std::size_t clients() const { return clients_.size(); }
  int in_flight() const { return in_flight_; }
  std::size_t pending() const;

 protected:
  struct Client {
    ClientRequest request;
    SimTime enqueue_time = 0;
    bool pending = false;
    bool resident = false;  // vmem residency hint (set_residency)
    double deficit = 0.0;   // FairShare scratch
    bool cost_override = false;  // graph grant: charge aggregate cost
    Bytes override_bytes = 0;
    double override_compute = 0.0;
  };

  explicit Scheduler(SchedulerConfig config) : config_(std::move(config)) {}

  // Policy hooks.
  virtual void do_admit(Client& client, SimTime now);
  virtual void do_release(int client, SimTime now);
  /// Failure hook; the default forwards to do_release (queue scrubbing is
  /// the same), policies override to add failure-specific bookkeeping.
  virtual void do_failure(int client, SimTime now);
  virtual void do_enqueue(Client& client, SimTime now);
  virtual std::vector<int> do_pick(SimTime now) = 0;
  virtual void do_complete(int client, SimTime now);
  /// Called (by the base) for every client in a do_pick batch, before the
  /// pending flag clears — policies update their own queues here.
  virtual void on_granted(Client& client, SimTime now);

  Client* find(int client);
  /// Per-round cost in FairShare units: bytes moved + scaled compute.
  double round_cost(const Client& client) const;

  SchedulerConfig config_;
  std::map<int, Client> clients_;
  int in_flight_ = 0;
  SchedStats stats_;
};

}  // namespace vgpu::sched
