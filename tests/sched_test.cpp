// Tests for the pluggable scheduling subsystem (src/sched): per-policy
// unit tests, work-conservation / starvation-freedom properties, admission
// control, and byte-identical trace regression of the refactored GVM
// against the pre-subsystem implementation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gpu/trace.hpp"
#include "gvm/gvm.hpp"
#include "sched/admission.hpp"
#include "sched/policies.hpp"
#include "sched/scheduler.hpp"
#include "workloads/workloads.hpp"

namespace vgpu::sched {
namespace {

ClientRequest request(int client, Bytes bytes_in, Bytes bytes_out = 0,
                      int priority = 0, double weight = 1.0) {
  ClientRequest r;
  r.client = client;
  r.bytes_in = bytes_in;
  r.bytes_out = bytes_out;
  r.priority = priority;
  r.weight = weight;
  return r;
}

// ---------------------------------------------------------------------------
// BarrierCoFlush
// ---------------------------------------------------------------------------

TEST(BarrierPolicy, HoldsUntilTheFullCohortIsPending) {
  SchedulerConfig config;
  config.policy = Policy::kBarrierCoFlush;
  config.barrier_width = 3;
  auto sched = Scheduler::make(config);
  for (int c = 0; c < 3; ++c) sched->admit(request(c, kMiB), 0);
  sched->enqueue(0, 10);
  EXPECT_TRUE(sched->pick_next(10).empty());
  sched->enqueue(1, 20);
  EXPECT_TRUE(sched->pick_next(20).empty());
  sched->enqueue(2, 30);
  EXPECT_EQ(sched->pick_next(30), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sched->stats().batches, 1);
  EXPECT_EQ(sched->stats().grants, 3);
}

TEST(BarrierPolicy, FlushOrderControlsCohortOrder) {
  const Bytes ins[3] = {32 * kMiB, 1 * kMiB, 8 * kMiB};
  const struct {
    FlushOrder order;
    std::vector<int> want;
  } cases[] = {
      {FlushOrder::kFifo, {0, 1, 2}},
      {FlushOrder::kSmallestFirst, {1, 2, 0}},
      {FlushOrder::kLargestFirst, {0, 2, 1}},
  };
  for (const auto& c : cases) {
    SchedulerConfig config;
    config.barrier_width = 3;
    config.flush_order = c.order;
    auto sched = Scheduler::make(config);
    for (int i = 0; i < 3; ++i) {
      sched->admit(request(i, ins[i]), 0);
      sched->enqueue(i, 0);
    }
    EXPECT_EQ(sched->pick_next(0), c.want);
  }
}

TEST(BarrierPolicy, DynamicWidthCapsAtAdmittedPopulation) {
  SchedulerConfig config;
  config.barrier_width = 4;
  config.dynamic_width = true;
  auto sched = Scheduler::make(config);
  sched->admit(request(0, kMiB), 0);
  sched->admit(request(1, kMiB), 0);
  sched->enqueue(0, 0);
  sched->enqueue(1, 0);
  EXPECT_EQ(sched->pick_next(0), (std::vector<int>{0, 1}));
}

TEST(BarrierPolicy, WidthOneDispatchesEachStrImmediately) {
  SchedulerConfig config;
  config.barrier_width = 1;
  auto sched = Scheduler::make(config);
  sched->admit(request(7, kMiB), 0);
  sched->enqueue(7, 0);
  EXPECT_EQ(sched->pick_next(0), std::vector<int>{7});
  EXPECT_TRUE(sched->pick_next(0).empty());
}

// ---------------------------------------------------------------------------
// TimeQuantum
// ---------------------------------------------------------------------------

SchedulerConfig tq_config() {
  SchedulerConfig config;
  config.policy = Policy::kTimeQuantum;
  config.quantum = milliseconds(30.0);
  config.hysteresis = milliseconds(2.0);
  return config;
}

TEST(TimeQuantumPolicy, HolderDispatchesFreelyWithinItsWindow) {
  auto sched = Scheduler::make(tq_config());
  auto* tq = static_cast<TimeQuantum*>(sched.get());
  sched->admit(request(0, kMiB), 0);
  sched->admit(request(1, kMiB), 0);

  sched->enqueue(0, 0);
  EXPECT_EQ(sched->pick_next(0), std::vector<int>{0});
  EXPECT_EQ(tq->holder(), 0);
  sched->enqueue(1, milliseconds(1.0));  // queued behind the holder
  EXPECT_TRUE(sched->pick_next(milliseconds(1.0)).empty());  // 0 in flight

  // Holder's round drains; its next round dispatches inside the window
  // while client 1 keeps waiting.
  sched->on_complete(0, milliseconds(5.0));
  sched->enqueue(0, milliseconds(5.0));
  EXPECT_EQ(sched->pick_next(milliseconds(5.0)), std::vector<int>{0});
  EXPECT_EQ(sched->stats().quanta_granted, 1);
  EXPECT_EQ(sched->stats().rotations, 0);
}

TEST(TimeQuantumPolicy, OwnershipRotatesAtWindowExpiry) {
  auto sched = Scheduler::make(tq_config());
  auto* tq = static_cast<TimeQuantum*>(sched.get());
  sched->admit(request(0, kMiB), 0);
  sched->admit(request(1, kMiB), 0);
  sched->enqueue(0, 0);
  ASSERT_EQ(sched->pick_next(0), std::vector<int>{0});
  sched->enqueue(1, milliseconds(1.0));

  // Past the 30ms window the holder's next round no longer dispatches;
  // ownership rotates to the FCFS queue head instead.
  sched->on_complete(0, milliseconds(31.0));
  sched->enqueue(0, milliseconds(31.0));
  EXPECT_EQ(sched->pick_next(milliseconds(31.0)), std::vector<int>{1});
  EXPECT_EQ(tq->holder(), 1);
  EXPECT_EQ(sched->stats().rotations, 1);
  EXPECT_EQ(sched->stats().quanta_granted, 2);

  // Client 0 is now queued; it gets the device back when 1's window ends.
  sched->on_complete(1, milliseconds(62.0));
  sched->enqueue(1, milliseconds(62.0));
  EXPECT_EQ(sched->pick_next(milliseconds(62.0)), std::vector<int>{0});
  EXPECT_EQ(tq->holder(), 0);
}

TEST(TimeQuantumPolicy, AntiThrashHysteresisDelaysRotation) {
  auto sched = Scheduler::make(tq_config());
  sched->admit(request(0, kMiB), 0);
  sched->admit(request(1, kMiB), 0);
  sched->enqueue(0, 0);
  ASSERT_EQ(sched->pick_next(0), std::vector<int>{0});
  sched->enqueue(1, milliseconds(1.0));
  sched->on_complete(0, milliseconds(5.0));

  // Holder 0 is idle with a waiter queued: within the 2ms grace the
  // device is NOT handed over...
  EXPECT_TRUE(sched->pick_next(milliseconds(5.5)).empty());
  // ...and the scheduler asks to be polled again when the grace expires.
  const SimTime wake = sched->next_wakeup(milliseconds(5.5));
  EXPECT_EQ(wake, milliseconds(7.0));  // last activity 5ms + 2ms hysteresis
  // An immediate resubmit inside the grace keeps ownership (anti-thrash).
  sched->enqueue(0, milliseconds(6.0));
  EXPECT_EQ(sched->pick_next(milliseconds(6.0)), std::vector<int>{0});
  EXPECT_EQ(sched->stats().rotations, 0);
}

TEST(TimeQuantumPolicy, IdleHolderLosesDeviceAfterHysteresis) {
  auto sched = Scheduler::make(tq_config());
  sched->admit(request(0, kMiB), 0);
  sched->admit(request(1, kMiB), 0);
  sched->enqueue(0, 0);
  ASSERT_EQ(sched->pick_next(0), std::vector<int>{0});
  sched->enqueue(1, milliseconds(1.0));
  sched->on_complete(0, milliseconds(5.0));
  EXPECT_EQ(sched->pick_next(milliseconds(7.0)), std::vector<int>{1});
  EXPECT_EQ(sched->stats().rotations, 1);
}

TEST(TimeQuantumPolicy, ResidentWorkingSetExtendsIdleHoldToTheWindow) {
  auto sched = Scheduler::make(tq_config());
  sched->admit(request(0, kMiB), 0);
  sched->admit(request(1, kMiB), 0);
  sched->enqueue(0, 0);
  ASSERT_EQ(sched->pick_next(0), std::vector<int>{0});
  sched->enqueue(1, milliseconds(1.0));
  sched->on_complete(0, milliseconds(5.0));
  sched->set_residency(0, true);  // pager: 0's working set is on-device

  // Past the plain 2ms hysteresis an idle holder would rotate; a resident
  // working set keeps the device for the full 30ms window instead —
  // rotating would page the set out only to page it straight back.
  EXPECT_TRUE(sched->pick_next(milliseconds(7.5)).empty());
  EXPECT_EQ(sched->stats().resident_holds, 1);
  EXPECT_EQ(sched->next_wakeup(milliseconds(7.5)), milliseconds(30.0));
  // The hold is counted once per ownership, not once per poll.
  EXPECT_TRUE(sched->pick_next(milliseconds(9.0)).empty());
  EXPECT_EQ(sched->stats().resident_holds, 1);

  // Once the pager evicts the set, plain hysteresis applies again.
  sched->set_residency(0, false);
  EXPECT_EQ(sched->pick_next(milliseconds(9.5)), std::vector<int>{1});
  EXPECT_EQ(sched->stats().rotations, 1);
}

TEST(TimeQuantumPolicy, ReleasedHolderFreesTheDevice) {
  auto sched = Scheduler::make(tq_config());
  auto* tq = static_cast<TimeQuantum*>(sched.get());
  sched->admit(request(0, kMiB), 0);
  sched->admit(request(1, kMiB), 0);
  sched->enqueue(0, 0);
  ASSERT_EQ(sched->pick_next(0), std::vector<int>{0});
  sched->on_complete(0, milliseconds(1.0));
  sched->on_release(0, milliseconds(1.0));
  EXPECT_EQ(tq->holder(), -1);
  sched->enqueue(1, milliseconds(1.5));
  EXPECT_EQ(sched->pick_next(milliseconds(1.5)), std::vector<int>{1});
}

// ---------------------------------------------------------------------------
// FairShare (deficit round-robin)
// ---------------------------------------------------------------------------

TEST(FairSharePolicy, DeficitAccountingChargesRoundCost) {
  SchedulerConfig config;
  config.policy = Policy::kFairShare;
  config.drr_quantum = 10.0;
  config.compute_cost_scale = 0.0;
  auto sched = Scheduler::make(config);
  auto* fair = static_cast<FairShare*>(sched.get());
  sched->admit(request(0, 10), 0);  // round cost 10: one pass
  sched->admit(request(1, 25), 0);  // round cost 25: three passes
  sched->enqueue(0, 0);
  sched->enqueue(1, 0);

  // One pass credits 10 to each: client 0 becomes affordable, client 1
  // banks its credit.
  EXPECT_EQ(sched->pick_next(0), std::vector<int>{0});
  EXPECT_DOUBLE_EQ(fair->deficit(1), 10.0);
  EXPECT_DOUBLE_EQ(fair->deficit(0), 0.0);  // spent on grant

  // Two more passes bring client 1 to 30 >= 25.
  sched->on_complete(0, 1);
  EXPECT_EQ(sched->pick_next(1), std::vector<int>{1});
  EXPECT_DOUBLE_EQ(fair->deficit(1), 0.0);
}

TEST(FairSharePolicy, WeightScalesPerPassCredit) {
  SchedulerConfig config;
  config.policy = Policy::kFairShare;
  config.drr_quantum = 10.0;
  config.compute_cost_scale = 0.0;
  auto sched = Scheduler::make(config);
  // Same 40-unit round; client 1 has twice the share.
  sched->admit(request(0, 40, 0, 0, 1.0), 0);
  sched->admit(request(1, 40, 0, 0, 2.0), 0);
  sched->enqueue(0, 0);
  sched->enqueue(1, 0);
  // After min-passes (2: client 1 reaches 40 first) only client 1 is
  // affordable; client 0 sits at 20 of 40.
  EXPECT_EQ(sched->pick_next(0), std::vector<int>{1});
  auto* fair = static_cast<FairShare*>(sched.get());
  EXPECT_DOUBLE_EQ(fair->deficit(0), 20.0);
}

TEST(FairSharePolicy, EqualFlowsAlternateGrants) {
  SchedulerConfig config;
  config.policy = Policy::kFairShare;
  config.drr_quantum = 8.0;
  config.compute_cost_scale = 0.0;
  auto sched = Scheduler::make(config);
  sched->admit(request(0, 8), 0);
  sched->admit(request(1, 8), 0);
  long grants[2] = {0, 0};
  SimTime now = 0;
  for (int round = 0; round < 10; ++round) {
    sched->enqueue(0, now);
    sched->enqueue(1, now);
    for (int id : sched->pick_next(now)) {
      ++grants[id];
      sched->on_complete(id, now + 1);
    }
    now += 2;
  }
  EXPECT_EQ(grants[0], 10);
  EXPECT_EQ(grants[1], 10);
}

// ---------------------------------------------------------------------------
// PriorityAging
// ---------------------------------------------------------------------------

TEST(PriorityAgingPolicy, HigherPriorityRunsFirst) {
  SchedulerConfig config;
  config.policy = Policy::kPriorityAging;
  auto sched = Scheduler::make(config);
  sched->admit(request(0, kMiB, 0, /*priority=*/0), 0);
  sched->admit(request(1, kMiB, 0, /*priority=*/5), 0);
  sched->enqueue(0, 0);
  sched->enqueue(1, 0);
  EXPECT_EQ(sched->pick_next(0), std::vector<int>{1});
  // Exclusive: nothing else dispatches while a round is in flight.
  EXPECT_TRUE(sched->pick_next(0).empty());
  sched->on_complete(1, 1);
  EXPECT_EQ(sched->pick_next(1), std::vector<int>{0});
}

TEST(PriorityAgingPolicy, AgingPromotesAStarvedClient) {
  SchedulerConfig config;
  config.policy = Policy::kPriorityAging;
  config.aging_interval = milliseconds(10.0);
  auto sched = Scheduler::make(config);
  sched->admit(request(0, kMiB, 0, /*priority=*/0), 0);
  sched->admit(request(1, kMiB, 0, /*priority=*/5), 0);

  // Client 0 enqueues at t=0 and waits while the high-priority client
  // keeps submitting rounds.
  sched->enqueue(0, 0);
  SimTime now = 0;
  int starved_granted = 0;
  for (int round = 0; round < 8; ++round) {
    sched->enqueue(1, now);
    const auto batch = sched->pick_next(now);
    ASSERT_EQ(batch.size(), 1u);
    if (batch[0] == 0) {
      ++starved_granted;
      break;
    }
    now += milliseconds(9.0);
    sched->on_complete(1, now);
  }
  // After 60ms the waiter's effective priority (0 + 6) beats base 5.
  EXPECT_EQ(starved_granted, 1);
  EXPECT_GE(sched->stats().aging_promotions, 1);
}

// ---------------------------------------------------------------------------
// Properties: every policy is work-conserving and starvation-free.
// ---------------------------------------------------------------------------

class PolicyProperty : public ::testing::TestWithParam<Policy> {};

TEST_P(PolicyProperty, AllRoundsEventuallyDispatchAndNobodyStarves) {
  SchedulerConfig config;
  config.policy = GetParam();
  config.barrier_width = 6;
  config.dynamic_width = true;  // population shrinks as clients finish
  config.quantum = milliseconds(5.0);
  config.hysteresis = milliseconds(1.0);
  config.aging_interval = milliseconds(2.0);
  auto sched = Scheduler::make(config);

  constexpr int kClients = 6;
  constexpr int kRounds = 5;
  int rounds_left[kClients];
  bool waiting[kClients] = {};
  for (int c = 0; c < kClients; ++c) {
    rounds_left[c] = kRounds;
    // Heterogeneous population: different sizes, priorities and weights.
    sched->admit(request(c, (1 + c) * kMiB, kMiB / 2, c % 3,
                         1.0 + (c % 2)),
                 0);
  }

  SimTime now = 0;
  long dispatched = 0;
  int remaining = kClients;
  for (int iter = 0; iter < 10'000 && remaining > 0; ++iter) {
    for (int c = 0; c < kClients; ++c) {
      if (rounds_left[c] > 0 && !waiting[c]) {
        sched->enqueue(c, now);
        waiting[c] = true;
      }
    }
    const auto batch = sched->pick_next(now);
    if (batch.empty()) {
      // Starvation-freedom: with rounds pending the scheduler must name
      // a finite wakeup (or have everything in flight, which this
      // synchronous harness never leaves).
      const SimTime wake = sched->next_wakeup(now);
      ASSERT_NE(wake, kTimeInfinity)
          << policy_name(config.policy) << " stalled at t=" << now;
      now = std::max(wake, now + 1);
      continue;
    }
    for (int id : batch) {
      ++dispatched;
      waiting[id] = false;
      now += milliseconds(1.0);  // the round occupies the device
      sched->on_complete(id, now);
      if (--rounds_left[id] == 0) {
        sched->on_release(id, now);
        --remaining;
      }
    }
  }
  EXPECT_EQ(remaining, 0) << policy_name(config.policy);
  EXPECT_EQ(dispatched, static_cast<long>(kClients) * kRounds);
  EXPECT_EQ(sched->stats().grants, dispatched);
  EXPECT_EQ(sched->stats().released, kClients);
  EXPECT_EQ(sched->in_flight(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyProperty,
                         ::testing::Values(Policy::kBarrierCoFlush,
                                           Policy::kTimeQuantum,
                                           Policy::kFairShare,
                                           Policy::kPriorityAging),
                         [](const auto& info) {
                           return std::string(policy_name(info.param));
                         });

TEST(PolicyNames, ParseRoundTrips) {
  for (Policy p : {Policy::kBarrierCoFlush, Policy::kTimeQuantum,
                   Policy::kFairShare, Policy::kPriorityAging}) {
    Policy parsed;
    ASSERT_TRUE(parse_policy(policy_name(p), &parsed)) << policy_name(p);
    EXPECT_EQ(parsed, p);
  }
  Policy ignored;
  EXPECT_FALSE(parse_policy("bogus", &ignored));
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST(Admission, OverQuotaRequestsAreRejected) {
  AdmissionConfig config;
  config.capacity = 64 * kMiB;
  config.per_client_quota = 8 * kMiB;
  AdmissionController admission(config);
  EXPECT_EQ(admission.admit(9 * kMiB, 64 * kMiB, {}).action,
            AdmitAction::kReject);
  EXPECT_EQ(admission.admit(8 * kMiB, 64 * kMiB, {}).action,
            AdmitAction::kAdmit);
  EXPECT_EQ(admission.stats().rejected, 1);
  EXPECT_EQ(admission.stats().admitted, 1);
}

TEST(Admission, LargerThanDeviceIsRejectedNotRetried) {
  AdmissionConfig config;
  config.capacity = 16 * kMiB;
  AdmissionController admission(config);
  EXPECT_EQ(admission.admit(17 * kMiB, 16 * kMiB, {}).action,
            AdmitAction::kReject);
}

TEST(Admission, PressureWithoutOversubscriptionBackpressures) {
  AdmissionConfig config;
  config.capacity = 16 * kMiB;
  AdmissionController admission(config);
  AdmissionController::Victim idle{/*client=*/0, 8 * kMiB, /*last_active=*/0};
  const auto decision = admission.admit(8 * kMiB, 4 * kMiB, {idle});
  EXPECT_EQ(decision.action, AdmitAction::kRetry);
  EXPECT_TRUE(decision.evict.empty());
  EXPECT_EQ(admission.stats().backpressured, 1);
}

TEST(Admission, OversubscriptionEvictsLeastRecentlyActiveFirst) {
  AdmissionConfig config;
  config.capacity = 32 * kMiB;
  config.oversubscribe = true;
  AdmissionController admission(config);
  const std::vector<AdmissionController::Victim> victims = {
      {0, 8 * kMiB, milliseconds(30.0)},
      {1, 8 * kMiB, milliseconds(10.0)},  // least recently active
      {2, 8 * kMiB, milliseconds(20.0)},
  };
  const auto decision = admission.admit(20 * kMiB, 4 * kMiB, victims);
  EXPECT_EQ(decision.action, AdmitAction::kAdmit);
  EXPECT_EQ(decision.evict, (std::vector<int>{1, 2}));  // LRU, then enough
  EXPECT_EQ(admission.stats().evictions, 2);
}

TEST(Admission, OversubscriptionWithoutVictimsBackpressures) {
  AdmissionConfig config;
  config.capacity = 32 * kMiB;
  config.oversubscribe = true;
  AdmissionController admission(config);
  EXPECT_EQ(admission.admit(20 * kMiB, 4 * kMiB, {}).action,
            AdmitAction::kRetry);
}

TEST(Admission, FitPlacesRoundedBuffersFirstFitInFreeExtents) {
  AdmissionController admission({/*capacity=*/4096});
  const auto verdict = [&](Bytes in, Bytes out, std::vector<Bytes> extents) {
    const AdmissionController::Fit fit{{in, out}, std::move(extents), 256};
    return admission.admit(in + out, 512, {}, &fit).action;
  };
  // 108 B fit 512 free bytes only if each rounded 256 B buffer finds an
  // extent of its own.
  EXPECT_EQ(verdict(100, 8, {256, 256}), AdmitAction::kAdmit);
  EXPECT_EQ(verdict(100, 8, {200, 200, 112}), AdmitAction::kRetry);
  // First fit puts the input in the 300 B extent; neither the 44 B left
  // there nor the 212 B extent holds the output.
  EXPECT_EQ(verdict(200, 200, {300, 212}), AdmitAction::kRetry);
  // Rounded buffers larger than the device are rejected, not retried.
  EXPECT_EQ(verdict(3900, 100, {4096}), AdmitAction::kReject);
}

TEST(Admission, PlanEvictionOnlyNamesVictimsWhenShort) {
  AdmissionController admission({/*capacity=*/32 * kMiB});
  AdmissionController::Victim idle{0, 8 * kMiB, 0};
  EXPECT_TRUE(admission.plan_eviction(4 * kMiB, 8 * kMiB, {idle}).empty());
  EXPECT_EQ(admission.plan_eviction(12 * kMiB, 8 * kMiB, {idle}),
            std::vector<int>{0});
}

// ---------------------------------------------------------------------------
// Failure handling (on_failure: dead clients leaving the scheduler)
// ---------------------------------------------------------------------------

TEST(FailurePath, BarrierShrinksWidthSoSurvivorsFlush) {
  SchedulerConfig config;
  config.policy = Policy::kBarrierCoFlush;
  config.barrier_width = 3;
  auto sched = Scheduler::make(config);
  for (int c = 0; c < 3; ++c) sched->admit(request(c, kMiB), 0);
  sched->enqueue(0, 10);
  sched->enqueue(1, 20);
  ASSERT_TRUE(sched->pick_next(30).empty());  // waiting for client 2's STR
  // Client 2 dies before it could STR: the effective width drops to 2 and
  // the survivors' wave releases without it.
  sched->on_failure(2, 40);
  EXPECT_EQ(sched->pick_next(50), (std::vector<int>{0, 1}));
  EXPECT_EQ(sched->stats().failures, 1);
}

TEST(FailurePath, BarrierDropsTheDeadClientsPendingRound) {
  SchedulerConfig config;
  config.policy = Policy::kBarrierCoFlush;
  config.barrier_width = 2;
  auto sched = Scheduler::make(config);
  sched->admit(request(0, kMiB), 0);
  sched->admit(request(1, kMiB), 0);
  sched->enqueue(0, 10);
  sched->enqueue(1, 20);
  // Client 1 dies with its STR already queued: the pending round must be
  // dropped (never granted as a ghost) and the survivor still flushes.
  sched->on_failure(1, 30);
  EXPECT_EQ(sched->pick_next(40), std::vector<int>{0});
  EXPECT_TRUE(sched->pick_next(50).empty());
}

TEST(FailurePath, BarrierReattachRestoresTheWidth) {
  SchedulerConfig config;
  config.policy = Policy::kBarrierCoFlush;
  config.barrier_width = 2;
  auto sched = Scheduler::make(config);
  sched->admit(request(0, kMiB), 0);
  sched->admit(request(1, kMiB), 0);
  sched->on_failure(1, 10);
  // A re-attach (the crashed client's new incarnation) cancels the width
  // shrink: one pending STR alone must hold again.
  sched->admit(request(1, kMiB), 20);
  sched->enqueue(0, 30);
  EXPECT_TRUE(sched->pick_next(40).empty());
  sched->enqueue(1, 50);
  EXPECT_EQ(sched->pick_next(60), (std::vector<int>{0, 1}));
}

TEST(FailurePath, UnknownClientFailureIsANoOp) {
  SchedulerConfig config;
  config.policy = Policy::kBarrierCoFlush;
  config.barrier_width = 2;
  auto sched = Scheduler::make(config);
  sched->admit(request(0, kMiB), 0);
  sched->on_failure(7, 10);  // never admitted
  EXPECT_EQ(sched->stats().failures, 0);
  sched->admit(request(1, kMiB), 20);
  sched->enqueue(0, 30);
  sched->enqueue(1, 40);
  EXPECT_EQ(sched->pick_next(50), (std::vector<int>{0, 1}));
}

TEST(FailurePath, TimeQuantumDeadHolderFreesTheDevice) {
  auto sched = Scheduler::make(tq_config());
  sched->admit(request(0, kMiB), 0);
  sched->admit(request(1, kMiB), 0);
  sched->enqueue(0, 0);
  ASSERT_EQ(sched->pick_next(0), std::vector<int>{0});
  sched->on_complete(0, milliseconds(1.0));
  sched->enqueue(1, milliseconds(1.0));
  // Holder 0 dies mid-window: the waiter must take over without riding
  // out the rest of the 30 ms quantum.
  sched->on_failure(0, milliseconds(2.0));
  EXPECT_EQ(sched->pick_next(milliseconds(3.0)), std::vector<int>{1});
  EXPECT_EQ(sched->stats().failures, 1);
}

TEST(FailurePath, FairShareForgetsTheDeadFlow) {
  SchedulerConfig config;
  config.policy = Policy::kFairShare;
  auto sched = Scheduler::make(config);
  sched->admit(request(0, kMiB), 0);
  sched->admit(request(1, kMiB), 0);
  sched->enqueue(0, 0);
  sched->on_failure(0, 1);  // dies with a pending round
  sched->enqueue(1, 2);
  // Only the surviving flow is ever granted, however often we ask.
  for (SimTime now = 3; now < 6; ++now) {
    for (int id : sched->pick_next(now)) {
      EXPECT_EQ(id, 1);
      sched->on_complete(id, now);
      sched->enqueue(id, now);
    }
  }
  EXPECT_EQ(sched->stats().failures, 1);
}

// RLS with a round still pending (a live client whose STR timed out) must
// cancel that round like a failure, never abort: one policy each.

TEST(ReleasePending, BarrierCancelsTheRoundAndFreesThePartners) {
  SchedulerConfig config;
  config.policy = Policy::kBarrierCoFlush;
  config.barrier_width = 3;
  auto sched = Scheduler::make(config);
  for (int c = 0; c < 3; ++c) sched->admit(request(c, kMiB), 0);
  sched->enqueue(0, 10);
  sched->enqueue(2, 20);
  ASSERT_TRUE(sched->pick_next(30).empty());  // waiting for client 1
  // Client 2 gives up on its round (its STR timed out) and releases: the
  // round is cancelled, not granted as a ghost, and the cohort shrinks so
  // the remaining partners' wave still releases.
  sched->on_release(2, 40);
  EXPECT_EQ(sched->pending(), 1u);
  EXPECT_EQ(sched->stats().failures, 1);
  sched->enqueue(1, 50);
  EXPECT_EQ(sched->pick_next(60), (std::vector<int>{0, 1}));
}

TEST(ReleasePending, TimeQuantumCancelsTheQueuedRound) {
  auto sched = Scheduler::make(tq_config());
  sched->admit(request(0, kMiB), 0);
  sched->admit(request(1, kMiB), 0);
  sched->enqueue(0, 0);
  ASSERT_EQ(sched->pick_next(0), std::vector<int>{0});
  sched->enqueue(1, 10);  // queued behind holder 0's window
  sched->on_release(1, 20);
  EXPECT_EQ(sched->pending(), 0u);
  EXPECT_EQ(sched->stats().failures, 1);
  sched->on_complete(0, 30);
  sched->enqueue(0, 40);
  EXPECT_EQ(sched->pick_next(50), std::vector<int>{0});
}

TEST(ReleasePending, FairShareNeverGrantsTheCancelledRound) {
  SchedulerConfig config;
  config.policy = Policy::kFairShare;
  auto sched = Scheduler::make(config);
  sched->admit(request(0, kMiB), 0);
  sched->admit(request(1, kMiB), 0);
  sched->enqueue(0, 0);
  sched->enqueue(1, 0);
  sched->on_release(0, 1);
  EXPECT_EQ(sched->stats().failures, 1);
  for (SimTime now = 2; now < 5; ++now) {
    for (int id : sched->pick_next(now)) {
      EXPECT_EQ(id, 1);
      sched->on_complete(id, now);
      sched->enqueue(id, now);
    }
  }
}

TEST(ReleasePending, PriorityAgingGrantsTheSurvivor) {
  SchedulerConfig config;
  config.policy = Policy::kPriorityAging;
  auto sched = Scheduler::make(config);
  sched->admit(request(0, kMiB, 0, /*priority=*/5), 0);
  sched->admit(request(1, kMiB), 0);
  sched->enqueue(0, 0);
  sched->enqueue(1, 0);
  sched->on_release(0, 1);  // the high-priority round is cancelled
  EXPECT_EQ(sched->stats().failures, 1);
  EXPECT_EQ(sched->pick_next(2), std::vector<int>{1});
}

}  // namespace
}  // namespace vgpu::sched

// ---------------------------------------------------------------------------
// GVM integration: the refactored DES path through the subsystem.
// ---------------------------------------------------------------------------

namespace vgpu::gvm {
namespace {

gpu::DeviceSpec fast_c2070() {
  gpu::DeviceSpec spec = gpu::tesla_c2070();
  spec.device_init_time = milliseconds(50.0);
  spec.ctx_create_time = milliseconds(5.0);
  spec.ctx_switch_time = milliseconds(20.0);
  return spec;
}

/// Golden regression: the BarrierCoFlush policy must produce the exact
/// event trace of the pre-subsystem GVM (whose flush loop it replaced).
/// The digests below were captured from the seed implementation for a
/// fixed heterogeneous 3-client scenario, one per FlushOrder.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct TraceDigest {
  FlushOrder order;
  std::size_t events;
  std::uint64_t hash;
  SimTime end;
};

TraceDigest run_golden_scenario(FlushOrder order) {
  des::Simulator sim;
  gpu::Device device(sim, fast_c2070());
  gpu::Timeline timeline;
  device.set_timeline(&timeline);
  vcuda::Runtime runtime(sim, device);
  GvmConfig config;
  config.expected_clients = 3;
  config.flush_order = order;
  Gvm gvm(sim, runtime, config);
  gvm.start();
  const Bytes ins[3] = {1 * kMiB, 32 * kMiB, 8 * kMiB};
  const Bytes outs[3] = {512 * kKiB, 4 * kMiB, 1 * kMiB};
  const double flops[3] = {1e4, 4e4, 2e4};
  for (int c = 0; c < 3; ++c) {
    sim.spawn([](des::Simulator& s, Gvm& gvm, int id, Bytes in, Bytes out,
                 double f) -> des::Task<> {
      co_await gvm.ready().wait();
      TaskPlan plan;
      plan.bytes_in = in;
      plan.bytes_out = out;
      gpu::KernelLaunch l;
      l.name = "k" + std::to_string(id);
      l.geometry = gpu::KernelGeometry{8, 128, 16, 0};
      l.cost = gpu::KernelCost{f, 0.0, 1.0};
      plan.kernels = {l};
      VGpuClient client(s, gvm, id);
      co_await client.run_task(std::move(plan), 2);
    }(sim, gvm, c, ins[c], outs[c], flops[c]));
  }
  const SimTime end = sim.run();
  std::string blob;
  for (const gpu::TraceEvent& e : timeline.events()) {
    blob += e.name;
    blob += '|';
    blob += e.category;
    blob += '|';
    blob += e.lane;
    blob += '|';
    blob += std::to_string(e.begin);
    blob += '|';
    blob += std::to_string(e.end);
    blob += '\n';
  }
  return {order, timeline.size(), fnv1a(blob), end};
}

TEST(SchedulerRegression, BarrierTracesAreByteIdenticalToSeedGvm) {
  const TraceDigest golden[] = {
      {FlushOrder::kFifo, 1910u, 0xdcddf7aabf1da630ull, 91016458},
      {FlushOrder::kSmallestFirst, 1381u, 0xc57ab620d4807d36ull, 94406458},
      {FlushOrder::kLargestFirst, 2746u, 0xa4125e8bff60bd78ull, 90566458},
  };
  for (const TraceDigest& want : golden) {
    const TraceDigest got = run_golden_scenario(want.order);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.hash, want.hash);
    EXPECT_EQ(got.end, want.end);
  }
}

/// Drives `n` functional vecadd clients through one GVM under `config`.
/// Returns true when every client's output verified.
bool run_vecadd_clients(GvmConfig config, gpu::DeviceSpec spec, int n,
                        long elements, GvmStats* stats_out = nullptr,
                        sched::AdmissionStats* admission_out = nullptr) {
  std::vector<workloads::FunctionalWorkload> instances;
  for (int p = 0; p < n; ++p) {
    instances.push_back(workloads::functional_vecadd(elements));
  }
  des::Simulator sim;
  gpu::Device device(sim, spec);
  vcuda::Runtime runtime(sim, device);
  config.expected_clients = n;
  Gvm gvm(sim, runtime, config);
  gvm.start();
  for (int p = 0; p < n; ++p) {
    sim.spawn([](des::Simulator& s, Gvm& gvm,
                 workloads::FunctionalWorkload& w, int id) -> des::Task<> {
      co_await gvm.ready().wait();
      VGpuClient client(s, gvm, id);
      co_await client.run_task(w.plan, w.rounds);
    }(sim, gvm, instances[static_cast<std::size_t>(p)], p));
  }
  sim.run();
  if (stats_out != nullptr) *stats_out = gvm.stats();
  if (admission_out != nullptr) *admission_out = gvm.admission().stats();
  bool ok = true;
  for (auto& w : instances) ok = ok && w.verify();
  return ok;
}

TEST(SchedulerIntegration, OversubscribedEightClientsCompleteWithoutDeadlock) {
  // Aggregate footprint ~12MB on an 8MB device: the admission controller
  // must keep evicting idle residents (SUS) and resuming them (RES) so
  // that all eight clients finish, with correct results.
  gpu::DeviceSpec spec = fast_c2070();
  spec.global_mem = 8 * kMiB;
  GvmConfig config;
  config.use_barriers = false;  // independent clients
  config.auto_suspend_on_pressure = true;
  GvmStats stats;
  sched::AdmissionStats admission;
  ASSERT_TRUE(run_vecadd_clients(config, spec, /*n=*/8,
                                 /*elements=*/131072, &stats, &admission));
  EXPECT_GT(stats.pressure_suspends, 0);
  EXPECT_GT(stats.pressure_resumes, 0);
  EXPECT_GT(admission.evictions, 0);
}

TEST(SchedulerIntegration, TimeQuantumPathProducesCorrectResults) {
  gpu::DeviceSpec spec = fast_c2070();
  GvmConfig config;
  config.sched.policy = sched::Policy::kTimeQuantum;
  config.sched.quantum = milliseconds(5.0);
  ASSERT_TRUE(run_vecadd_clients(config, spec, /*n=*/4, /*elements=*/4096));
}

TEST(SchedulerIntegration, FairSharePathProducesCorrectResults) {
  gpu::DeviceSpec spec = fast_c2070();
  GvmConfig config;
  config.sched.policy = sched::Policy::kFairShare;
  ASSERT_TRUE(run_vecadd_clients(config, spec, /*n=*/4, /*elements=*/4096));
}

TEST(SchedulerIntegration, PriorityAgingPathProducesCorrectResults) {
  gpu::DeviceSpec spec = fast_c2070();
  GvmConfig config;
  config.sched.policy = sched::Policy::kPriorityAging;
  ASSERT_TRUE(run_vecadd_clients(config, spec, /*n=*/4, /*elements=*/4096));
}

TEST(SchedulerIntegration, OverQuotaReqIsDenied) {
  des::Simulator sim;
  gpu::Device device(sim, fast_c2070());
  vcuda::Runtime runtime(sim, device);
  GvmConfig config;
  config.per_client_quota = 4 * kMiB;
  Gvm gvm(sim, runtime, config);
  gvm.start();
  Status seen;
  sim.spawn([](des::Simulator& s, Gvm& gvm, Status& seen) -> des::Task<> {
    co_await gvm.ready().wait();
    VGpuClient client(s, gvm, 0);
    TaskPlan plan;
    plan.bytes_in = 8 * kMiB;  // over the 4MB quota
    seen = co_await client.req(std::move(plan));
  }(sim, gvm, seen));
  sim.run();
  EXPECT_EQ(seen.code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(gvm.admission().stats().rejected, 1);
}

TEST(SchedulerIntegration, PressureBackpressuresReqUntilResidentsRelease) {
  // 16MB device, two 12MB clients, no oversubscription: the second REQ
  // must be backpressured (kRetry) until the first client releases, then
  // admitted — and both complete correctly.
  gpu::DeviceSpec spec = fast_c2070();
  spec.global_mem = 16 * kMiB;
  des::Simulator sim;
  gpu::Device device(sim, spec);
  vcuda::Runtime runtime(sim, device);
  GvmConfig config;
  config.use_barriers = false;
  Gvm gvm(sim, runtime, config);
  gvm.start();
  auto w0 = workloads::functional_vecadd(1 << 20);  // 8MB in + 4MB out
  auto w1 = workloads::functional_vecadd(1 << 20);
  for (int p = 0; p < 2; ++p) {
    auto& w = p == 0 ? w0 : w1;
    sim.spawn([](des::Simulator& s, Gvm& gvm,
                 workloads::FunctionalWorkload& w, int id) -> des::Task<> {
      co_await gvm.ready().wait();
      co_await s.delay(id * microseconds(50.0));  // stagger arrivals
      VGpuClient client(s, gvm, id);
      co_await client.run_task(w.plan, w.rounds);
    }(sim, gvm, w, p));
  }
  sim.run();
  EXPECT_TRUE(w0.verify());
  EXPECT_TRUE(w1.verify());
  EXPECT_GT(gvm.admission().stats().backpressured, 0);
  EXPECT_EQ(gvm.admission().stats().admitted, 2);
}

}  // namespace
}  // namespace vgpu::gvm
