#include "sched/admission.hpp"

#include <algorithm>

#include "common/math.hpp"

namespace vgpu::sched {

namespace {

/// Bytes the allocator takes for the request: each buffer rounded up.
Bytes rounded_total(const AdmissionController::Fit& fit) {
  Bytes total = 0;
  for (const Bytes b : fit.buffers) total += round_up(b, fit.alignment);
  return total;
}

/// Replays the allocator's first fit over a copy of the free extents.
bool first_fit_places(const AdmissionController::Fit& fit) {
  std::vector<Bytes> extents = fit.free_extents;
  for (const Bytes b : fit.buffers) {
    if (b <= 0) continue;
    const Bytes need = round_up(b, fit.alignment);
    const auto it = std::find_if(extents.begin(), extents.end(),
                                 [need](Bytes e) { return e >= need; });
    if (it == extents.end()) return false;
    *it -= need;
  }
  return true;
}

/// Least-recently-active victims first: the longer a client has been
/// idle, the less likely its working set is needed soon.
void sort_lru(std::vector<AdmissionController::Victim>& victims) {
  std::stable_sort(victims.begin(), victims.end(),
                   [](const auto& a, const auto& b) {
                     if (a.last_active != b.last_active) {
                       return a.last_active < b.last_active;
                     }
                     return a.client < b.client;
                   });
}

std::vector<int> pick_victims(
    Bytes needed, Bytes device_free,
    std::vector<AdmissionController::Victim> victims) {
  sort_lru(victims);
  std::vector<int> chosen;
  Bytes freed = 0;
  for (const auto& v : victims) {
    if (device_free + freed >= needed) break;
    chosen.push_back(v.client);
    freed += v.bytes;
  }
  if (device_free + freed < needed) chosen.clear();  // cannot make room yet
  return chosen;
}

}  // namespace

AdmitDecision AdmissionController::admit(Bytes bytes, Bytes device_free,
                                         std::vector<Victim> victims,
                                         const Fit* fit) {
  AdmitDecision decision = decide(bytes, device_free, std::move(victims), fit);
  switch (decision.action) {
    case AdmitAction::kReject:
      ++stats_.rejected;
      break;
    case AdmitAction::kRetry:
      ++stats_.backpressured;
      break;
    case AdmitAction::kAdmit:
      ++stats_.admitted;
      stats_.evictions += static_cast<long>(decision.evict.size());
      break;
  }
  return decision;
}

AdmitDecision AdmissionController::decide(Bytes bytes, Bytes device_free,
                                          std::vector<Victim> victims,
                                          const Fit* fit) const {
  AdmitDecision decision;
  if (bytes > config_.capacity ||
      (fit != nullptr && rounded_total(*fit) > config_.capacity) ||
      (config_.per_client_quota > 0 && bytes > config_.per_client_quota) ||
      (config_.paged && config_.pin_limit > 0 && bytes > config_.pin_limit)) {
    decision.action = AdmitAction::kReject;
    return decision;
  }
  if (config_.paged) {
    // Page-granular mode: `device_free` is the caller's remaining
    // *virtual* budget (device + ledger). Whole-client eviction never
    // happens — the pager spills cold pages instead — so the only
    // outcomes are admit and (ledger exhausted) backpressure.
    decision.action =
        bytes <= device_free ? AdmitAction::kAdmit : AdmitAction::kRetry;
    return decision;
  }
  if (bytes <= device_free && (fit == nullptr || first_fit_places(*fit))) {
    decision.action = AdmitAction::kAdmit;
    return decision;
  }
  // Enough free bytes but no placement: evicting names no victim (the
  // bytes already suffice), so the verdict below is kRetry.
  if (config_.oversubscribe) {
    decision.evict = pick_victims(bytes, device_free, std::move(victims));
    if (!decision.evict.empty()) {
      decision.action = AdmitAction::kAdmit;
      return decision;
    }
  }
  // Fits the device but not right now: backpressure until residents
  // release (or, oversubscribed, until someone becomes evictable).
  decision.action = AdmitAction::kRetry;
  return decision;
}

std::vector<int> AdmissionController::plan_eviction(
    Bytes needed, Bytes device_free, std::vector<Victim> victims) const {
  if (needed <= device_free) return {};
  return pick_victims(needed, device_free, std::move(victims));
}

}  // namespace vgpu::sched
