// Admission control for device memory: per-client quotas plus an
// oversubscription mode that makes room by evicting idle clients' device
// state to host (through the GVM's existing SUS/RES machinery, so the
// swap cost is charged through the PCIe model).
//
// Like the Scheduler, this is pure policy: the caller reports how much
// device memory is free and which residents are currently evictable, and
// receives a decision (admit / retry later / reject) plus the ordered
// victim list to suspend first. The caller performs the suspends and the
// allocation.
#pragma once

#include <vector>

#include "common/units.hpp"

namespace vgpu::sched {

struct AdmissionConfig {
  /// Total device memory; requests larger than this are permanently
  /// rejected.
  Bytes capacity = 0;
  /// Per-client cap on requested device bytes; 0 = unlimited.
  Bytes per_client_quota = 0;
  /// Admit aggregate footprints beyond capacity by evicting idle
  /// residents to host. Off: requests that do not currently fit are
  /// backpressured until residents release.
  bool oversubscribe = false;
  /// Page-granular oversubscription (the vmem pager): `capacity` then
  /// bounds *virtual* memory (device + host ledger) and admission never
  /// names whole-client victims — cold pages spill instead. Takes
  /// precedence over `oversubscribe`.
  bool paged = false;
  /// Paged mode: per-client working-set ceiling (the physical device); a
  /// request larger than this could never be pinned and is rejected.
  /// 0 = no ceiling.
  Bytes pin_limit = 0;
};

enum class AdmitAction {
  kAdmit,   // allocate now (after suspending `evict`, in order)
  kRetry,   // transient pressure: ask again later (backpressure)
  kReject,  // permanent: over quota or larger than the device
};

struct AdmitDecision {
  AdmitAction action = AdmitAction::kAdmit;
  std::vector<int> evict;
};

struct AdmissionStats {
  long admitted = 0;
  long rejected = 0;       // permanent rejections (quota / capacity)
  long backpressured = 0;  // transient kRetry responses
  long evictions = 0;      // victims named in kAdmit decisions
};

class AdmissionController {
 public:
  /// A resident client that could be suspended to make room.
  struct Victim {
    int client = -1;
    Bytes bytes = 0;
    SimTime last_active = 0;
  };

  /// The device allocator's layout, for an allocator-aware verdict: the
  /// allocator rounds every buffer up to `alignment` and places it first
  /// fit, in one free extent.
  struct Fit {
    /// The request's buffer sizes, in allocation order.
    std::vector<Bytes> buffers;
    /// Free extent sizes, in address order (the order first fit scans).
    std::vector<Bytes> free_extents;
    Bytes alignment = 1;
  };

  explicit AdmissionController(AdmissionConfig config) : config_(config) {}

  /// Admission of a new client requesting `bytes` of device memory. With
  /// `fit`, the request fits now only if first fit places every rounded
  /// buffer in the free extents, and it is rejected when its rounded
  /// buffers exceed the capacity; a request that fits the free bytes but
  /// not the extents is backpressured (kRetry).
  AdmitDecision admit(Bytes bytes, Bytes device_free,
                      std::vector<Victim> victims, const Fit* fit = nullptr);
  /// admit()'s verdict without counting it.
  AdmitDecision decide(Bytes bytes, Bytes device_free,
                       std::vector<Victim> victims,
                       const Fit* fit = nullptr) const;
  /// Counts `retries` kRetry verdicts reached without calling admit() (a
  /// backpressured client's resends computed in closed form).
  void count_backpressure(long retries) { stats_.backpressured += retries; }

  /// Room-making for a client that is already admitted (a suspended
  /// client's transparent resume before its flush): no quota check, and
  /// eviction is allowed regardless of the oversubscription mode — the
  /// bytes were admitted before, so they must be able to come back.
  std::vector<int> plan_eviction(Bytes needed, Bytes device_free,
                                 std::vector<Victim> victims) const;

  const AdmissionConfig& config() const { return config_; }
  const AdmissionStats& stats() const { return stats_; }

 private:
  AdmissionConfig config_;
  AdmissionStats stats_;
};

}  // namespace vgpu::sched
