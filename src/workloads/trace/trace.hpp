// Versioned, deterministic multi-tenant workload traces (ROADMAP item 5;
// docs/workloads.md).
//
// A trace is a complete, replayable description of one tenant mix: the
// tenant descriptors (arrival process, kernel + working-set scale, job
// budget, priority/weight scheduling hints, optional graph capture, SLO
// targets) plus the fully materialized open-loop arrival schedule the
// seeded generator drew for them. Both replay engines — the DES
// `gvm::run_mixed` path and the live `RtServer` path — consume the same
// Trace object, so a mix's arrival pattern is *identical* across the two
// paths and across machines: the generator uses only the repo's
// platform-stable Rng (xoshiro256** via SplitMix64) and integer/exact
// arithmetic for the arrival processes.
//
// The on-disk form is line-based text with a magic+version header and an
// `end` trailer (so truncation is detectable), round-trippable
// byte-for-byte: serialize(parse(serialize(t))) == serialize(t). Parsing
// never aborts; every malformed input comes back as a Status.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "gvm/protocol.hpp"

namespace vgpu::workloads::trace {

/// Arrival process archetypes (docs/workloads.md "tenant archetypes").
enum class ArrivalKind {
  kPoisson,     // steady open-loop stream, exponential gaps
  kBursty,      // ML-inference style on/off windows
  kDiurnal,     // slow triangle-wave load swing (front-end day/night)
  kClosedLoop,  // batch: next job released `think_ms` after completion
};

const char* arrival_name(ArrivalKind kind);
StatusOr<ArrivalKind> parse_arrival(const std::string& name);

/// One tenant descriptor. Scheduling hints map onto TaskPlan
/// priority/weight (DES) and the REQ priority field (live).
struct TenantSpec {
  int id = 0;
  std::string name;
  ArrivalKind arrival = ArrivalKind::kPoisson;
  std::string kernel = "vecadd";  // job-shape catalog name
  long scale = 4096;              // working-set scale (see job_shape)
  int jobs = 0;                   // job budget (cap for open loop)
  double rate_hz = 0.0;           // open-loop mean arrival rate
  double burst_factor = 1.0;      // bursty: on-window rate multiplier
  double burst_ms = 0.0;          // bursty: on-window length
  double idle_ms = 0.0;           // bursty: off-window length
  double think_ms = 0.0;          // closed-loop think time
  int workers = 1;                // replay concurrency (clients/threads)
  int priority = 0;
  double weight = 1.0;
  bool graph = false;  // request live graph capture for the round loop
  double slo_p50_ms = 0.0;  // 0 = no target
  double slo_p99_ms = 0.0;
};

/// One scheduled open-loop release: trace-relative microseconds, the
/// tenant it belongs to, and the tenant-local sequence number. Closed-loop
/// tenants have no ops (their releases depend on completions).
struct TraceOp {
  std::int64_t t_us = 0;
  int tenant = 0;
  int seq = 0;
};

struct Trace {
  std::string mix;  // mix name, e.g. "inference_training"
  std::uint64_t seed = 0;
  std::int64_t horizon_us = 0;
  std::vector<TenantSpec> tenants;  // tenant-id order
  std::vector<TraceOp> ops;         // non-decreasing t_us

  const TenantSpec* find_tenant(int id) const;
  std::string serialize() const;
};

/// Parses a serialized trace. Rejects — with Status, never an abort —
/// bad magic, version skew, unknown arrival kinds/keys, duplicate or
/// unknown tenant ids, ops out of order or on closed-loop tenants, and
/// truncated input (missing `end` trailer).
StatusOr<Trace> parse(const std::string& text);

/// Synthesizes the open-loop schedule for `tenants` under `seed`.
/// Deterministic: the same (mix, seed, horizon, tenants) yields a
/// bitwise-identical trace on every run and in every forked process.
Trace generate(std::string mix, std::uint64_t seed, std::int64_t horizon_us,
               std::vector<TenantSpec> tenants);

/// Canonical mixes (docs/workloads.md): "inference_training",
/// "risk_batch", "diurnal_frontend". `horizon_us` 0 keeps each mix's
/// default; smaller values make CI-smoke-sized traces with the same
/// tenant structure.
std::vector<std::string> canonical_mix_names();
StatusOr<Trace> canonical_mix(const std::string& name,
                              std::int64_t horizon_us = 0,
                              std::uint64_t seed = 42);

/// Everything the replay engines need to run one tenant's job on either
/// path: the kernel-table kernel + params + buffer sizes, the DES
/// cost-model plan for the same shape, and (for the functional shapes) a
/// deterministic input filler + the table's body as the DES kernel_body,
/// enabling the bitwise DES-vs-live cross-check.
struct JobShape {
  std::string kernel;  // kernel-table name
  std::int64_t params[4] = {};
  Bytes bytes_in = 0;
  Bytes bytes_out = 0;
  gvm::TaskPlan timing_plan;  // unbacked cost-model plan (DES)
  bool functional = false;
  /// Fills an input buffer of bytes_in deterministically (same bytes on
  /// both paths — the precondition for output parity).
  std::function<void(std::span<std::byte>)> fill;
  /// DES kernel body: the table entry's body (workloads::table_body).
  std::function<void(gvm::TaskBuffers&)> body;
};

StatusOr<JobShape> job_shape(const std::string& kernel, long scale);
std::vector<std::string> job_shape_names();

}  // namespace vgpu::workloads::trace
