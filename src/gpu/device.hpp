// The simulated Fermi-class GPU device.
//
// The device enforces exactly the scheduling properties the paper's argument
// rests on:
//
//  * Contexts. All work is issued under a context. Only one context owns the
//    GPU at a time; moving ownership costs ctx_switch_time and only happens
//    when the current context has no in-flight work. Context creation is
//    serialized and costs ctx_create_time; the first CUDA-style call pays a
//    one-time device_init_time (driver init).
//  * Concurrent kernels. Up to max_concurrent_kernels kernels *from the
//    current (single) context* may be resident simultaneously. Their blocks
//    are placed on the SM fabric by a chunk scheduler limited by per-SM
//    occupancy (see cost.hpp for the timing formula).
//  * Copy engines. One DMA engine per direction (two on Tesla C-series), so
//    an H2D transfer, a D2H transfer and kernel execution can overlap; two
//    transfers in the same direction serialize — the paper's Section IV
//    assumption. Pageable-memory transfers pay a staging penalty; devices
//    with concurrent_copy_and_exec == false serialize copies with kernels.
//
// The device is *timing-only*: it advances virtual time and accounts for
// resources. Functional data movement/kernel execution is layered on top by
// vcuda.
#pragma once

#include <deque>
#include <map>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "des/channel.hpp"
#include "des/sim.hpp"
#include "des/sync.hpp"
#include "gpu/cost.hpp"
#include "gpu/memory.hpp"
#include "gpu/occupancy.hpp"
#include "gpu/spec.hpp"
#include "gpu/trace.hpp"

namespace vgpu::gpu {

/// Context identifier; 0 is invalid.
using ContextId = int;
constexpr ContextId kNullContext = 0;

enum class Direction { kHostToDevice, kDeviceToHost };

struct DeviceStats {
  long ctx_creates = 0;
  long ctx_switches = 0;
  long kernels_completed = 0;
  long chunks_executed = 0;
  long copies = 0;
  Bytes bytes_h2d = 0;
  Bytes bytes_d2h = 0;
  Bytes bytes_d2d = 0;
  Bytes bytes_memset = 0;
  int max_open_kernels = 0;    // peak concurrently-open kernels
  double max_active_cap = 0.0; // peak SM-units occupied
  SimDuration kernel_busy = 0; // sum of chunk durations (overlap possible)
  SimDuration h2d_busy = 0;
  SimDuration d2h_busy = 0;
};

class Device {
 public:
  Device(des::Simulator& sim, DeviceSpec spec);
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceSpec& spec() const { return spec_; }
  des::Simulator& sim() { return sim_; }

  /// One-time driver initialization; the first caller pays
  /// device_init_time, concurrent callers wait for it to finish.
  des::Task<> init_driver();

  /// Whether the compute mode admits another context right now.
  Status context_admission() const;

  /// Creates a context (serialized, ctx_create_time each). Implies
  /// init_driver(). The first context becomes current at no extra cost.
  /// Returns kNullContext when the compute mode rejects the creation
  /// (exclusive mode with a live context, or prohibited mode).
  des::Task<ContextId> create_context();

  /// Destroys a context and frees all its device allocations. The context
  /// must have no in-flight operations.
  Status destroy_context(ContextId ctx);

  /// Device memory management (instantaneous; capacity-checked).
  StatusOr<DevPtr> malloc_device(ContextId ctx, Bytes size);
  Status free_device(ContextId ctx, DevPtr ptr);

  /// DMA transfer of `bytes` in `dir`. Completes when the transfer is done;
  /// waits for context ownership and a free engine first.
  des::Task<> copy(ContextId ctx, Direction dir, Bytes bytes, bool pinned);

  /// Device-to-device copy: read + write through DRAM.
  des::Task<> copy_d2d(ContextId ctx, Bytes bytes);

  /// Device memset: one DRAM write pass.
  des::Task<> memset(ContextId ctx, Bytes bytes);

  /// Executes a kernel grid; completes when every block has retired.
  des::Task<> launch_kernel(ContextId ctx, KernelLaunch launch);

  /// Attaches a timeline recorder (nullptr detaches). When attached, every
  /// transfer, kernel span, fabric chunk and context switch is recorded.
  void set_timeline(Timeline* timeline) { timeline_ = timeline; }
  Timeline* timeline() { return timeline_; }

  const DeviceStats& stats() const { return stats_; }
  ContextId current_context() const { return current_ctx_; }
  int open_kernels() const { return static_cast<int>(open_.size()); }
  int active_ops() const { return active_ops_; }
  Bytes memory_used() const { return allocator_.used(); }
  const DeviceMemoryAllocator& memory() const { return allocator_; }
  bool context_exists(ContextId ctx) const { return contexts_.count(ctx) > 0; }

 private:
  struct OpenKernel {
    KernelLaunch launch;
    Occupancy occ;
    double u = 0.0;         // SM-units per block
    long pending = 0;       // blocks not yet placed
    int inflight_chunks = 0;
    des::OneShotEvent done;
    explicit OpenKernel(des::Simulator& sim) : done(sim) {}
  };

  struct CtxWaiter {
    ContextId ctx;
    std::coroutine_handle<> handle;
  };

  // --- context arbitration -------------------------------------------------
  bool can_enter(ContextId ctx) const {
    return !switching_ && (current_ctx_ == ctx || current_ctx_ == kNullContext);
  }
  des::Task<> acquire_context(ContextId ctx);
  void release_context();
  void schedule_switch_check();
  void maybe_switch();
  des::Task<> do_switch(ContextId next);

  // --- kernel chunk scheduler ----------------------------------------------
  void try_place();
  void on_chunk_done(OpenKernel* k, double cap, long n);

  des::Simulator& sim_;
  DeviceSpec spec_;
  DeviceMemoryAllocator allocator_;

  // Driver init state.
  bool driver_ready_ = false;
  bool driver_initializing_ = false;
  des::OneShotEvent driver_ready_event_;
  des::Semaphore ctx_create_lock_;

  // Context registry and arbitration.
  ContextId next_ctx_id_ = 1;
  std::map<ContextId, std::vector<DevPtr>> contexts_;  // ctx -> allocations
  ContextId current_ctx_ = kNullContext;
  int active_ops_ = 0;
  bool switching_ = false;
  bool switch_check_scheduled_ = false;
  std::deque<CtxWaiter> ctx_waiters_;

  // Copy engines: index 0 = H2D, index 1 = D2H (aliased when only one).
  des::Semaphore h2d_engine_;
  des::Semaphore d2h_engine_;

  // Single work queue for kernel dispatch: the host-serial portion of each
  // launch (kernel_launch_overhead + host_serial_time) serializes here
  // across streams, modeling Fermi's one-queue dispatch bottleneck.
  des::Semaphore dispatch_gate_;

  // Exclusive gate for devices without copy/compute overlap or concurrent
  // kernels (pre-Fermi): copies and kernels both hold it.
  des::Semaphore exclusive_gate_;

  // Kernel admission and placement. cap_used_ tracks occupancy capacity
  // (SM-units of residency); blocks_resident_ / eff_demand_ feed the
  // demand/saturation timing model (see cost.hpp).
  des::Semaphore kernel_slots_;
  std::deque<OpenKernel*> open_;
  double cap_used_ = 0.0;
  long blocks_resident_ = 0;
  double eff_demand_ = 0.0;

  DeviceStats stats_;
  Timeline* timeline_ = nullptr;
  std::vector<bool> kernel_lanes_;  // rendering lanes for open kernels
};

}  // namespace vgpu::gpu
