// Umbrella header: the full vgpu public API.
//
// Layered bottom-up; include just the layers you need, or this header for
// everything:
//
//   common/    status, units, rng, stats, tables, flags
//   des/       deterministic coroutine discrete-event engine
//   gpu/       Fermi-class device model (+ occupancy, trace, memory)
//   vcuda/     CUDA-style runtime (contexts, streams, events)
//   kernels/   functional benchmark kernels + cost descriptors + the
//              kernel table
//   model/     the paper's analytical model (Eqs. 1-6)
//   gvm/       the GPU Virtualization Manager (+ multi-GPU, experiments)
//   baselines/ related-work comparators
//   cluster/   interconnect + MPI-like communicator + cluster experiments
//   workloads/ paper-scale and functional benchmark definitions
//   ipc/, rt/  POSIX IPC substrate and the live GVM daemon/client
#pragma once

#include "baselines/baselines.hpp"
#include "cluster/comm.hpp"
#include "cluster/experiment.hpp"
#include "cluster/network.hpp"
#include "common/flags.hpp"
#include "common/log.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "des/channel.hpp"
#include "des/sim.hpp"
#include "des/sync.hpp"
#include "des/task.hpp"
#include "gpu/cost.hpp"
#include "gpu/device.hpp"
#include "gpu/memory.hpp"
#include "gpu/occupancy.hpp"
#include "gpu/spec.hpp"
#include "gpu/trace.hpp"
#include "gvm/experiment.hpp"
#include "gvm/gvm.hpp"
#include "gvm/multi.hpp"
#include "gvm/protocol.hpp"
#include "ipc/mqueue.hpp"
#include "ipc/process_barrier.hpp"
#include "ipc/ring.hpp"
#include "ipc/shm.hpp"
#include "kernels/blackscholes.hpp"
#include "kernels/blas1.hpp"
#include "kernels/cg.hpp"
#include "kernels/electrostatics.hpp"
#include "kernels/ep.hpp"
#include "kernels/fft.hpp"
#include "kernels/is.hpp"
#include "kernels/matmul.hpp"
#include "kernels/mg.hpp"
#include "kernels/registry.hpp"
#include "model/model.hpp"
#include "rt/client.hpp"
#include "rt/registry.hpp"
#include "rt/server.hpp"
#include "vcuda/runtime.hpp"
#include "workloads/workloads.hpp"
