// The live runtime names kernels through the kernel table in
// kernels/registry.hpp: clients send table ids in REQ, the server runs the
// entry's body. These re-exports keep the runtime's spelling.
#pragma once

#include "kernels/registry.hpp"

namespace vgpu::rt {

using kernels::builtin_registry;
using kernels::KernelRegistry;

}  // namespace vgpu::rt
