#include "rt/graph.hpp"

#include <algorithm>
#include <cstring>

namespace vgpu::rt {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void hash_u64(std::uint64_t v, std::uint64_t* h) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= kFnvPrime;
  }
}

/// Spans a node reads / writes, as [offset, offset+bytes) pairs.
struct NodeSpan {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  bool overlaps(const NodeSpan& other) const {
    return begin < other.end && other.begin < end;
  }
};
NodeSpan read_span(const RtGraphNode& node) {
  return {node.src_offset, node.src_offset + node.src_bytes};
}
NodeSpan write_span(const RtGraphNode& node) {
  return {node.dst_offset, node.dst_offset + node.dst_bytes};
}

bool has_bindings(const RtGraphNode& node) {
  for (int b : node.bindings) {
    if (b >= 0) return true;
  }
  return false;
}

/// True when nodes i and j (i < j, mutually unordered) would race: a
/// write of one overlaps anything the other touches.
bool conflicts(const RtGraphNode& a, const RtGraphNode& b) {
  return write_span(a).overlaps(read_span(b)) ||
         write_span(a).overlaps(write_span(b)) ||
         write_span(b).overlaps(read_span(a));
}

}  // namespace

std::uint64_t graph_hash(std::span<const RtGraphNode> nodes) {
  std::uint64_t h = kFnvOffset;
  for (const RtGraphNode& node : nodes) {
    hash_u64(static_cast<std::uint64_t>(node.kind), &h);
    hash_u64(static_cast<std::uint64_t>(node.kernel_id), &h);
    for (std::int64_t p : node.params) {
      hash_u64(static_cast<std::uint64_t>(p), &h);
    }
    for (std::int32_t b : node.bindings) {
      hash_u64(static_cast<std::uint64_t>(b), &h);
    }
    hash_u64(static_cast<std::uint64_t>(node.src_offset), &h);
    hash_u64(static_cast<std::uint64_t>(node.src_bytes), &h);
    hash_u64(static_cast<std::uint64_t>(node.dst_offset), &h);
    hash_u64(static_cast<std::uint64_t>(node.dst_bytes), &h);
    for (std::int32_t d : node.deps) {
      hash_u64(static_cast<std::uint64_t>(d), &h);
    }
    hash_u64(static_cast<std::uint64_t>(node.dep_count), &h);
  }
  return h;
}

std::vector<std::byte> serialize_graph(std::span<const RtGraphNode> nodes) {
  RtGraphHeader header;
  header.node_count = static_cast<std::int32_t>(nodes.size());
  header.hash = graph_hash(nodes);
  std::vector<std::byte> out(sizeof(RtGraphHeader) +
                             nodes.size() * sizeof(RtGraphNode));
  std::memcpy(out.data(), &header, sizeof(header));
  if (!nodes.empty()) {
    std::memcpy(out.data() + sizeof(header), nodes.data(),
                nodes.size() * sizeof(RtGraphNode));
  }
  return out;
}

StatusOr<RtGraph> plan_graph(std::vector<RtGraphNode> nodes,
                             const KernelRegistry& registry,
                             Bytes data_bytes) {
  const int n = static_cast<int>(nodes.size());
  if (n < 1 || n > kGraphMaxNodes) {
    return InvalidArgument("graph node count out of range: " +
                           std::to_string(n));
  }
  RtGraph graph;
  GraphPlan& plan = graph.plan;
  plan.level_of.assign(nodes.size(), 0);
  plan.consumers.assign(nodes.size(), 0);
  plan.fuse_next.assign(nodes.size(), -1);
  plan.fused_tail.assign(nodes.size(), 0);

  for (int i = 0; i < n; ++i) {
    const RtGraphNode& node = nodes[i];
    if (node.kind != static_cast<std::int32_t>(GraphNodeKind::kCopy) &&
        node.kind != static_cast<std::int32_t>(GraphNodeKind::kKernel)) {
      return InvalidArgument("graph node " + std::to_string(i) +
                             ": unknown kind");
    }
    if (node.dep_count < 0 || node.dep_count > kGraphMaxDeps) {
      return InvalidArgument("graph node " + std::to_string(i) +
                             ": dep_count out of range");
    }
    int level = 0;
    for (int d = 0; d < node.dep_count; ++d) {
      const std::int32_t dep = node.deps[d];
      if (dep < 0 || dep >= i) {
        // Capture order is the topological order; forward deps are
        // either cycles or corruption.
        return InvalidArgument("graph node " + std::to_string(i) +
                               ": bad dependency " + std::to_string(dep));
      }
      plan.consumers[dep] += 1;
      level = std::max(level, plan.level_of[dep] + 1);
    }
    plan.level_of[i] = level;
    plan.level_count = std::max(plan.level_count, level + 1);

    const bool copy = node.kind == static_cast<std::int32_t>(GraphNodeKind::kCopy);
    // Overflow-free form of offset + bytes <= data_bytes: offset + bytes
    // can wrap int64 to a negative that passes a naive comparison, and
    // these fields come off the wire (the hash is client-computed, so it
    // does not protect against a crafted upload).
    const std::int64_t limit = data_bytes;
    if (node.src_bytes < 0 || node.dst_bytes < 0 || node.src_offset < 0 ||
        node.dst_offset < 0 || node.src_bytes > limit ||
        node.src_offset > limit - node.src_bytes || node.dst_bytes > limit ||
        node.dst_offset > limit - node.dst_bytes) {
      return InvalidArgument("graph node " + std::to_string(i) +
                             ": span outside the data area");
    }
    for (std::int32_t b : node.bindings) {
      if (b < -1 || b >= 4) {
        return InvalidArgument("graph node " + std::to_string(i) +
                               ": binding slot out of range");
      }
    }
    if (copy) {
      if (node.src_bytes != node.dst_bytes) {
        return InvalidArgument("graph node " + std::to_string(i) +
                               ": copy src/dst byte mismatch");
      }
      plan.copy_bytes += static_cast<Bytes>(node.src_bytes);
    } else {
      if (registry.find(node.kernel_id) == nullptr) {
        return InvalidArgument("graph node " + std::to_string(i) +
                               ": unknown kernel id " +
                               std::to_string(node.kernel_id));
      }
      if (read_span(node).overlaps(write_span(node))) {
        return InvalidArgument("graph node " + std::to_string(i) +
                               ": kernel in/out spans overlap");
      }
      plan.kernel_bytes +=
          static_cast<Bytes>(node.src_bytes + node.dst_bytes);
      plan.kernel_nodes += 1;
      const kernels::KernelStream* stream =
          registry.find_stream(node.kernel_id);
      plan.total_blocks +=
          (stream != nullptr && !has_bindings(node))
              ? static_cast<double>(stream->grid(node.params))
              : 1.0;
    }
  }

  // Race check: mutually unordered nodes (replayed concurrently, one
  // engine Group per level) must not touch conflicting spans. Reachability
  // via per-node ancestor bitsets over the topological order.
  const int words = (n + 63) / 64;
  std::vector<std::uint64_t> reach(static_cast<std::size_t>(n) * words, 0);
  for (int i = 0; i < n; ++i) {
    std::uint64_t* row = &reach[static_cast<std::size_t>(i) * words];
    for (int d = 0; d < nodes[i].dep_count; ++d) {
      const int dep = nodes[i].deps[d];
      row[dep / 64] |= 1ull << (dep % 64);
      const std::uint64_t* dep_row = &reach[static_cast<std::size_t>(dep) * words];
      for (int w = 0; w < words; ++w) row[w] |= dep_row[w];
    }
  }
  for (int j = 1; j < n; ++j) {
    const std::uint64_t* row = &reach[static_cast<std::size_t>(j) * words];
    for (int i = 0; i < j; ++i) {
      const bool ordered = (row[i / 64] >> (i % 64)) & 1;
      if (!ordered && conflicts(nodes[i], nodes[j])) {
        return InvalidArgument("graph nodes " + std::to_string(i) + " and " +
                               std::to_string(j) +
                               " are unordered but touch overlapping spans");
      }
    }
  }

  // Fusion chains: kernel -> kernel edges where the producer's sole
  // consumer is the consumer's sole dependency, both carry stream
  // descriptors, grids match, neither has replay bindings, and the
  // consumer reads what the producer wrote. Chains extend transitively.
  std::vector<int> fuse_prev(nodes.size(), -1);
  for (int i = 0; i + 1 < n; ++i) {
    const RtGraphNode& a = nodes[i];
    if (a.kind != static_cast<std::int32_t>(GraphNodeKind::kKernel)) continue;
    if (plan.consumers[i] != 1) continue;
    // Find the unique consumer.
    int j = -1;
    for (int k = i + 1; k < n && j < 0; ++k) {
      for (int d = 0; d < nodes[k].dep_count; ++d) {
        if (nodes[k].deps[d] == i) {
          j = k;
          break;
        }
      }
    }
    if (j < 0) continue;
    const RtGraphNode& b = nodes[j];
    if (b.kind != static_cast<std::int32_t>(GraphNodeKind::kKernel)) continue;
    if (b.dep_count != 1) continue;
    if (has_bindings(a) || has_bindings(b)) continue;
    const kernels::KernelStream* sa = registry.find_stream(a.kernel_id);
    const kernels::KernelStream* sb = registry.find_stream(b.kernel_id);
    if (sa == nullptr || sb == nullptr) continue;
    if (sa->grid(a.params) != sb->grid(b.params)) continue;
    // b must see a's output inside its input span.
    if (a.dst_offset < b.src_offset ||
        a.dst_offset + a.dst_bytes > b.src_offset + b.src_bytes) {
      continue;
    }
    // Fused shards run block ranges out of order, so only the
    // producer->consumer containment above is protected by the per-block
    // discipline. Any other overlap between b and a member already in the
    // chain — b writing bytes an earlier stage still reads, or b reading
    // bytes a non-adjacent stage writes — lets one shard clobber or
    // stale-read another's data, diverging from serial replay. Refuse.
    bool clobbers = false;
    for (int k = i; k >= 0; k = fuse_prev[k]) {
      if (write_span(b).overlaps(read_span(nodes[k])) ||
          (k != i && read_span(b).overlaps(write_span(nodes[k])))) {
        clobbers = true;
        break;
      }
    }
    if (clobbers) continue;
    plan.fuse_next[i] = j;
    fuse_prev[j] = i;
    plan.fused_tail[j] = 1;
  }

  graph.nodes = std::move(nodes);
  graph.hash = graph_hash(graph.nodes);
  return graph;
}

StatusOr<RtGraph> parse_graph(std::span<const std::byte> bytes,
                              const KernelRegistry& registry,
                              Bytes data_bytes) {
  if (bytes.size() < sizeof(RtGraphHeader)) {
    return InvalidArgument("graph upload shorter than its header");
  }
  RtGraphHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (header.magic != kGraphMagic) {
    return InvalidArgument("graph upload magic mismatch");
  }
  if (header.version != kGraphVersion) {
    return InvalidArgument("graph upload version mismatch");
  }
  if (header.node_count < 1 || header.node_count > kGraphMaxNodes) {
    return InvalidArgument("graph upload node count out of range");
  }
  const std::size_t want =
      sizeof(RtGraphHeader) +
      static_cast<std::size_t>(header.node_count) * sizeof(RtGraphNode);
  if (bytes.size() != want) {
    return InvalidArgument("graph upload size mismatch");
  }
  std::vector<RtGraphNode> nodes(static_cast<std::size_t>(header.node_count));
  std::memcpy(nodes.data(), bytes.data() + sizeof(RtGraphHeader),
              nodes.size() * sizeof(RtGraphNode));
  if (graph_hash(nodes) != header.hash) {
    return InvalidArgument("graph upload hash mismatch");
  }
  return plan_graph(std::move(nodes), registry, data_bytes);
}

}  // namespace vgpu::rt
