#include "src/core/placement_extractor.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/base/check.h"

namespace firmament {

ExtractionResult ExtractPlacements(const FlowGraphManager& manager) {
  const FlowNetwork& net = manager.network();
  const NodeId sink = manager.sink();
  const NodeId node_bound = net.NodeCapacity();
  ExtractionResult result;
  result.placements.reserve(manager.num_task_nodes());

  // Node v's destinations — the machine ids (kInvalidMachineId =
  // unscheduled) that its outgoing flow ultimately reaches — occupy
  // arena[begin, begin + outflow(v)). The first `fill` are known; v resolves
  // once the `pending` remainder of its outflow has been delivered.
  struct Slice {
    size_t begin = 0;
    int64_t fill = 0;
    int64_t pending = 0;
  };
  // A flow-carrying arc into a bucket's node: its source, its flow, and its
  // position in the node's adjacency (the order Listing 1 visits it in).
  struct InArc {
    uint32_t pos;
    NodeId src;
    int64_t flow;
  };
  std::vector<Slice> slices(node_bound);
  // Bucket v holds in_arcs[bucket[v], bucket[v + 1]); the counts start at
  // bucket[v + 2] so the scatter below leaves each bucket's begin in place.
  std::vector<uint32_t> bucket(static_cast<size_t>(node_bound) + 2, 0);
  size_t total_flow = 0;

  // One sequential pass over the arc array compacts the ids of the arcs
  // carrying flow; it is branch-free because those arcs are interleaved with
  // the rest, so a per-arc branch would mispredict often. A pass over the
  // flow arcs then sums each node's outflow (in pending) and flow to the
  // sink (in fill), and counts the arcs into every other node per
  // destination; the scatter fills the buckets from them.
  const ArcId arc_bound = net.ArcCapacityBound();
  // Written before read, so left uninitialized (a vector would zero it).
  std::unique_ptr<ArcId[]> carrying(new ArcId[arc_bound]);
  size_t carrying_count = 0;
  for (ArcId arc = 0; arc < arc_bound; ++arc) {
    carrying[carrying_count] = arc;
    carrying_count += static_cast<size_t>(net.Flow(arc) > 0);
  }
  size_t kept = 0;
  for (size_t i = 0; i < carrying_count; ++i) {
    const ArcId arc = carrying[i];
    if (!net.IsValidArc(arc)) {
      continue;
    }
    const int64_t flow = net.Flow(arc);
    const NodeId src = net.Src(arc);
    const NodeId dst = net.Dst(arc);
    Slice& slice = slices[src];
    slice.pending += flow;
    total_flow += static_cast<size_t>(flow);
    if (dst == sink) {
      slice.fill += flow;
    } else {
      carrying[kept++] = arc;
      ++bucket[static_cast<size_t>(dst) + 2];
    }
  }
  for (size_t i = 2; i < bucket.size(); ++i) {
    bucket[i] += bucket[i - 1];
  }
  std::vector<InArc> in_arcs(kept);
  for (size_t i = 0; i < kept; ++i) {
    const ArcId arc = carrying[i];
    in_arcs[bucket[static_cast<size_t>(net.Dst(arc)) + 1]++] =
        InArc{net.PosInDst(arc), net.Src(arc), net.Flow(arc)};
  }

  std::vector<MachineId> arena;
  arena.reserve(total_flow);
  // FIFO of resolved nodes; every node enters it at most once.
  std::vector<NodeId> resolved;
  resolved.reserve(net.ValidNodes().size());
  for (NodeId node : net.ValidNodes()) {
    Slice& slice = slices[node];
    const int64_t outflow = slice.pending;
    if (node == sink || outflow == 0) {
      continue;
    }
    // Flow into the sink resolves immediately: a machine delivers its own
    // identity, an unscheduled aggregator delivers "unplaced". The rest of
    // the slice is overwritten as downstream nodes resolve.
    MachineId self = slice.fill > 0 && net.Kind(node) == NodeKind::kMachine
                         ? manager.MachineForNode(node)
                         : kInvalidMachineId;
    slice.begin = arena.size();
    slice.pending = outflow - slice.fill;
    arena.resize(arena.size() + static_cast<size_t>(outflow), self);
    if (slice.pending == 0) {
      resolved.push_back(node);
    }
  }

  // Propagate destinations backwards along incoming flow (Listing 1), in
  // the order a walk over the node's adjacency would meet its in-arcs: by
  // sorting the bucket when it is short or a small share of the adjacency
  // (a machine's few flow arcs among its preference arcs), by indexing it
  // by position when it is a large share (the cluster aggregator, where
  // most incoming arcs carry flow). Each node resolves once, so each bucket
  // is ordered once.
  constexpr size_t kSortUpTo = 16;
  constexpr size_t kPlaceFactor = 8;
  std::vector<uint32_t> at_pos;
  std::vector<uint32_t> order;
  for (size_t next = 0; next < resolved.size(); ++next) {
    NodeId node = resolved[next];
    const size_t begin = slices[node].begin;
    const size_t end = begin + static_cast<size_t>(slices[node].fill);
    TaskId task =
        net.Kind(node) == NodeKind::kTask ? manager.TaskForNode(node) : kInvalidTaskId;
    if (task != kInvalidTaskId) {
      CHECK_GT(end, begin);
      result.placements.emplace_back(task, arena[end - 1]);
      continue;
    }
    size_t cursor = begin;
    auto deliver = [&](const InArc& in) {
      // Move `flow` destinations to the incoming arc's source (Listing 1
      // lines 12-15). For an optimal flow the slice always suffices; for
      // approximate, infeasible pseudoflows (§5.1) nodes with unrouted
      // excess simply deliver fewer destinations, leaving their upstream
      // tasks unplaced.
      Slice& up = slices[in.src];
      int64_t moved = std::min(in.flow, static_cast<int64_t>(end - cursor));
      std::copy_n(arena.begin() + static_cast<ptrdiff_t>(cursor), moved,
                  arena.begin() + static_cast<ptrdiff_t>(up.begin + up.fill));
      cursor += static_cast<size_t>(moved);
      up.fill += moved;
      up.pending -= moved;
      if (up.pending == 0) {
        resolved.push_back(in.src);
      }
    };
    InArc* first = in_arcs.data() + bucket[node];
    InArc* last = in_arcs.data() + bucket[static_cast<size_t>(node) + 1];
    const size_t count = static_cast<size_t>(last - first);
    const size_t degree = net.Adjacency(node).size();
    if (count <= kSortUpTo || degree > kPlaceFactor * count) {
      std::sort(first, last, [](const InArc& a, const InArc& b) { return a.pos < b.pos; });
      std::for_each(first, last, deliver);
      continue;
    }
    // Positions without a flow arc map to the sentinel `count`; compacting
    // the position index into `order` then needs no branch on them, and
    // stops once every entry is placed.
    const uint32_t none = static_cast<uint32_t>(count);
    at_pos.assign(degree, none);
    for (uint32_t i = 0; i < none; ++i) {
      at_pos[first[i].pos] = i;
    }
    order.resize(count);
    for (size_t pos = 0, filled = 0; filled < count; ++pos) {
      order[filled] = at_pos[pos];
      filled += static_cast<size_t>(at_pos[pos] != none);
    }
    for (uint32_t i : order) {
      deliver(first[i]);
    }
  }
  return result;
}

}  // namespace firmament
