#include "src/core/placement_extractor.h"

#include <algorithm>
#include <vector>

#include "src/base/check.h"

namespace firmament {

ExtractionResult ExtractPlacements(const FlowGraphManager& manager) {
  const FlowNetwork& net = manager.network();
  const NodeId sink = manager.sink();
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
  std::vector<Slice> slices(net.NodeCapacity());
  std::vector<MachineId> arena;
  // FIFO of resolved nodes; every node enters it at most once.
  std::vector<NodeId> resolved;
  resolved.reserve(net.ValidNodes().size());

  for (NodeId node : net.ValidNodes()) {
    if (node == sink) {
      continue;
    }
    int64_t outflow = 0;
    int64_t to_sink = 0;
    for (ArcRef ref : net.Adjacency(node)) {
      if (FlowNetwork::RefIsReverse(ref)) {
        continue;
      }
      ArcId arc = FlowNetwork::RefArc(ref);
      int64_t flow = net.Flow(arc);
      if (flow <= 0) {
        continue;
      }
      outflow += flow;
      if (net.Dst(arc) == sink) {
        to_sink += flow;
      }
    }
    if (outflow == 0) {
      continue;
    }
    // Flow into the sink resolves immediately: a machine delivers its own
    // identity, an unscheduled aggregator delivers "unplaced". The rest of
    // the slice is overwritten as downstream nodes resolve.
    MachineId self = to_sink > 0 && net.Kind(node) == NodeKind::kMachine
                         ? manager.MachineForNode(node)
                         : kInvalidMachineId;
    Slice& slice = slices[node];
    slice.begin = arena.size();
    slice.fill = to_sink;
    slice.pending = outflow - to_sink;
    arena.resize(arena.size() + static_cast<size_t>(outflow), self);
    if (slice.pending == 0) {
      resolved.push_back(node);
    }
  }

  // Propagate destinations backwards along incoming flow (Listing 1).
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
    for (ArcRef ref : net.Adjacency(node)) {
      if (!FlowNetwork::RefIsReverse(ref)) {
        continue;  // outgoing
      }
      ArcId arc = FlowNetwork::RefArc(ref);
      int64_t flow = net.Flow(arc);
      if (flow <= 0) {
        continue;
      }
      // Move `flow` destinations to the incoming arc's source (Listing 1
      // lines 12-15). For an optimal flow the slice always suffices; for
      // approximate, infeasible pseudoflows (§5.1) nodes with unrouted
      // excess simply deliver fewer destinations, leaving their upstream
      // tasks unplaced.
      Slice& up = slices[net.Src(arc)];
      int64_t moved = std::min(flow, static_cast<int64_t>(end - cursor));
      std::copy_n(arena.begin() + static_cast<ptrdiff_t>(cursor), moved,
                  arena.begin() + static_cast<ptrdiff_t>(up.begin + up.fill));
      cursor += static_cast<size_t>(moved);
      up.fill += moved;
      up.pending -= moved;
      if (up.pending == 0) {
        resolved.push_back(net.Src(arc));
      }
    }
  }
  return result;
}

}  // namespace firmament
