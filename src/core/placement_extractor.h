// Task placement extraction from an optimal flow (§6.3, Listing 1).
//
// Starting from machine nodes, machine identities are propagated backwards
// along incoming flow until they reach task nodes; flow through unscheduled
// aggregators marks tasks as unplaced. Because Firmament allows arbitrary
// aggregator chains, paths can be longer than in Quincy; the algorithm
// resolves each node once its full outgoing flow has been accounted for, so
// extraction is a single pass over the flow-carrying subgraph. That
// subgraph is gathered by one sequential pass over the arc array, which
// buckets the flow-carrying arcs by destination; no adjacency list is
// walked.

#ifndef SRC_CORE_PLACEMENT_EXTRACTOR_H_
#define SRC_CORE_PLACEMENT_EXTRACTOR_H_

#include <utility>
#include <vector>

#include "src/core/flow_graph_manager.h"
#include "src/core/types.h"

namespace firmament {

struct ExtractionResult {
  // (task, machine) for every task whose flow resolved to a destination,
  // each task exactly once; tasks routed through an unscheduled aggregator
  // map to kInvalidMachineId. Entries are in resolution order — the order
  // the backward propagation reaches the task nodes — which is a
  // deterministic function of the network's node and adjacency order.
  std::vector<std::pair<TaskId, MachineId>> placements;
};

// Extracts placements from the manager's (solved) flow network.
ExtractionResult ExtractPlacements(const FlowGraphManager& manager);

}  // namespace firmament

#endif  // SRC_CORE_PLACEMENT_EXTRACTOR_H_
