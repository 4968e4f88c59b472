// Data-locality oracle consumed by the Quincy policy (Fig. 6b).
//
// Abstracted so the policy can be driven either by the simulated HDFS-like
// block store (src/sim/block_store.*) or by any other metadata source.

#ifndef SRC_CORE_DATA_LOCALITY_H_
#define SRC_CORE_DATA_LOCALITY_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/types.h"

namespace firmament {

// Where a task's input lives, tallied per machine and per rack: everything
// the Quincy policy prices preference arcs from.
struct TaskInputProfile {
  // (machine, bytes on it) for every candidate machine, ascending by id.
  std::vector<std::pair<MachineId, int64_t>> machines;
  // (rack, bytes anywhere in it) for every rack holding any of the input,
  // ascending by id.
  std::vector<std::pair<RackId, int64_t>> racks;
};

class DataLocalityInterface {
 public:
  virtual ~DataLocalityInterface() = default;

  // Bytes of `task`'s input stored on `machine`.
  virtual int64_t BytesOnMachine(const TaskDescriptor& task, MachineId machine) const = 0;
  // Bytes of `task`'s input stored anywhere within `rack`.
  virtual int64_t BytesInRack(const TaskDescriptor& task, RackId rack) const = 0;
  // Machines holding at least one block of `task`'s input — the candidate
  // targets for preference arcs.
  virtual void CandidateMachines(const TaskDescriptor& task,
                                 std::vector<MachineId>* out) const = 0;
  // Fills `out` (cleared first) with the per-machine and per-rack byte
  // tallies of `task`'s input: one entry per candidate machine and one per
  // rack of a candidate machine, each list ascending by id. Equivalent to
  // CandidateMachines followed by BytesOnMachine / BytesInRack on every
  // entry — which is exactly what this default does, so sources that only
  // answer the per-machine queries keep working. Sources that can tally
  // the input in one pass (BlockStore) override it: the per-entry queries
  // rescan the whole input each time.
  virtual void InputProfile(const TaskDescriptor& task, const ClusterState& cluster,
                            TaskInputProfile* out) const {
    out->machines.clear();
    out->racks.clear();
    std::vector<MachineId> candidates;
    CandidateMachines(task, &candidates);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
    for (MachineId machine : candidates) {
      out->machines.emplace_back(machine, BytesOnMachine(task, machine));
      out->racks.emplace_back(cluster.RackOf(machine), 0);
    }
    std::sort(out->racks.begin(), out->racks.end());
    out->racks.erase(std::unique(out->racks.begin(), out->racks.end()), out->racks.end());
    for (auto& [rack, bytes] : out->racks) {
      bytes = BytesInRack(task, rack);
    }
  }
  // Appends the blocks with a replica currently on `machine` and returns
  // true. Feeds the Quincy policy's block -> task reverse index: on a
  // machine removal, only tasks reading one of these blocks can see their
  // preference/transfer costs move, so only they (and their equivalence
  // classes) are dirtied — not the whole task set. Must be queried BEFORE
  // the store itself drops the machine's replicas (the policy's
  // OnMachineRemoved hook runs first; see FirmamentScheduler::RemoveMachine
  // ordering). Sources without a reverse replica index keep the default and
  // return false; the policy then falls back to dirtying every task.
  virtual bool BlocksOnMachine(MachineId machine, std::vector<uint64_t>* out) const {
    (void)machine;
    (void)out;
    return false;
  }
};

}  // namespace firmament

#endif  // SRC_CORE_DATA_LOCALITY_H_
