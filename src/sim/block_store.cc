#include "src/sim/block_store.h"

#include <algorithm>

#include "src/base/check.h"

namespace firmament {

namespace {

// Sorts (id, bytes) tallies by id and sums the entries of each id.
template <typename Id>
void MergeTallies(std::vector<std::pair<Id, int64_t>>* tallies) {
  std::sort(tallies->begin(), tallies->end());
  size_t out = 0;
  for (size_t i = 0; i < tallies->size(); ++i) {
    if (out > 0 && (*tallies)[out - 1].first == (*tallies)[i].first) {
      (*tallies)[out - 1].second += (*tallies)[i].second;
    } else {
      (*tallies)[out++] = (*tallies)[i];
    }
  }
  tallies->resize(out);
}

}  // namespace

std::vector<uint64_t> BlockStore::AllocateInput(int64_t bytes) {
  std::vector<uint64_t> ids;
  const std::vector<MachineDescriptor>& machines = cluster_->machines();
  CHECK(!machines.empty());
  std::vector<MachineId> alive;
  for (const MachineDescriptor& machine : machines) {
    if (machine.alive) {
      alive.push_back(machine.id);
    }
  }
  CHECK(!alive.empty());
  while (bytes > 0) {
    Block block;
    block.size = std::min(bytes, block_size_);
    bytes -= block.size;
    for (int r = 0; r < replication_ && r < static_cast<int>(alive.size()); ++r) {
      MachineId machine;
      do {
        machine = alive[rng_.NextUint64(alive.size())];
      } while (std::find(block.replicas.begin(), block.replicas.end(), machine) !=
               block.replicas.end());
      block.replicas.push_back(machine);
      machine_blocks_[machine].push_back(blocks_.size());
    }
    ids.push_back(blocks_.size());
    blocks_.push_back(std::move(block));
  }
  return ids;
}

void BlockStore::OnMachineRemoved(MachineId machine) {
  auto it = machine_blocks_.find(machine);
  if (it == machine_blocks_.end()) {
    return;
  }
  for (uint64_t id : it->second) {
    Block& block = blocks_[id];
    block.replicas.erase(std::remove(block.replicas.begin(), block.replicas.end(), machine),
                         block.replicas.end());
  }
  machine_blocks_.erase(it);
}

bool BlockStore::BlocksOnMachine(MachineId machine, std::vector<uint64_t>* out) const {
  auto it = machine_blocks_.find(machine);
  if (it != machine_blocks_.end()) {
    out->insert(out->end(), it->second.begin(), it->second.end());
  }
  return true;
}

int64_t BlockStore::BytesOnMachine(const TaskDescriptor& task, MachineId machine) const {
  int64_t bytes = 0;
  for (uint64_t id : task.input_blocks) {
    const Block& block = blocks_[id];
    if (std::find(block.replicas.begin(), block.replicas.end(), machine) !=
        block.replicas.end()) {
      bytes += block.size;
    }
  }
  return bytes;
}

int64_t BlockStore::BytesInRack(const TaskDescriptor& task, RackId rack) const {
  int64_t bytes = 0;
  for (uint64_t id : task.input_blocks) {
    const Block& block = blocks_[id];
    for (MachineId machine : block.replicas) {
      if (cluster_->RackOf(machine) == rack) {
        bytes += block.size;
        break;  // count each block once per rack
      }
    }
  }
  return bytes;
}

void BlockStore::CandidateMachines(const TaskDescriptor& task,
                                   std::vector<MachineId>* out) const {
  for (uint64_t id : task.input_blocks) {
    for (MachineId machine : blocks_[id].replicas) {
      out->push_back(machine);
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

void BlockStore::InputProfile(const TaskDescriptor& task, const ClusterState& cluster,
                              TaskInputProfile* out) const {
  (void)cluster;
  out->machines.clear();
  out->racks.clear();
  for (uint64_t id : task.input_blocks) {
    const Block& block = blocks_[id];
    for (size_t r = 0; r < block.replicas.size(); ++r) {
      const MachineId machine = block.replicas[r];
      out->machines.emplace_back(machine, block.size);
      // A block counts once per rack, however many replicas share it.
      const RackId rack = cluster_->RackOf(machine);
      bool counted = false;
      for (size_t q = 0; q < r && !counted; ++q) {
        counted = cluster_->RackOf(block.replicas[q]) == rack;
      }
      if (!counted) {
        out->racks.emplace_back(rack, block.size);
      }
    }
  }
  MergeTallies(&out->machines);
  MergeTallies(&out->racks);
}

}  // namespace firmament
