#include "src/checks.h"

#include <unordered_map>

#include "src/core/integrity_checker.h"

namespace perfbench {

using firmament::ClusterState;
using firmament::MachineDescriptor;
using firmament::MachineId;
using firmament::TaskId;
using firmament::TaskState;

void CheckClusterInvariants(const ClusterState& cluster, const std::string& where,
                            std::vector<std::string>* failures) {
  std::unordered_map<MachineId, int32_t> running;
  for (TaskId task : cluster.LiveTasks()) {
    const auto& desc = cluster.task(task);
    if (desc.state != TaskState::kRunning) {
      continue;
    }
    if (desc.machine >= cluster.machines().size() || !cluster.machine(desc.machine).alive) {
      failures->push_back(where + ": task " + std::to_string(task) +
                          " runs on dead or unknown machine " + std::to_string(desc.machine));
      continue;
    }
    ++running[desc.machine];
  }
  for (const MachineDescriptor& machine : cluster.machines()) {
    const int32_t n = running.count(machine.id) != 0 ? running[machine.id] : 0;
    if (n > machine.spec.slots) {
      failures->push_back(where + ": machine " + std::to_string(machine.id) + " runs " +
                          std::to_string(n) + " tasks on " +
                          std::to_string(machine.spec.slots) + " slots");
    }
    if (machine.alive && n != machine.running_tasks) {
      failures->push_back(where + ": machine " + std::to_string(machine.id) + " counts " +
                          std::to_string(machine.running_tasks) + " running tasks, has " +
                          std::to_string(n));
    }
  }
}

void CheckIntegrity(ClusterState* cluster, firmament::FlowGraphManager* manager,
                    const std::string& where, std::vector<std::string>* failures) {
  firmament::IntegrityChecker checker(cluster, manager);
  firmament::IntegrityReport report = checker.Check();
  for (const std::string& violation : report.violations) {
    failures->push_back(where + ": integrity: " + violation);
  }
}

void CheckConservation(const std::string& where, uint64_t submitted, uint64_t placed,
                       uint64_t waiting, uint64_t failed, std::vector<std::string>* failures) {
  if (placed + waiting + failed != submitted) {
    failures->push_back(where + ": conservation: placed " + std::to_string(placed) +
                        " + waiting " + std::to_string(waiting) + " + failed " +
                        std::to_string(failed) + " != submitted " + std::to_string(submitted));
  }
}

void CheckEqual(const std::string& what, uint64_t expected, uint64_t actual,
                std::vector<std::string>* failures) {
  if (expected != actual) {
    failures->push_back(what + ": expected " + std::to_string(expected) + ", got " +
                        std::to_string(actual));
  }
}

void BreakForSelfTest(ClusterState* cluster) {
  for (const MachineDescriptor& machine : cluster->machines()) {
    if (machine.alive) {
      MachineDescriptor& broken = cluster->mutable_machine(machine.id);
      broken.running_tasks = broken.spec.slots + 1;
      return;
    }
  }
}

}  // namespace perfbench
