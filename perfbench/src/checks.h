// Output checks run after the measured window, outside the timed region.
// Each appends one line per violation to `failures`; a run with any
// failure reports the failures instead of numbers.

#ifndef PERFBENCH_SRC_CHECKS_H_
#define PERFBENCH_SRC_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/flow_graph_manager.h"

namespace perfbench {

// No machine runs more tasks than it has slots, no running task sits on a
// dead machine, and each machine's running count matches its tasks.
void CheckClusterInvariants(const firmament::ClusterState& cluster, const std::string& where,
                            std::vector<std::string>* failures);

// IntegrityChecker::Check() across cluster, graph and class cache.
void CheckIntegrity(firmament::ClusterState* cluster, firmament::FlowGraphManager* manager,
                    const std::string& where, std::vector<std::string>* failures);

// Every submitted task is accounted for exactly once:
// placed + still waiting + failed == submitted.
void CheckConservation(const std::string& where, uint64_t submitted, uint64_t placed,
                       uint64_t waiting, uint64_t failed, std::vector<std::string>* failures);

// A named equality between two counts (e.g. the benchmark's own tally and
// the program's counter).
void CheckEqual(const std::string& what, uint64_t expected, uint64_t actual,
                std::vector<std::string>* failures);

// For the benchmark's self-test: books one phantom running task beyond its
// slots on the first alive machine, which the checks above must report.
void BreakForSelfTest(firmament::ClusterState* cluster);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHECKS_H_
