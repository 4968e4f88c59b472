// Calibration probe: how much ALU and memory capacity the machine gave the
// run. Taken before and after every workload so that a run slowed by
// contention (noisy neighbours) can be told apart from a slow program.

#ifndef PERFBENCH_SRC_PROBE_H_
#define PERFBENCH_SRC_PROBE_H_

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct ProbeResult {
  double alu_1c_gops = 0;    // integer mix operations, one thread
  double alu_all_gops = 0;   // summed over one thread per core
  double mem_bw_1c_gbs = 0;  // streaming read bandwidth, one thread
  double mem_bw_all_gbs = 0;
  double mem_lat_1c_ns = 0;  // dependent random loads, one thread
  double mem_lat_all_ns = 0; // mean over one chasing thread per core
  int threads = 0;

  std::vector<std::pair<std::string, double>> Fields() const;
};

// `small` shrinks the kernels for smoke runs.
ProbeResult RunProbe(bool small);

// Largest relative change of any field between two probes.
double ProbeDrift(const ProbeResult& before, const ProbeResult& after);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBE_H_
