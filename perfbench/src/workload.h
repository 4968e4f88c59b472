// What a workload run returns, and the per-round accumulator the three
// workloads share.

#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/scheduler.h"
#include "src/stats.h"
#include "src/tracer.h"

namespace perfbench {

struct WorkloadConfig {
  uint64_t seed = 1;
  double seconds = 10;     // measured window
  bool tiny = false;       // smoke-test sizes
  int setup_reps = 9;      // set-ups timed; the last one is measured
  bool break_output = false;  // self-test: corrupt state before the checks
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  // 0 = not a sampled figure
};

struct WorkloadResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // filled by every run; reported when traced
  uint64_t attempted = 0;         // tasks submitted in the measured window
  uint64_t failed = 0;            // unplaced at the end + events lost
  std::vector<std::string> check_failures;
  std::vector<std::string> notes;  // extra report lines (stage tables, ...)
  std::vector<Span> spans;         // traced runs only
};

// Per-round fields read from SchedulerRoundResult / SolveStats /
// UpdateRoundStats, accumulated over the measured window.
struct RoundAccumulator {
  std::vector<double> update_ms;
  std::vector<double> solve_ms;
  std::vector<double> view_prep_ms;
  std::vector<double> start_ms;  // StartRound (update + solve when not measured)
  std::vector<double> apply_ms;  // ApplyRound (total_runtime_us when not measured)
  uint64_t rounds = 0;
  uint64_t patched_views = 0;
  uint64_t relaxation_wins = 0;
  uint64_t degraded = 0;
  uint64_t iterations = 0;
  uint64_t deltas = 0;
  uint64_t preemptions = 0;
  uint64_t migrations = 0;
  uint64_t class_hits = 0;
  uint64_t class_misses = 0;
  uint64_t tasks_refreshed = 0;
  double busy_ms = 0;  // update + solve + apply

  // `start_ms`/`apply_ms` are spans measured around StartRound/ApplyRound;
  // negative means the round ran inside the service and they come from the
  // result fields instead.
  void Add(const firmament::SchedulerRoundResult& result, double start_ms = -1,
           double apply_ms = -1);
  void AddUpdateStats(const firmament::UpdateRoundStats& stats);
  // Appends the graph/view/solver/round per-layer metrics.
  void Report(std::vector<Metric>* out) const;
};

// Peak resident memory so far (VmHWM), in MB.
double PeakRssMb();

// Takes the peak-RSS reading once the run has placed `budget` tasks in
// its measured window, so the figure compares equal amounts of work
// whatever the program's speed (the program keeps per-task samples, so its
// memory grows with tasks done). A run that never gets there reads at the
// end of the window.
class RssAtBudget {
 public:
  explicit RssAtBudget(uint64_t budget) : budget_(budget) {}
  void Observe(uint64_t placed) {
    if (mb_ == 0 && placed >= budget_) {
      mb_ = PeakRssMb();
    }
  }
  double Read() {
    if (mb_ == 0) {
      mb_ = PeakRssMb();
    }
    return mb_;
  }

 private:
  uint64_t budget_;
  double mb_ = 0;
};

// Runs `set_up` (returning a std::unique_ptr) `reps` times and returns the
// last environment; `tear_down` runs on each earlier one outside the
// timing. Appends the seconds of every set-up to `seconds`.
template <typename SetUp, typename TearDown>
auto TimedSetUps(int reps, SetUp set_up, TearDown tear_down, std::vector<double>* seconds) {
  decltype(set_up()) env;
  for (int rep = 0; rep < reps; ++rep) {
    if (env != nullptr) {
      tear_down(env.get());
      env.reset();
    }
    const int64_t start = NowNs();
    env = set_up();
    seconds->push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return env;
}

// CPU time of the thread that calls Sample() as a share of the wall time
// between its first and last call. Sampled from the service's on_round
// callback it tells how busy the loop thread is; the loop blocks when it
// has no work, so idle time does not count.
class ThreadCpuShare {
 public:
  void Sample(int64_t wall_ns);
  double Share() const;

 private:
  int64_t first_wall_ns_ = -1;
  int64_t first_cpu_ns_ = 0;
  int64_t last_wall_ns_ = 0;
  int64_t last_cpu_ns_ = 0;
};

// fig22's pairwise-collision cost: the sum over alive machines of
// n(n-1)/2 for n running tasks.
double SpreadCost(const firmament::ClusterState& cluster);

// Child spans of `parent` for the round phases the result fields time:
// graph.update, then solver.solve with view.prep at its start, laid out
// from `start_ns`. `cells` divides the fields of a merged federated round
// (sums over cells that ran concurrently) into per-cell means.
void AddSolvePhaseSpans(Tracer* tracer, const firmament::SchedulerRoundResult& result,
                        uint64_t parent, uint64_t key, int64_t start_ns, int64_t cells = 1);

// Service workloads, traced runs: splits each linked task's latency into
// stages from result->spans, reports the admit_wait and round_queue
// percentiles, and prints and reports the p50/p99 reconciliation.
void ReportStages(const std::vector<TaskLink>& links, WorkloadResult* result);

// Checks every round must pass: optimal, or declared degraded.
void CheckRoundOutcome(const firmament::SchedulerRoundResult& result,
                       std::vector<std::string>* failures);

// The layer self-time table of a traced run, as per-layer metrics
// "<layer>.self_ms" for the layers listed, plus a printed table.
void ReportSelfTime(const std::vector<Span>& spans, double wall_ms, WorkloadResult* result);

WorkloadResult RunReplaySteady(const WorkloadConfig& config, Tracer* tracer);
WorkloadResult RunLocalityBurst(const WorkloadConfig& config, Tracer* tracer);
WorkloadResult RunFederatedSaturated(const WorkloadConfig& config, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
