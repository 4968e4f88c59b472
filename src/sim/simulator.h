// Discrete-event cluster simulator ("Fauxmaster"-style, §7.1).
//
// Runs the real Firmament scheduler code — graph manager, policies, racing
// MCMF solver, placement extraction — against simulated machines and task
// executions. The solver's measured wall-clock runtime is charged to the
// simulated clock, reproducing the Fig. 2b feedback loop: while a long
// solver run is in flight, arrivals and completions accumulate and wait for
// the next round, which is exactly how oversubscription spirals (Fig. 16)
// and placement-latency tails (Figs. 14, 18) arise.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <queue>
#include <unordered_map>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/service_clock.h"
#include "src/core/scheduler.h"
#include "src/sim/block_store.h"
#include "src/sim/fault_injector.h"
#include "src/sim/trace_generator.h"

namespace firmament {

struct SimulatorParams {
  SimTime duration = 60 * kMicrosPerSecond;
  // Multiplier applied to the measured solver wall time before charging it
  // to the simulated clock (1.0 = faithful to this host).
  double solver_charge_scale = 1.0;
  // Minimum gap between round starts; batches events the way a busy solver
  // does at full scale. 0 = rounds may start back-to-back.
  SimTime min_round_interval = 100'000;  // 100 ms
};

// One scheduling round in the Fig. 16-style time series.
struct RoundLogEntry {
  SimTime start = 0;
  double solve_seconds = 0;
  size_t placed = 0;
};

struct SimulationMetrics {
  // Submission -> placement per placed task, 0 for template installs
  // (Fig. 14 / Fig. 18 metric).
  Distribution placement_latency_seconds;
  // Solver wall time per started round (Fig. 3 / Fig. 7 metric).
  Distribution algorithm_runtime_seconds;
  // Per-round graph-update cost (Fig. 2b's total minus algorithm slice);
  // stays flat under the delta-driven policy API as the cluster grows.
  Distribution graph_update_seconds;
  Distribution batch_task_response_seconds;
  Distribution batch_job_response_seconds;  // Fig. 17 metric
  size_t tasks_completed = 0;
  size_t tasks_placed = 0;
  size_t tasks_preempted = 0;
  size_t tasks_migrated = 0;
  size_t rounds = 0;
  // Fault-injection accounting (zero unless a FaultInjector is attached).
  size_t machines_crashed = 0;
  size_t tasks_killed = 0;
  size_t tasks_resubmitted = 0;
  size_t deltas_dropped = 0;  // mid-round machine deaths invalidating deltas
  size_t recovery_actions = 0;
  std::vector<RoundLogEntry> round_log;
};

class ClusterSimulator {
 public:
  // `block_store` is optional; when present, batch task inputs are
  // materialized as replicated blocks to drive the Quincy policy.
  ClusterSimulator(FirmamentScheduler* scheduler, ClusterState* cluster,
                   BlockStore* block_store, SimulatorParams params);

  ClusterSimulator(const ClusterSimulator&) = delete;
  ClusterSimulator& operator=(const ClusterSimulator&) = delete;

  // Loads job arrivals (must be called before Run).
  void LoadTrace(std::vector<TraceJobSpec> jobs);

  // Attaches a fault injector (must be called before Run; optional). The
  // injector's background schedule is materialized over the simulation
  // duration at Run() start; mid-round crashes are rolled per round.
  void SetFaultInjector(FaultInjector* injector) { fault_injector_ = injector; }

  // Runs the simulation to completion and returns the collected metrics.
  SimulationMetrics Run();

  // The simulation's time source: Run() advances it to each event's
  // timestamp before dispatching, and every handler reads it instead of
  // threading a `now` parameter through the call chain. Shared with any
  // component (e.g. a SchedulerService) that needs the simulated time.
  const ManualServiceClock& clock() const { return clock_; }

 private:
  enum class EventKind : uint8_t {
    kApplyRound = 0,  // lowest value = processed first at equal times
    kRoundTimer = 1,
    kTaskCompletion = 2,
    kJobArrival = 3,
    kFault = 4,          // payload = index into fault_schedule_
    kFaultResubmit = 5,  // payload = index into resubmits_
  };
  struct Event {
    SimTime time = 0;
    EventKind kind = EventKind::kApplyRound;
    uint64_t seq = 0;  // FIFO tiebreak
    uint64_t payload = 0;
    uint64_t epoch = 0;  // completion validity (placement generation)

    bool operator>(const Event& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      if (kind != other.kind) {
        return kind > other.kind;
      }
      return seq > other.seq;
    }
  };

  void Push(SimTime time, EventKind kind, uint64_t payload = 0, uint64_t epoch = 0);
  void HandleJobArrival(size_t job_index);
  // Runs the tasks a template install placed at submit time, the way
  // HandleApplyRound runs a round's placements.
  void StartInstalledTasks(const TemplateInstallResult& install);
  void HandleCompletion(TaskId task, uint64_t epoch);
  void HandleApplyRound();
  void MaybeStartRound();
  void HandleFault(size_t index);
  void HandleFaultResubmit(size_t index);
  void CrashMachine(MachineId machine);

  FirmamentScheduler* scheduler_;
  ClusterState* cluster_;
  BlockStore* block_store_;
  SimulatorParams params_;
  ManualServiceClock clock_;

  std::vector<TraceJobSpec> trace_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  uint64_t next_seq_ = 0;
  bool solver_busy_ = false;
  bool pending_work_ = false;
  bool timer_scheduled_ = false;
  SimTime last_round_start_ = 0;
  bool any_round_started_ = false;
  SimTime round_start_time_ = 0;

  // Fault injection (optional). A killed task's lineage is resubmitted as a
  // fresh single-task job after a capped exponential backoff; kill_counts_
  // carries the lineage's kill count onto the resubmitted TaskId.
  FaultInjector* fault_injector_ = nullptr;
  std::vector<FaultSpec> fault_schedule_;
  struct ResubmitSpec {
    SimTime runtime = 0;
    int64_t input_bytes = 0;
    int64_t bandwidth_mbps = 0;
    int attempt = 1;  // kills suffered by the lineage so far
  };
  std::vector<ResubmitSpec> resubmits_;
  std::unordered_map<TaskId, int> kill_counts_;

  std::unordered_map<TaskId, uint64_t> placement_epoch_;
  struct JobTracking {
    SimTime submit = 0;
    size_t remaining = 0;
    JobType type = JobType::kBatch;
  };
  std::unordered_map<JobId, JobTracking> job_tracking_;

  SimulationMetrics metrics_;
};

}  // namespace firmament

#endif  // SRC_SIM_SIMULATOR_H_
