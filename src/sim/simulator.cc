#include "src/sim/simulator.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/base/check.h"

namespace firmament {

ClusterSimulator::ClusterSimulator(FirmamentScheduler* scheduler, ClusterState* cluster,
                                   BlockStore* block_store, SimulatorParams params)
    : scheduler_(scheduler), cluster_(cluster), block_store_(block_store), params_(params) {}

void ClusterSimulator::LoadTrace(std::vector<TraceJobSpec> jobs) {
  trace_ = std::move(jobs);
  for (size_t i = 0; i < trace_.size(); ++i) {
    Push(trace_[i].arrival, EventKind::kJobArrival, i);
  }
}

void ClusterSimulator::Push(SimTime time, EventKind kind, uint64_t payload, uint64_t epoch) {
  Event event;
  event.time = time;
  event.kind = kind;
  event.seq = next_seq_++;
  event.payload = payload;
  event.epoch = epoch;
  events_.push(event);
}

void ClusterSimulator::HandleJobArrival(size_t job_index) {
  const SimTime now = clock_.Now();
  const TraceJobSpec& spec = trace_[job_index];
  std::vector<TaskDescriptor> tasks(spec.task_runtimes.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].runtime = spec.task_runtimes[i];
    tasks[i].input_size_bytes = spec.task_input_bytes[i];
    tasks[i].bandwidth_request_mbps = spec.task_bandwidth_mbps[i];
    if (block_store_ != nullptr && spec.task_input_bytes[i] > 0) {
      tasks[i].input_blocks = block_store_->AllocateInput(spec.task_input_bytes[i]);
    }
  }
  TemplateInstallResult install;
  JobId job = scheduler_->SubmitJob(spec.type, spec.priority, std::move(tasks), now, &install);
  JobTracking tracking;
  tracking.submit = now;
  tracking.remaining = spec.task_runtimes.size();
  tracking.type = spec.type;
  job_tracking_.emplace(job, tracking);
  if (install.installed) {
    // Template hit: the job is already placed. No round work is created
    // for this job.
    StartInstalledTasks(install);
    return;
  }
  pending_work_ = true;
}

void ClusterSimulator::StartInstalledTasks(const TemplateInstallResult& install) {
  const SimTime now = clock_.Now();
  for (const SchedulingDelta& delta : install.deltas) {
    CHECK(delta.kind == SchedulingDelta::Kind::kPlace);
    uint64_t epoch = ++placement_epoch_[delta.task];
    Push(now + cluster_->task(delta.task).runtime, EventKind::kTaskCompletion, delta.task, epoch);
    metrics_.placement_latency_seconds.Add(0.0);
    ++metrics_.tasks_placed;
  }
}

void ClusterSimulator::HandleCompletion(TaskId task, uint64_t epoch) {
  const SimTime now = clock_.Now();
  auto it = placement_epoch_.find(task);
  if (it == placement_epoch_.end() || it->second != epoch) {
    return;  // stale: the task was preempted or migrated since this was set
  }
  const TaskDescriptor& desc = cluster_->task(task);
  CHECK(desc.state == TaskState::kRunning);
  JobId job = desc.job;
  SimTime submit = job_tracking_[job].submit;
  metrics_.batch_task_response_seconds.Add(static_cast<double>(now - submit) / 1e6);
  scheduler_->CompleteTask(task, now);
  placement_epoch_.erase(it);
  ++metrics_.tasks_completed;

  JobTracking& tracking = job_tracking_[job];
  CHECK_GT(tracking.remaining, 0u);
  if (--tracking.remaining == 0 && tracking.type == JobType::kBatch) {
    metrics_.batch_job_response_seconds.Add(static_cast<double>(now - tracking.submit) / 1e6);
    job_tracking_.erase(job);
  }
  pending_work_ = true;
}

void ClusterSimulator::HandleApplyRound() {
  const SimTime now = clock_.Now();
  SchedulerRoundResult result = scheduler_->ApplyRound(now);
  for (const SchedulingDelta& delta : result.deltas) {
    if (delta.kind == SchedulingDelta::Kind::kPlace) {
      const double waited = static_cast<double>(now - cluster_->task(delta.task).submit_time);
      metrics_.placement_latency_seconds.Add(waited / 1e6);
    }
    switch (delta.kind) {
      case SchedulingDelta::Kind::kPlace:
      case SchedulingDelta::Kind::kMigrate: {
        uint64_t epoch = ++placement_epoch_[delta.task];
        // Migration restarts the task (conservative: the moved task redoes
        // its work, as a preempted-and-restarted batch task would).
        Push(now + cluster_->task(delta.task).runtime, EventKind::kTaskCompletion, delta.task,
             epoch);
        break;
      }
      case SchedulingDelta::Kind::kPreempt:
        ++placement_epoch_[delta.task];  // invalidate any pending completion
        break;
    }
  }
  metrics_.tasks_placed += result.tasks_placed;
  metrics_.tasks_preempted += result.tasks_preempted;
  metrics_.tasks_migrated += result.tasks_migrated;
  metrics_.deltas_dropped += result.deltas_dropped;
  metrics_.recovery_actions += result.recovery_actions.size();
  metrics_.graph_update_seconds.Add(static_cast<double>(result.graph_update_us) / 1e6);

  RoundLogEntry entry;
  entry.start = round_start_time_;
  entry.solve_seconds = static_cast<double>(result.algorithm_runtime_us) / 1e6;
  entry.placed = result.tasks_placed;
  metrics_.round_log.push_back(entry);
  ++metrics_.rounds;

  solver_busy_ = false;
  if (result.tasks_preempted > 0) {
    pending_work_ = true;  // preempted tasks want re-placement
  }
  MaybeStartRound();
}

void ClusterSimulator::MaybeStartRound() {
  const SimTime now = clock_.Now();
  if (solver_busy_ || !pending_work_) {
    return;
  }
  if (params_.min_round_interval > 0 && any_round_started_ &&
      now < last_round_start_ + params_.min_round_interval) {
    if (!timer_scheduled_) {
      timer_scheduled_ = true;
      Push(last_round_start_ + params_.min_round_interval, EventKind::kRoundTimer);
    }
    return;
  }
  pending_work_ = false;
  any_round_started_ = true;
  last_round_start_ = now;
  round_start_time_ = now;
  SolveStats stats = scheduler_->StartRound(now);
  metrics_.algorithm_runtime_seconds.Add(static_cast<double>(stats.runtime_us) / 1e6);
  SimTime charged = std::max<SimTime>(
      1, static_cast<SimTime>(static_cast<double>(stats.runtime_us) * params_.solver_charge_scale));
  solver_busy_ = true;
  if (fault_injector_ != nullptr && charged > 1 && fault_injector_->RollMidRoundCrash()) {
    // Land a crash strictly inside the StartRound..ApplyRound window: the
    // round's deltas targeting the victim must be dropped at apply time.
    SimTime crash_at = fault_injector_->PickTimeIn(now + 1, now + charged);
    fault_schedule_.push_back({crash_at, FaultKind::kMachineCrash});
    Push(crash_at, EventKind::kFault, fault_schedule_.size() - 1);
  }
  Push(now + charged, EventKind::kApplyRound);
}

void ClusterSimulator::CrashMachine(MachineId machine) {
  // Completions pending for tasks running there are now invalid: the
  // scheduler evicts the tasks back to waiting, and they restart on their
  // next placement.
  for (TaskId task : cluster_->RunningTasksOn(machine)) {
    ++placement_epoch_[task];
  }
  // The locality store's replica drop rides the scheduler's on_removed
  // callback: it must run after the policy's removal hook reads the store,
  // and mid-round that hook is staged — the callback defers with it.
  std::function<void()> on_removed;
  if (block_store_ != nullptr) {
    on_removed = [this, machine] { block_store_->OnMachineRemoved(machine); };
  }
  scheduler_->RemoveMachine(machine, clock_.Now(), std::move(on_removed));
  ++metrics_.machines_crashed;
}

void ClusterSimulator::HandleFault(size_t index) {
  const SimTime now = clock_.Now();
  const FaultSpec spec = fault_schedule_[index];
  if (spec.kind == FaultKind::kMachineCrash) {
    std::vector<MachineId> alive;
    for (const MachineDescriptor& machine : cluster_->machines()) {
      if (machine.alive) {
        alive.push_back(machine.id);
      }
    }
    if (alive.empty()) {
      return;  // nothing left to crash
    }
    MachineId victim = alive[fault_injector_->PickIndex(alive.size())];
    if (fault_injector_->RollStorm()) {
      // Rack-correlated storm: the victim drags a slice of its rack down
      // with it (id order keeps the victim set deterministic).
      std::vector<MachineId> rack_victims;
      for (MachineId peer : cluster_->MachinesInRack(cluster_->RackOf(victim))) {
        if (peer != victim && cluster_->machine(peer).alive) {
          rack_victims.push_back(peer);
        }
      }
      double fraction = fault_injector_->params().storm_rack_fraction;
      size_t extra = static_cast<size_t>(fraction * static_cast<double>(rack_victims.size() + 1));
      extra = std::min(extra, rack_victims.size());
      CrashMachine(victim);
      for (size_t i = 0; i < extra; ++i) {
        CrashMachine(rack_victims[i]);
      }
    } else {
      CrashMachine(victim);
    }
    pending_work_ = true;
    return;
  }
  // FaultKind::kTaskKill: kill-and-resubmit of one running task. The current
  // attempt is torn down entirely (the task id disappears) and a fresh
  // single-task job re-enters after the lineage's capped exponential backoff.
  std::vector<TaskId> running;
  for (TaskId task : cluster_->LiveTasks()) {
    if (cluster_->task(task).state == TaskState::kRunning) {
      running.push_back(task);
    }
  }
  if (running.empty()) {
    return;
  }
  std::sort(running.begin(), running.end());  // deterministic victim pick
  TaskId victim = running[fault_injector_->PickIndex(running.size())];
  const TaskDescriptor& desc = cluster_->task(victim);
  ResubmitSpec resubmit;
  resubmit.runtime = desc.runtime;
  resubmit.input_bytes = desc.input_size_bytes;
  resubmit.bandwidth_mbps = desc.bandwidth_request_mbps;
  auto kills_it = kill_counts_.find(victim);
  resubmit.attempt = kills_it != kill_counts_.end() ? kills_it->second + 1 : 1;
  if (kills_it != kill_counts_.end()) {
    kill_counts_.erase(kills_it);
  }
  placement_epoch_.erase(victim);  // drop the pending completion
  scheduler_->CompleteTask(victim, now);
  resubmits_.push_back(resubmit);
  ++metrics_.tasks_killed;
  Push(now + fault_injector_->BackoffDelay(resubmit.attempt), EventKind::kFaultResubmit,
       resubmits_.size() - 1);
}

void ClusterSimulator::HandleFaultResubmit(size_t index) {
  const SimTime now = clock_.Now();
  const ResubmitSpec& spec = resubmits_[index];
  TaskDescriptor task;
  task.runtime = spec.runtime;
  task.input_size_bytes = spec.input_bytes;
  task.bandwidth_request_mbps = spec.bandwidth_mbps;
  if (block_store_ != nullptr && spec.input_bytes > 0) {
    task.input_blocks = block_store_->AllocateInput(spec.input_bytes);
  }
  std::vector<TaskDescriptor> tasks;
  tasks.push_back(std::move(task));
  TemplateInstallResult install;
  JobId job = scheduler_->SubmitJob(JobType::kBatch, 0, std::move(tasks), now, &install);
  StartInstalledTasks(install);
  JobTracking tracking;
  tracking.submit = now;
  tracking.remaining = 1;
  tracking.type = JobType::kBatch;
  job_tracking_.emplace(job, tracking);
  TaskId reincarnation = cluster_->job(job).tasks.back();
  kill_counts_[reincarnation] = spec.attempt;  // the lineage remembers
  ++metrics_.tasks_resubmitted;
  pending_work_ = true;
}

SimulationMetrics ClusterSimulator::Run() {
  if (fault_injector_ != nullptr) {
    fault_schedule_ = fault_injector_->Schedule(params_.duration);
    for (size_t i = 0; i < fault_schedule_.size(); ++i) {
      Push(fault_schedule_[i].time, EventKind::kFault, i);
    }
  }
  while (!events_.empty()) {
    Event event = events_.top();
    events_.pop();
    if (event.time > params_.duration) {
      break;
    }
    clock_.AdvanceTo(event.time);
    switch (event.kind) {
      case EventKind::kJobArrival:
        HandleJobArrival(event.payload);
        MaybeStartRound();
        break;
      case EventKind::kTaskCompletion:
        HandleCompletion(static_cast<TaskId>(event.payload), event.epoch);
        MaybeStartRound();
        break;
      case EventKind::kApplyRound:
        HandleApplyRound();
        break;
      case EventKind::kRoundTimer:
        timer_scheduled_ = false;
        MaybeStartRound();
        break;
      case EventKind::kFault:
        HandleFault(event.payload);
        MaybeStartRound();
        break;
      case EventKind::kFaultResubmit:
        HandleFaultResubmit(event.payload);
        MaybeStartRound();
        break;
    }
  }
  return metrics_;
}

}  // namespace firmament
