// replay_steady: open loop through the centralized SchedulerService,
// configured as the fig21 replay configures it (pipelined rounds,
// LoadSpreadingPolicy, placement templates on, incremental cost scaling).
//
// The job stream comes from the TraceGenerator/FaultInjector model: batch
// jobs with heavy-tailed sizes and log-normal runtimes, machine crashes
// (each machine restarts later), late machine adds and task kills with
// backed-off resubmission. One generator thread sends it at a fixed offered
// task rate, times
// every task from its due send time, and feeds completions back from
// on_placed. Jobs are paced by task count: a job is due once the tasks
// before it have been offered at the fixed rate.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "src/base/service_clock.h"
#include "src/checks.h"
#include "src/core/load_spreading_policy.h"
#include "src/service/scheduler_service.h"
#include "src/sim/fault_injector.h"
#include "src/sim/replay_feedback.h"
#include "src/sim/trace_generator.h"
#include "src/workload.h"

namespace perfbench {

using namespace firmament;

namespace {

constexpr int64_t kNoDueNs = std::numeric_limits<int64_t>::max();

struct Shape {
  int machines;              // at full size, late adds included
  int late_machines;         // added during the run
  int slots;
  double time_scale;         // trace microseconds per wall microsecond
  double offered_tasks_per_s;  // batch tasks sent per wall second
  double warmup_s;           // sent but not measured
  double crash_rate;         // per trace second
  double kill_rate;          // per trace second
  SimTime restart_us;        // trace time until a crashed machine returns
  uint64_t rss_budget;       // placements before the peak-RSS reading
};

Shape ShapeFor(const WorkloadConfig& config) {
  if (config.tiny) {
    return {60, 3, 12, 2400, 400, 0.2, 0.01, 0.05, 300 * kMicrosPerSecond, 200};
  }
  return {1000, 10, 12, 2400, 3000, 1.0, 0.0005, 0.05, 300 * kMicrosPerSecond, 15'000};
}

// SimTime source with a known wall epoch, so service timestamps (task
// placed_time, the `now` of callbacks) convert back to wall nanoseconds.
class BenchClock : public ServiceClock {
 public:
  explicit BenchClock(double scale) : scale_(scale), epoch_ns_(NowNs()) {}
  SimTime Now() const override { return ToSim(NowNs()); }
  SimTime ToSim(int64_t wall_ns) const {
    return static_cast<SimTime>(static_cast<double>(wall_ns - epoch_ns_) * scale_ / 1e3);
  }
  int64_t ToWallNs(SimTime t) const {
    return epoch_ns_ + static_cast<int64_t>(static_cast<double>(t) * 1e3 / scale_);
  }

 private:
  const double scale_;
  const int64_t epoch_ns_;
};

// One generated input event, due at an offset from the start of sending.
struct InputEvent {
  enum class Kind : uint8_t { kJob, kFault, kLateMachine };
  int64_t due_offset_ns = 0;
  Kind kind = Kind::kJob;
  size_t index = 0;  // into jobs / faults
};

struct Stream {
  std::vector<TraceJobSpec> service_jobs;  // placed during set-up
  std::vector<TraceJobSpec> jobs;          // batch, in due order
  std::vector<FaultSpec> faults;
  std::vector<InputEvent> events;          // jobs, faults and late adds merged
};

Stream Generate(const Shape& shape, uint64_t seed, double total_s) {
  TraceGeneratorParams params;
  params.seed = seed;
  params.num_machines = shape.machines;
  params.slots_per_machine = shape.slots;
  params.tasks_per_machine = 3.0;
  params.service_task_fraction = 0.25;
  params.batch_runtime_log_mean = 6.0;
  params.batch_runtime_log_sigma = 1.0;
  // fig21 allows 2000-task jobs; at 1000 a 20 s window holds enough large
  // jobs that the job mix, and so the latency percentiles, barely vary
  // from seed to seed. Smaller caps push the share of tasks placed by
  // template installs towards half, where p50 jumps between the two modes.
  params.max_job_tasks = 1000;
  FaultInjectorParams fault_params;
  fault_params.seed = seed * 7919 + 1;
  fault_params.machine_crash_rate = shape.crash_rate;
  fault_params.task_kill_rate = shape.kill_rate;
  fault_params.storm_probability = 0;
  FaultInjector injector(fault_params);
  TraceGenerator generator(params);

  // Enough trace time for the offered tasks, with a margin for the draw.
  const double trace_tasks_per_s =
      generator.batch_jobs_per_second() * generator.mean_batch_tasks_per_job();
  const double needed = shape.offered_tasks_per_s * total_s;
  const SimTime horizon = static_cast<SimTime>(
      std::max(total_s * shape.time_scale, 1.5 * needed / trace_tasks_per_s) * 1e6);
  Stream stream;
  std::vector<TraceJobSpec> all = generator.Generate(horizon, &injector, &stream.faults);
  // Jobs keep their trace order and contents; each is due once the tasks
  // before it have been offered at the fixed rate, so every run offers
  // exactly offered_tasks_per_s whatever its seed.
  uint64_t offered = 0;
  for (TraceJobSpec& job : all) {
    if (job.type == JobType::kService) {
      stream.service_jobs.push_back(std::move(job));
      continue;
    }
    const int64_t due =
        static_cast<int64_t>(static_cast<double>(offered) / shape.offered_tasks_per_s * 1e9);
    if (due >= static_cast<int64_t>(total_s * 1e9)) {
      continue;
    }
    offered += job.task_runtimes.size();
    stream.events.push_back({due, InputEvent::Kind::kJob, stream.jobs.size()});
    stream.jobs.push_back(std::move(job));
  }
  for (size_t i = 0; i < stream.faults.size(); ++i) {
    const int64_t due = static_cast<int64_t>(static_cast<double>(stream.faults[i].time) /
                                             shape.time_scale * 1e3);
    stream.events.push_back({due, InputEvent::Kind::kFault, i});
  }
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (int m = 0; m < shape.late_machines; ++m) {
    const int64_t due = static_cast<int64_t>(rng.NextDouble() * total_s * 1e9);
    stream.events.push_back({due, InputEvent::Kind::kLateMachine, 0});
  }
  std::stable_sort(stream.events.begin(), stream.events.end(),
                   [](const InputEvent& a, const InputEvent& b) {
                     return a.due_offset_ns < b.due_offset_ns;
                   });
  return stream;
}

std::vector<TaskDescriptor> Descriptors(const TraceJobSpec& spec) {
  std::vector<TaskDescriptor> tasks(spec.task_runtimes.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].runtime = spec.task_runtimes[i];
    tasks[i].input_size_bytes = spec.task_input_bytes[i];
    tasks[i].bandwidth_request_mbps = spec.task_bandwidth_mbps[i];
  }
  return tasks;
}

// What the generator knows about one submission (indexed by its sequence).
struct Submission {
  int64_t due_ns = 0;
  uint32_t tasks = 0;
  bool measured = false;  // due inside the measured window
};

// What the service loop thread reports about one task (indexed by id).
struct TaskRecord {
  uint64_t submission = 0;
  int64_t placed_ns = 0;  // first on_placed arrival; 0 = not yet
  int64_t round = -1;     // placing round; -1 = template install
};

// A first placement waiting for its round's on_round (or for the next
// round, which tells it was a template install).
struct PendingPlacement {
  TaskId task = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// The cluster, scheduler, service and everything the callbacks write.
struct Env {
  Stream stream;
  std::unique_ptr<BenchClock> clock;
  ClusterState cluster;
  std::unique_ptr<LoadSpreadingPolicy> policy;
  std::unique_ptr<FirmamentScheduler> scheduler;
  std::unique_ptr<SchedulerService> service;
  std::unique_ptr<ReplayFeedback> feedback;
  std::unique_ptr<FaultInjector> picker;  // victim choice for crashes and kills
  std::vector<MachineId> alive;

  // Written on the loop thread only (callbacks); read after Stop().
  std::vector<TaskRecord> tasks;
  std::vector<PendingPlacement> unassigned;
  RoundAccumulator rounds;
  std::unique_ptr<WindowSamples> round_ms;  // update + solve + apply, by round end
  std::vector<double> spread;
  std::vector<std::string> failures;
  std::atomic<Tracer*> tracer{nullptr};  // set once the window's loop runs
  int64_t round_no = 0;
  // Set by the generator once `rate` exists; read by the loop thread.
  std::atomic<bool> measuring{false};
  std::unique_ptr<WindowCount> rate;  // first placements
  int64_t window_end_ns = 0;
  ThreadCpuShare loop_cpu;  // sampled at round ends inside the window
  std::unique_ptr<RssAtBudget> rss;
  uint64_t measured_placements = 0;
};

void OnAdmitted(Env* env, uint64_t seq, const std::vector<TaskId>& ids) {
  ScopedSpan span(env->tracer.load(), "cb.on_admitted", "gen", seq);
  for (TaskId task : ids) {
    if (task >= env->tasks.size()) {
      env->tasks.resize(task + 1);
    }
    env->tasks[task].submission = seq;
  }
}

void OnPlaced(Env* env, TaskId task, SimTime now) {
  const int64_t start = NowNs();
  const TaskDescriptor& desc = env->service->task_descriptor(task);
  ReplayFeedback::TaskInfo info;
  info.runtime = desc.runtime;
  info.input_bytes = desc.input_size_bytes;
  info.bandwidth_mbps = desc.bandwidth_request_mbps;
  env->feedback->OnPlaced(task, info);
  env->feedback->ScheduleCompletion(task, now + info.runtime);
  if (task < env->tasks.size() && env->tasks[task].placed_ns == 0) {
    env->tasks[task].placed_ns = start;
    env->unassigned.push_back({task, start, NowNs()});
    if (env->measuring) {
      env->rate->Add(start);
      env->rss->Observe(++env->measured_placements);
    }
  }
}

void OnRound(Env* env, const SchedulerRoundResult& result) {
  const int64_t end = NowNs();
  Tracer* t = env->tracer.load();
  const int64_t round = env->round_no++;
  std::vector<PendingPlacement> placed_now;
  {
    std::unordered_map<TaskId, bool> in_round;
    for (const SchedulingDelta& delta : result.deltas) {
      if (delta.kind == SchedulingDelta::Kind::kPlace) {
        in_round[delta.task] = true;
      }
    }
    for (const PendingPlacement& p : env->unassigned) {
      if (in_round.count(p.task) != 0) {
        env->tasks[p.task].round = round;
        placed_now.push_back(p);
      } else if (t != nullptr) {  // placed by a template install
        t->Add({"cb.on_placed", "gen", p.start_ns, p.end_ns, 0, 0, p.task, 0});
      }
    }
    env->unassigned.clear();
  }
  CheckRoundOutcome(result, &env->failures);
  if (env->measuring) {
    if (end < env->window_end_ns) {
      env->loop_cpu.Sample(end);
    }
    env->rounds.Add(result);
    env->rounds.AddUpdateStats(env->scheduler->graph_manager().last_update_stats());
    env->round_ms->Add(end, static_cast<double>(result.graph_update_us +
                                                result.algorithm_runtime_us +
                                                result.total_runtime_us) /
                                1e3);
    env->spread.push_back(SpreadCost(env->cluster));
  }
  if (t == nullptr) {
    return;
  }
  // The round's phases, rebuilt from the result fields and anchored at the
  // apply start (the placed_time ApplyRound stamped on its placements).
  const int64_t solve_ns = static_cast<int64_t>(result.algorithm_runtime_us) * 1000;
  const int64_t update_ns = static_cast<int64_t>(result.graph_update_us) * 1000;
  const int64_t apply_ns = static_cast<int64_t>(result.total_runtime_us) * 1000;
  int64_t apply_start = end - apply_ns;
  if (!placed_now.empty()) {
    apply_start = env->clock->ToWallNs(env->cluster.task(placed_now.front().task).placed_time);
  }
  const int64_t start = apply_start - solve_ns - update_ns;
  const uint64_t key = static_cast<uint64_t>(round);
  const uint64_t id = t->Add({"service.round", "service", start, end, 0, 0, key, 0});
  AddSolvePhaseSpans(t, result, id, key, start);
  t->Add({"round.apply", "round", apply_start, apply_start + apply_ns, 0, id, key, 0});
  for (const PendingPlacement& p : placed_now) {
    t->Add({"cb.on_placed", "gen", p.start_ns, p.end_ns, 0, id, p.task, 0});
  }
}

// Builds the stack, generates the stream and places the service jobs.
std::unique_ptr<Env> SetUp(const Shape& shape, uint64_t seed, double total_s) {
  auto env = std::make_unique<Env>();
  env->stream = Generate(shape, seed, total_s);
  env->clock = std::make_unique<BenchClock>(shape.time_scale);
  env->policy = std::make_unique<LoadSpreadingPolicy>(&env->cluster);
  FirmamentSchedulerOptions options;
  options.solver.mode = SolverMode::kCostScalingOnly;
  options.enable_templates = true;
  env->scheduler = std::make_unique<FirmamentScheduler>(&env->cluster, env->policy.get(), options);
  SchedulerServiceOptions service_options;
  service_options.pipeline = true;
  service_options.admission.queue_shards = 4;
  service_options.admission.max_batch_tasks = 4096;
  service_options.admission.max_batch_latency_us = 0;
  service_options.machines_per_rack = 48;
  env->service = std::make_unique<SchedulerService>(env->scheduler.get(), env->clock.get(),
                                                    service_options);
  FaultInjectorParams fault_params;
  env->feedback = std::make_unique<ReplayFeedback>(fault_params.backoff_base_us,
                                                   fault_params.backoff_cap_us);
  fault_params.seed = seed + 17;
  env->picker = std::make_unique<FaultInjector>(fault_params);
  Env* e = env.get();
  env->service->set_on_admitted(
      [e](uint64_t seq, JobId, const std::vector<TaskId>& ids) { OnAdmitted(e, seq, ids); });
  env->service->set_on_placed([e](TaskId task, MachineId, SimTime now) { OnPlaced(e, task, now); });
  env->service->set_on_round([e](const SchedulerRoundResult& r) { OnRound(e, r); });

  for (int m = 0; m < shape.machines - shape.late_machines; ++m) {
    env->alive.push_back(env->service->AddMachine(kInvalidRackId, MachineSpec{.slots = shape.slots}));
  }
  env->service->Start();
  uint64_t service_tasks = 0;
  for (const TraceJobSpec& job : env->stream.service_jobs) {
    env->service->Submit(job.type, job.priority, Descriptors(job));
    service_tasks += job.task_runtimes.size();
  }
  while (env->service->counters().tasks_placed < service_tasks) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return env;
}

// Sleeps (then spins for the last stretch) until `due_ns`.
void WaitUntil(int64_t due_ns) {
  for (;;) {
    const int64_t left = due_ns - NowNs();
    if (left <= 0) {
      return;
    }
    if (left > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(std::min<int64_t>(left - 100'000,
                                                                             1'000'000)));
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace

WorkloadResult RunReplaySteady(const WorkloadConfig& config, Tracer* tracer) {
  const Shape shape = ShapeFor(config);
  const double total_s = shape.warmup_s + config.seconds;
  WorkloadResult result;

  std::vector<double> setup_s;
  std::unique_ptr<Env> env = TimedSetUps(
      config.setup_reps, [&] { return SetUp(shape, config.seed, total_s); },
      [](Env* e) { e->service->Stop(); }, &setup_s);
  env->tracer = tracer;
  SchedulerService& service = *env->service;
  const Stream& stream = env->stream;

  // --- the generator: one thread, this one ---------------------------------
  // The service numbers submissions from 1; index 0 stays unused. The
  // service jobs placed during set-up come first.
  std::vector<Submission> submissions(1);
  for (const TraceJobSpec& job : stream.service_jobs) {
    submissions.push_back({0, static_cast<uint32_t>(job.task_runtimes.size()), false});
  }
  std::vector<double> late_ms;
  uint64_t crashes = 0;
  std::vector<std::pair<int64_t, int>> restarts;  // (due ns, count) FIFO
  size_t restart_head = 0;
  const int64_t origin = NowNs();
  const int64_t window_start = origin + static_cast<int64_t>(shape.warmup_s * 1e9);
  const int64_t window_end = origin + static_cast<int64_t>(total_s * 1e9);
  ServiceCounters at_window_start;
  bool window_open = false;
  env->rate = std::make_unique<WindowCount>(window_start, window_end);
  env->window_end_ns = window_end;
  env->round_ms = std::make_unique<WindowSamples>(window_start, window_end);
  env->rss = std::make_unique<RssAtBudget>(shape.rss_budget);

  auto submit = [&](int64_t due, JobType type, int32_t priority,
                    std::vector<TaskDescriptor> tasks) {
    const int64_t send = NowNs();
    const uint32_t n = static_cast<uint32_t>(tasks.size());
    const uint64_t seq = service.Submit(type, priority, std::move(tasks));
    const int64_t ret = NowNs();
    if (seq != submissions.size()) {
      result.check_failures.push_back("submission numbered " + std::to_string(seq) +
                                      ", expected " + std::to_string(submissions.size()));
    }
    const bool measured = due >= window_start && due < window_end;
    submissions.push_back({due, n, measured});
    if (measured) {
      late_ms.push_back(static_cast<double>(send - due) / 1e6);
    }
    if (tracer != nullptr) {
      tracer->Add({"gen.late", "gen", due, send, 0, 0, seq, 0});
      tracer->Add({"service.submit", "service", send, ret, 0, 0, seq, 0});
    }
  };
  auto add_machine = [&]() {
    ScopedSpan span(tracer, "service.add_machine", "service");
    env->alive.push_back(service.AddMachine(kInvalidRackId, MachineSpec{.slots = shape.slots}));
  };

  size_t next_event = 0;
  for (;;) {
    const int64_t now_ns = NowNs();
    if (!window_open && now_ns >= window_start) {
      window_open = true;
      at_window_start = service.counters();
      env->measuring = true;
    }
    const int64_t event_due =
        next_event < stream.events.size() ? origin + stream.events[next_event].due_offset_ns
                                          : kNoDueNs;
    const SimTime completion = env->feedback->NextCompletionDue();
    const SimTime resubmit = env->feedback->NextResubmitDue();
    const int64_t completion_due = completion == ReplayFeedback::kNoDue
                                       ? kNoDueNs
                                       : env->clock->ToWallNs(completion);
    const int64_t resubmit_due =
        resubmit == ReplayFeedback::kNoDue ? kNoDueNs : env->clock->ToWallNs(resubmit);
    const int64_t restart_due =
        restart_head < restarts.size() ? restarts[restart_head].first : kNoDueNs;
    const int64_t next =
        std::min({event_due, completion_due, resubmit_due, restart_due, window_end});
    if (next >= window_end) {
      WaitUntil(window_end);
      break;
    }
    WaitUntil(next);
    if (completion_due == next) {
      TaskId task = kInvalidTaskId;
      const SimTime upto = env->clock->Now();
      while (env->feedback->PopDueCompletion(upto, &task)) {
        ScopedSpan span(tracer, "service.complete", "service", task);
        service.Complete(task);
      }
    } else if (resubmit_due == next) {
      ReplayFeedback::TaskInfo info;
      if (env->feedback->PopDueResubmit(env->clock->Now(), &info)) {
        std::vector<TaskDescriptor> tasks(1);
        tasks[0].runtime = info.runtime;
        tasks[0].input_size_bytes = info.input_bytes;
        tasks[0].bandwidth_request_mbps = info.bandwidth_mbps;
        submit(next, JobType::kBatch, 0, std::move(tasks));
      }
    } else if (restart_due == next) {
      ++restart_head;
      add_machine();
    } else {
      const InputEvent& event = stream.events[next_event++];
      if (event.kind == InputEvent::Kind::kJob) {
        const TraceJobSpec& job = stream.jobs[event.index];
        submit(next, job.type, job.priority, Descriptors(job));
      } else if (event.kind == InputEvent::Kind::kLateMachine) {
        add_machine();
      } else if (stream.faults[event.index].kind == FaultKind::kMachineCrash) {
        if (env->alive.size() > 1) {
          const size_t index = env->picker->PickIndex(env->alive.size());
          const MachineId victim = env->alive[index];
          env->alive.erase(env->alive.begin() + static_cast<long>(index));
          {
            ScopedSpan span(tracer, "service.remove_machine", "service", victim);
            service.RemoveMachine(victim);
          }
          ++crashes;
          restarts.push_back(
              {next + static_cast<int64_t>(static_cast<double>(shape.restart_us) /
                                           shape.time_scale * 1e3),
               1});
        }
      } else {
        TaskId victim = kInvalidTaskId;
        ReplayFeedback::TaskInfo info;
        if (env->feedback->KillRandomVictim(env->picker.get(), &victim, &info)) {
          {
            ScopedSpan span(tracer, "service.complete", "service", victim);
            service.Complete(victim);
          }
          env->feedback->QueueResubmit(env->clock->Now(), info);
        }
      }
    }
  }
  const ServiceCounters at_window_end = service.counters();
  const int64_t stop_start = NowNs();
  service.Stop();  // drains: every queued event admitted, rounds until idle
  const int64_t drained = NowNs();
  env->measuring = false;
  const double window_s = static_cast<double>(window_end - window_start) / 1e9;

  // --- results --------------------------------------------------------------
  // Every task the service reported admitted was either seen placed or is
  // still waiting in the scheduler's cluster state; a task that is neither
  // fails the run. The service is stopped and its loop thread has exited.
  WindowSamples latency_ms(window_start, window_end);
  uint64_t attempted = 0;
  uint64_t unplaced = 0;
  uint64_t placed_total = 0;
  uint64_t waiting = 0;
  std::vector<uint64_t> admitted_per_submission(submissions.size(), 0);
  for (TaskId task = 0; task < env->tasks.size(); ++task) {
    const TaskRecord& record = env->tasks[task];
    if (record.submission == 0) {
      continue;  // no task was admitted under this id
    }
    if (record.submission >= submissions.size()) {
      result.check_failures.push_back("replay_steady: task " + std::to_string(task) +
                                      " admitted from unknown submission " +
                                      std::to_string(record.submission));
      continue;
    }
    ++admitted_per_submission[record.submission];
    const Submission& submission = submissions[record.submission];
    if (record.placed_ns != 0) {
      ++placed_total;
      if (submission.measured) {
        latency_ms.Add(submission.due_ns,
                       static_cast<double>(record.placed_ns - submission.due_ns) / 1e6);
      }
      continue;
    }
    if (env->cluster.HasTask(task) && env->cluster.task(task).state == TaskState::kWaiting) {
      ++waiting;
    } else {
      result.check_failures.push_back("replay_steady: task " + std::to_string(task) +
                                      " was never reported placed but is not waiting");
    }
    if (submission.measured) {
      ++unplaced;
      latency_ms.AddNever(submission.due_ns);
    }
  }
  uint64_t lost_tasks = 0;  // in submissions the service never admitted
  for (size_t seq = 1; seq < submissions.size(); ++seq) {
    const uint64_t admitted = admitted_per_submission[seq];
    if (admitted == 0) {
      lost_tasks += submissions[seq].tasks;
    } else if (admitted != submissions[seq].tasks) {
      result.check_failures.push_back("replay_steady: submission " + std::to_string(seq) +
                                      " admitted " + std::to_string(admitted) + " of " +
                                      std::to_string(submissions[seq].tasks) + " tasks");
    }
    if (submissions[seq].measured) {
      attempted += submissions[seq].tasks;
      if (admitted == 0) {
        unplaced += submissions[seq].tasks;
        for (uint32_t i = 0; i < submissions[seq].tasks; ++i) {
          latency_ms.AddNever(submissions[seq].due_ns);
        }
      }
    }
  }

  const ServiceCounters counters = service.counters();
  // Bootstrap machines were added inline, before the loop ran: they are
  // counted as submitted but never pass through admission.
  const uint64_t bootstrap_machines = static_cast<uint64_t>(shape.machines - shape.late_machines);
  const uint64_t events_submitted = counters.jobs_submitted + counters.completions_submitted +
                                    counters.machine_adds_submitted - bootstrap_machines +
                                    counters.machine_removals_submitted;
  const uint64_t lost_events = events_submitted - counters.events_admitted;
  const uint64_t all_sent = std::accumulate(
      submissions.begin(), submissions.end(), uint64_t{0},
      [](uint64_t n, const Submission& submission) { return n + submission.tasks; });
  CheckConservation("replay_steady", all_sent, placed_total, waiting, lost_tasks,
                    &result.check_failures);
  CheckEqual("replay_steady: tasks sent vs service tasks_submitted", all_sent,
             counters.tasks_submitted, &result.check_failures);
  CheckEqual("replay_steady: first placements seen vs service tasks_placed", placed_total,
             counters.tasks_placed, &result.check_failures);
  CheckEqual("replay_steady: events admitted", events_submitted, counters.events_admitted,
             &result.check_failures);
  if (config.break_output) {
    BreakForSelfTest(&env->cluster);
  }
  CheckClusterInvariants(env->cluster, "replay_steady", &result.check_failures);
  CheckIntegrity(&env->cluster, &env->scheduler->graph_manager(), "replay_steady",
                 &result.check_failures);
  result.check_failures.insert(result.check_failures.end(), env->failures.begin(),
                               env->failures.end());
  result.attempted = attempted;
  result.failed = unplaced + lost_events;

  const double never_ms = static_cast<double>(drained - origin) / 1e6;
  const TimingSummary place = latency_ms.Summarize(0.9, never_ms);
  // p99 is reported per layer only; see METRICS.md.
  const TimingSummary place_p99 = latency_ms.Summarize(0.99, never_ms);
  const TimingSummary round = env->round_ms->Summarize(0.9, never_ms);
  result.end_to_end = {
      {"place_p50_ms", place.p50, "ms", place.samples},
      {"place_p90_ms", place.tail, "ms", place.samples},
      {"round_p50_ms", round.p50, "ms", round.samples},
      {"round_p90_ms", round.tail, "ms", round.samples},
      {"tasks_per_s", env->rate->PerSecond(), "1/s", env->rate->count()},
      {"spread_cost",
       std::accumulate(env->spread.begin(), env->spread.end(), 0.0) /
           static_cast<double>(std::max<size_t>(1, env->spread.size())),
       "cost", env->spread.size()},
      {"setup_s", Median(setup_s), "s", setup_s.size()},
      {"peak_rss_mb", env->rss->Read(), "MB", 0},
  };

  // Per-layer metrics.
  std::vector<Metric>& layer = result.per_layer;
  env->rounds.Report(&layer);
  auto delta = [&](uint64_t ServiceCounters::*field) {
    return static_cast<double>(at_window_end.*field - at_window_start.*field);
  };
  const double window_rounds = std::max(1.0, delta(&ServiceCounters::rounds));
  layer.push_back({"service.loop_busy_share", env->rounds.busy_ms / (window_s * 1e3), "ratio", 0});
  layer.push_back({"service.loop_cpu_share", env->loop_cpu.Share(), "ratio", 0});
  layer.push_back({"service.tasks_per_round", delta(&ServiceCounters::tasks_admitted) /
                                                  window_rounds,
                   "tasks/round", 0});
  layer.push_back({"service.ingest_overlap_share",
                   delta(&ServiceCounters::events_ingested_during_solve) /
                       std::max(1.0, delta(&ServiceCounters::events_admitted)),
                   "ratio", 0});
  const double hits = delta(&ServiceCounters::template_hits);
  const double misses = delta(&ServiceCounters::template_misses);
  layer.push_back({"templates.hit_rate", hits / std::max(1.0, hits + misses), "ratio", 0});
  const Distribution& install = env->scheduler->template_install_latency();
  layer.push_back({"templates.install_us.p50", install.empty() ? 0 : install.Median() * 1e6,
                   "us", install.count()});
  layer.push_back({"gen.late_p99_ms", Summarize(late_ms, 0.99).tail, "ms",
                   late_ms.size()});
  layer.push_back({"trace.place_p50_ms", place.p50, "ms", place.samples});
  layer.push_back({"trace.place_p90_ms", place.tail, "ms", place.samples});
  layer.push_back({"trace.place_p99_ms", place_p99.tail, "ms", place_p99.samples});
  layer.push_back({"trace.round_p50_ms", round.p50, "ms", round.samples});
  uint64_t installed = 0;
  for (const TaskRecord& record : env->tasks) {
    installed += record.placed_ns != 0 && record.round < 0 ? 1 : 0;
  }
  char line[240];
  std::snprintf(line, sizeof(line),
                "offered %.0f tasks/s over %.1f s (+%.1f s warm-up); %llu machine crashes; "
                "%.1f%% of placements by template install; drain %.1f ms",
                shape.offered_tasks_per_s, window_s, shape.warmup_s,
                static_cast<unsigned long long>(crashes),
                100.0 * static_cast<double>(installed) /
                    static_cast<double>(std::max<uint64_t>(1, placed_total)),
                static_cast<double>(drained - stop_start) / 1e6);
  result.notes.push_back(line);

  if (tracer != nullptr) {
    result.spans = tracer->Collect();
    layer.push_back({"trace.spans", static_cast<double>(result.spans.size()), "count", 0});
    ReportSelfTime(result.spans, static_cast<double>(drained - origin) / 1e6, &result);
    std::vector<TaskLink> links;
    for (TaskId task = 0; task < env->tasks.size(); ++task) {
      const TaskRecord& record = env->tasks[task];
      if (record.placed_ns != 0 && record.submission < submissions.size() &&
          submissions[record.submission].measured) {
        links.push_back({task, record.submission, record.round});
      }
    }
    ReportStages(links, &result);
  }
  return result;
}

}  // namespace perfbench
