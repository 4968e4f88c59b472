// federated_saturated: closed loop through SchedulerService with cells=4.
//
// fig22's shape: 864 machines in 24-machine racks, about 65% full of
// long-running background work, LoadSpreadingPolicy, templates off. A
// fixed number of clients each keep one whole job in flight: as soon as a
// client's job is fully placed it retires the job (completes every task)
// and submits a fresh one. This is the workload that runs src/federation/
// (routing, spill, clean-cell skip, concurrent per-cell rounds).

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "src/base/service_clock.h"
#include "src/checks.h"
#include "src/core/load_spreading_policy.h"
#include "src/service/scheduler_service.h"
#include "src/workload.h"

namespace perfbench {

using namespace firmament;

namespace {

constexpr SimTime kBackgroundRuntime = 3600 * kMicrosPerSecond;

struct Shape {
  int machines;
  int slots;
  int machines_per_rack;
  double fill;
  int clients;
  int job_tasks;
  uint64_t rss_budget;  // client placements before the peak-RSS reading
};

Shape ShapeFor(const WorkloadConfig& config) {
  if (config.tiny) {
    return {96, 8, 24, 0.65, 4, 8, 2'000};
  }
  return {864, 8, 24, 0.65, 64, 8, 150'000};
}

// A client's job from admission until it is fully placed.
struct ClientJob {
  int client = -1;
  int64_t send_ns = 0;
  std::vector<TaskId> tasks;
  size_t placed = 0;
};

struct PendingPlacement {
  TaskId task = 0;
  uint64_t submission = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// The federated service plus everything its callbacks write.
struct Env {
  std::unique_ptr<WallServiceClock> clock;
  std::unique_ptr<SchedulerService> service;
  std::atomic<Tracer*> tracer{nullptr};  // set once the window's loop runs
  uint64_t submits = 0;  // Submit calls so far; the service numbers from 1

  // Generator <-> loop hand-off: the client and send time of a submission
  // (written before Submit) and which clients' jobs are fully placed.
  std::mutex mutex;
  std::condition_variable ready_cv;
  std::unordered_map<uint64_t, std::pair<int, int64_t>> pending_submissions;
  std::deque<int> ready;  // clients whose job is fully placed
  std::vector<std::vector<TaskId>> ready_tasks;  // by client

  // Loop thread only (read after Stop()). Client jobs are dropped once
  // fully placed, so this state stays O(clients).
  std::unique_ptr<WindowSamples> latency_ms;  // by send time
  std::unique_ptr<WindowCount> rate;          // client first placements
  std::unique_ptr<RssAtBudget> rss;
  std::unordered_map<uint64_t, ClientJob> jobs;  // by submission
  std::unordered_map<TaskId, uint64_t> job_of_task;  // client tasks not yet placed
  uint64_t client_placed = 0;
  std::vector<PendingPlacement> unassigned;
  std::vector<TaskLink> links;  // traced runs only
  RoundAccumulator rounds;
  std::unique_ptr<WindowSamples> cycle_ms;  // by round end
  ThreadCpuShare loop_cpu;                   // sampled at round ends
  std::vector<double> spread;
  std::vector<std::string> failures;
  uint64_t cell_rounds_before = 0;
  int64_t last_round_end = 0;
  int64_t last_admitted_end = 0;
  int64_t round_no = 0;
  std::atomic<bool> measuring{false};
};

void OnAdmitted(Env* env, uint64_t seq, const std::vector<TaskId>& ids) {
  ScopedSpan span(env->tracer.load(), "cb.on_admitted", "gen", seq);
  std::pair<int, int64_t> client{-1, 0};
  {
    std::lock_guard<std::mutex> lock(env->mutex);
    auto it = env->pending_submissions.find(seq);
    if (it != env->pending_submissions.end()) {
      client = it->second;
      env->pending_submissions.erase(it);
    }
  }
  if (client.first >= 0) {
    ClientJob& job = env->jobs[seq];
    job.client = client.first;
    job.send_ns = client.second;
    job.tasks = ids;
    for (TaskId task : ids) {
      env->job_of_task[task] = seq;
    }
  }
  env->last_admitted_end = NowNs();
}

void OnPlaced(Env* env, TaskId task) {
  const int64_t start = NowNs();
  auto job_it = env->job_of_task.find(task);
  if (job_it == env->job_of_task.end()) {
    return;  // background task, or a re-placement after eviction
  }
  const uint64_t seq = job_it->second;
  env->job_of_task.erase(job_it);
  ClientJob& job = env->jobs[seq];
  env->latency_ms->Add(job.send_ns, static_cast<double>(start - job.send_ns) / 1e6);
  env->rate->Add(start);
  env->rss->Observe(++env->client_placed);
  if (++job.placed == job.tasks.size()) {
    {
      std::lock_guard<std::mutex> lock(env->mutex);
      env->ready_tasks[static_cast<size_t>(job.client)] = std::move(job.tasks);
      env->ready.push_back(job.client);
    }
    env->ready_cv.notify_one();
    env->jobs.erase(seq);
  }
  if (env->tracer.load() != nullptr) {
    env->unassigned.push_back({task, seq, start, NowNs()});
  }
}

void OnRound(Env* env, const SchedulerRoundResult& result) {
  const int64_t end = NowNs();
  const int64_t round = env->round_no++;
  const int64_t cycle_start = env->last_round_end;
  env->last_round_end = end;
  FederationCoordinator* federation = env->service->federation();
  const uint64_t cell_rounds = federation->counters().cell_rounds_run;
  const uint64_t cells_run = std::max<uint64_t>(1, cell_rounds - env->cell_rounds_before);
  env->cell_rounds_before = cell_rounds;
  CheckRoundOutcome(result, &env->failures);
  std::unordered_map<TaskId, bool> in_round;
  for (const SchedulingDelta& delta : result.deltas) {
    if (delta.kind == SchedulingDelta::Kind::kPlace) {
      in_round[delta.task] = true;
    }
  }
  std::vector<PendingPlacement> placed_now;
  for (const PendingPlacement& p : env->unassigned) {
    if (in_round.count(p.task) != 0) {
      env->links.push_back({p.task, p.submission, round});
      placed_now.push_back(p);
    }
  }
  env->unassigned.clear();
  if (env->measuring) {
    env->loop_cpu.Sample(end);
    env->rounds.Add(result);
    env->cycle_ms->Add(end, static_cast<double>(end - cycle_start) / 1e6);
    double cost = 0;
    for (size_t c = 0; c < federation->num_cells(); ++c) {
      cost += SpreadCost(federation->cell(c).cluster());
    }
    env->spread.push_back(cost);
  }
  Tracer* t = env->tracer.load();
  if (t == nullptr || cycle_start == 0) {
    return;
  }
  // The cycle splits at the last admission callback: before it the loop
  // waits for and admits work (service), after it the coordinator runs the
  // round (federation). Merged round fields are sums over the cells that
  // ran concurrently; the child spans show the per-cell mean, ending where
  // the placements start.
  const uint64_t key = static_cast<uint64_t>(round);
  const int64_t round_start = std::max(cycle_start, env->last_admitted_end);
  t->Add({"service.admission", "service", cycle_start, round_start, 0, 0, key, 0});
  const int64_t work_end = placed_now.empty() ? end : placed_now.front().start_ns;
  const int64_t k = static_cast<int64_t>(cells_run);
  const int64_t phases_ns = static_cast<int64_t>(result.graph_update_us +
                                                 result.algorithm_runtime_us +
                                                 result.total_runtime_us) * 1000 / k;
  const int64_t apply_ns = static_cast<int64_t>(result.total_runtime_us) * 1000 / k;
  const int64_t start = std::max(round_start, work_end - phases_ns);
  const uint64_t id = t->Add({"service.round", "federation", round_start, end, 0, 0, key, 0});
  AddSolvePhaseSpans(t, result, id, key, start, k);
  t->Add({"round.apply", "round", work_end - apply_ns, work_end, 0, id, key, 0});
  for (const PendingPlacement& p : placed_now) {
    t->Add({"cb.on_placed", "gen", p.start_ns, p.end_ns, 0, id, p.task, 0});
  }
}

std::vector<TaskDescriptor> Job(int tasks) {
  std::vector<TaskDescriptor> descriptors(static_cast<size_t>(tasks));
  for (TaskDescriptor& task : descriptors) {
    task.runtime = kBackgroundRuntime;
  }
  return descriptors;
}

std::unique_ptr<Env> SetUp(const Shape& shape) {
  auto env = std::make_unique<Env>();
  env->ready_tasks.resize(static_cast<size_t>(shape.clients));
  env->clock = std::make_unique<WallServiceClock>(1.0);
  SchedulerServiceOptions options;
  options.cells = 4;
  options.machines_per_rack = shape.machines_per_rack;
  options.cell_policy_factory = [](ClusterState* cluster, uint32_t) {
    CellPolicyBundle bundle;
    bundle.policy = std::make_unique<LoadSpreadingPolicy>(cluster);
    return bundle;
  };
  options.federation.cell.solver.mode = SolverMode::kCostScalingOnly;
  // Two cell rounds at once (the loop thread and one pool worker): with
  // the client thread that leaves a core of the four spare, so the loop is
  // not slowed by whatever else the machine runs. Three at once placed
  // faster but spread about twice as much from run to run.
  options.federation.threads = 1;
  env->service = std::make_unique<SchedulerService>(nullptr, env->clock.get(), options);
  Env* e = env.get();
  env->service->set_on_admitted(
      [e](uint64_t seq, JobId, const std::vector<TaskId>& ids) { OnAdmitted(e, seq, ids); });
  env->service->set_on_placed([e](TaskId task, MachineId, SimTime) { OnPlaced(e, task); });
  env->service->set_on_round([e](const SchedulerRoundResult& r) { OnRound(e, r); });
  for (int m = 0; m < shape.machines; ++m) {
    env->service->AddMachine(kInvalidRackId, MachineSpec{.slots = shape.slots});
  }
  env->service->Start();
  const int fill = static_cast<int>(shape.fill * shape.machines * shape.slots);
  for (int left = fill; left > 0; left -= shape.job_tasks) {
    env->service->Submit(JobType::kBatch, 0, Job(std::min(left, shape.job_tasks)));
    ++env->submits;
  }
  while (env->service->counters().tasks_placed < static_cast<uint64_t>(fill)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return env;
}

}  // namespace

WorkloadResult RunFederatedSaturated(const WorkloadConfig& config, Tracer* tracer) {
  const Shape shape = ShapeFor(config);
  WorkloadResult result;

  std::vector<double> setup_s;
  std::unique_ptr<Env> env = TimedSetUps(
      config.setup_reps, [&] { return SetUp(shape); }, [](Env* e) { e->service->Stop(); },
      &setup_s);
  env->tracer = tracer;
  SchedulerService& service = *env->service;

  // --- the clients, driven from this one generator thread --------------------
  uint64_t client_tasks = 0;
  auto submit = [&](int client) {
    const uint64_t expected = env->submits + 1;
    const int64_t send = NowNs();
    {
      std::lock_guard<std::mutex> lock(env->mutex);
      env->pending_submissions[expected] = {client, send};
    }
    const uint64_t seq = service.Submit(JobType::kBatch, 0, Job(shape.job_tasks));
    const int64_t ret = NowNs();
    ++env->submits;
    if (seq != expected) {
      result.check_failures.push_back("submission numbered " + std::to_string(seq) +
                                      ", expected " + std::to_string(expected));
    }
    client_tasks += static_cast<uint64_t>(shape.job_tasks);
    if (tracer != nullptr) {
      tracer->Add({"gen.late", "gen", send, send, 0, 0, seq, 0});  // closed loop: due = sent
      tracer->Add({"service.submit", "service", send, ret, 0, 0, seq, 0});
    }
  };

  const int64_t window_start = NowNs();
  const int64_t window_end = window_start + static_cast<int64_t>(config.seconds * 1e9);
  env->latency_ms = std::make_unique<WindowSamples>(window_start, window_end);
  env->rate = std::make_unique<WindowCount>(window_start, window_end);
  env->cycle_ms = std::make_unique<WindowSamples>(window_start, window_end);
  env->rss = std::make_unique<RssAtBudget>(shape.rss_budget);
  const ServiceCounters at_start = service.counters();
  env->measuring = true;
  for (int client = 0; client < shape.clients; ++client) {
    submit(client);
  }
  for (;;) {
    std::deque<int> clients;
    std::vector<std::vector<TaskId>> done;
    {
      std::unique_lock<std::mutex> lock(env->mutex);
      env->ready_cv.wait_until(
          lock, std::chrono::steady_clock::time_point(std::chrono::nanoseconds(window_end)),
          [&] { return !env->ready.empty(); });
      if (env->ready.empty()) {
        break;  // window over
      }
      clients.swap(env->ready);
      for (int client : clients) {
        done.push_back(std::move(env->ready_tasks[static_cast<size_t>(client)]));
      }
    }
    for (const std::vector<TaskId>& tasks : done) {
      for (TaskId task : tasks) {
        ScopedSpan span(tracer, "service.complete", "service", task);
        service.Complete(task);
      }
    }
    if (NowNs() >= window_end) {
      break;
    }
    for (int client : clients) {
      submit(client);
    }
  }
  env->measuring = false;
  const int64_t measured_end = NowNs();
  service.Stop();
  const int64_t drained = NowNs();
  const double window_s = static_cast<double>(measured_end - window_start) / 1e9;

  // --- results --------------------------------------------------------------
  // Every client task was seen placed, is still waiting in its cell's
  // cluster state, or belongs to a submission the service never admitted;
  // a task that is none of these fails the run. Never-placed tasks count
  // as beyond every percentile.
  FederationCoordinator* federation = service.federation();
  uint64_t waiting = 0;
  for (const auto& [task, seq] : env->job_of_task) {
    if (federation->HasTask(task) && federation->task(task).state == TaskState::kWaiting) {
      ++waiting;
    } else {
      result.check_failures.push_back("federated_saturated: task " + std::to_string(task) +
                                      " was never reported placed but is not waiting");
    }
    env->latency_ms->AddNever(env->jobs[seq].send_ns);
  }
  const uint64_t lost_tasks =
      env->pending_submissions.size() * static_cast<uint64_t>(shape.job_tasks);
  for (const auto& [seq, client] : env->pending_submissions) {
    for (int i = 0; i < shape.job_tasks; ++i) {
      env->latency_ms->AddNever(client.second);
    }
  }
  const uint64_t unplaced = env->job_of_task.size() + lost_tasks;
  const uint64_t attempted = client_tasks;

  const ServiceCounters counters = service.counters();
  const uint64_t events_submitted = counters.jobs_submitted + counters.completions_submitted +
                                    counters.machine_removals_submitted;  // adds were bootstrap
  const uint64_t background = counters.tasks_submitted - client_tasks;
  CheckEqual("federated_saturated: first placements seen vs service tasks_placed",
             background + env->client_placed, counters.tasks_placed, &result.check_failures);
  CheckConservation("federated_saturated", client_tasks, env->client_placed, waiting,
                    lost_tasks, &result.check_failures);
  CheckEqual("federated_saturated: events admitted", events_submitted, counters.events_admitted,
             &result.check_failures);
  CheckEqual("federated_saturated: stale completions", 0, counters.completions_ignored,
             &result.check_failures);
  if (config.break_output) {
    BreakForSelfTest(&federation->cell(0).cluster());
  }
  for (size_t c = 0; c < federation->num_cells(); ++c) {
    CellScheduler& cell = federation->cell(c);
    const std::string where = "federated_saturated cell " + std::to_string(c);
    CheckClusterInvariants(cell.cluster(), where, &result.check_failures);
    CheckIntegrity(&cell.cluster(), &cell.scheduler().graph_manager(), where,
                   &result.check_failures);
  }
  result.check_failures.insert(result.check_failures.end(), env->failures.begin(),
                               env->failures.end());
  result.attempted = attempted;
  result.failed = unplaced + (events_submitted - counters.events_admitted);

  const double never_ms = static_cast<double>(drained - window_start) / 1e6;
  const TimingSummary place = env->latency_ms->Summarize(0.9, never_ms);
  // p99 is reported per layer only; see METRICS.md.
  const TimingSummary place_p99 = env->latency_ms->Summarize(0.99, never_ms);
  const TimingSummary round = env->cycle_ms->Summarize(0.9, never_ms);
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

  std::vector<Metric>& layer = result.per_layer;
  env->rounds.Report(&layer);
  const double rounds = std::max(1.0, static_cast<double>(counters.rounds - at_start.rounds));
  layer.push_back({"service.loop_busy_share", env->rounds.busy_ms / (window_s * 1e3), "ratio", 0});
  layer.push_back({"service.loop_cpu_share", env->loop_cpu.Share(), "ratio", 0});
  layer.push_back({"service.tasks_per_round",
                   static_cast<double>(counters.tasks_admitted - at_start.tasks_admitted) / rounds,
                   "tasks/round", 0});
  layer.push_back({"service.ingest_overlap_share",
                   static_cast<double>(counters.events_ingested_during_solve -
                                       at_start.events_ingested_during_solve) /
                       std::max(1.0, static_cast<double>(counters.events_admitted -
                                                         at_start.events_admitted)),
                   "ratio", 0});
  const FederationCounters& fc = federation->counters();
  layer.push_back({"federation.cell_skip_share",
                   static_cast<double>(fc.cell_rounds_skipped) /
                       std::max<double>(1.0, static_cast<double>(fc.cell_rounds_run +
                                                                 fc.cell_rounds_skipped)),
                   "ratio", 0});
  layer.push_back({"federation.spills", static_cast<double>(fc.spills), "count", 0});
  layer.push_back({"federation.spill_conflicts", static_cast<double>(fc.spill_conflicts),
                   "count", 0});
  layer.push_back({"federation.rebalance_moves", static_cast<double>(fc.rebalance_moves),
                   "count", 0});
  layer.push_back({"trace.place_p50_ms", place.p50, "ms", place.samples});
  layer.push_back({"trace.place_p90_ms", place.tail, "ms", place.samples});
  layer.push_back({"trace.place_p99_ms", place_p99.tail, "ms", place_p99.samples});
  layer.push_back({"trace.round_p50_ms", round.p50, "ms", round.samples});
  result.notes.push_back(std::to_string(shape.clients) + " clients x " +
                         std::to_string(shape.job_tasks) + "-task jobs; drain " +
                         std::to_string(static_cast<double>(drained - measured_end) / 1e6) +
                         " ms");

  if (tracer != nullptr) {
    result.spans = tracer->Collect();
    layer.push_back({"trace.spans", static_cast<double>(result.spans.size()), "count", 0});
    ReportSelfTime(result.spans, static_cast<double>(drained - window_start) / 1e6, &result);
    ReportStages(env->links, &result);
  }
  return result;
}

}  // namespace perfbench
