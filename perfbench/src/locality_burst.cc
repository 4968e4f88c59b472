// locality_burst: closed loop straight into FirmamentScheduler, no service.
//
// QuincyPolicy over a BlockStore on ~2k machines filled to 70%. Every
// iteration completes a share of the running tasks, submits a burst of
// small jobs whose tasks read fresh multi-block inputs (so each task is a
// new equivalence class), now and then removes a machine, and runs one
// round (StartRound + ApplyRound). Graph update (Quincy pricing), view
// prep, the racing solve and extraction/apply do all the work; the
// service layer is absent.

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <numeric>

#include "src/base/rng.h"
#include "src/checks.h"
#include "src/core/quincy_policy.h"
#include "src/sim/block_store.h"
#include "src/workload.h"

namespace perfbench {

using namespace firmament;

namespace {

constexpr SimTime kRoundStep = kMicrosPerSecond;  // simulated time per round

struct Shape {
  int machines;
  int slots;
  int machines_per_rack;
  double fill;
  double churn;       // share of the fill completed and resubmitted per round
  int max_job_tasks;  // burst jobs are 1..max tasks
  int fill_chunk;     // tasks submitted per fill round
  uint64_t remove_every;  // rounds between machine removals
  uint64_t rss_budget;  // placements before the peak-RSS reading
};

Shape ShapeFor(const WorkloadConfig& config) {
  if (config.tiny) {
    return {120, 8, 24, 0.7, 0.08, 8, 400, 5, 1'000};
  }
  return {2000, 8, 48, 0.7, 0.08, 16, 2500, 10, 40'000};
}

// The cluster, its locality store, the policy and the scheduler, with the
// lifetimes each needs.
struct Env {
  ClusterState cluster;
  std::unique_ptr<BlockStore> store;
  std::unique_ptr<QuincyPolicy> policy;
  std::unique_ptr<FirmamentScheduler> scheduler;
  Rng rng{0};
  std::vector<TaskId> running;  // placed and not completed, in placement order
  SimTime now = 0;
};

std::vector<TaskDescriptor> BurstJob(Env* env, int tasks) {
  std::vector<TaskDescriptor> descriptors(static_cast<size_t>(tasks));
  for (TaskDescriptor& task : descriptors) {
    task.runtime = 600 * kMicrosPerSecond;
    // 2..8 blocks of 256 MB: multi-block inputs on fresh replicas.
    task.input_size_bytes = env->rng.NextInt(512'000'000, 2'048'000'000);
    task.input_blocks = env->store->AllocateInput(task.input_size_bytes);
  }
  return descriptors;
}

void TrackDeltas(Env* env, const SchedulerRoundResult& result) {
  for (const SchedulingDelta& delta : result.deltas) {
    if (delta.kind == SchedulingDelta::Kind::kPlace) {
      env->running.push_back(delta.task);
    } else if (delta.kind == SchedulingDelta::Kind::kPreempt) {
      auto it = std::find(env->running.begin(), env->running.end(), delta.task);
      if (it != env->running.end()) {
        *it = env->running.back();
        env->running.pop_back();
      }
    }
  }
}

// Builds the cluster and fills it to the target share of slots.
std::unique_ptr<Env> SetUp(const Shape& shape, uint64_t seed) {
  auto env = std::make_unique<Env>();
  env->rng = Rng(seed);
  env->store = std::make_unique<BlockStore>(&env->cluster, seed ^ 0x5bd1e995);
  env->policy = std::make_unique<QuincyPolicy>(&env->cluster, env->store.get());
  FirmamentSchedulerOptions options;  // racing solver, templates off
  env->scheduler = std::make_unique<FirmamentScheduler>(&env->cluster, env->policy.get(), options);
  RackId rack = kInvalidRackId;
  for (int m = 0; m < shape.machines; ++m) {
    if (m % shape.machines_per_rack == 0) {
      rack = env->cluster.AddRack();
    }
    env->scheduler->AddMachine(rack, MachineSpec{.slots = shape.slots});
  }
  const int64_t target =
      static_cast<int64_t>(shape.fill * static_cast<double>(env->cluster.TotalSlots()));
  for (int guard = 0; guard < 100 && env->cluster.UsedSlots() < target; ++guard) {
    int64_t deficit = std::min<int64_t>(target - env->cluster.UsedSlots(), shape.fill_chunk);
    while (deficit > 0) {
      const int n = static_cast<int>(std::min<int64_t>(deficit, 40));
      env->scheduler->SubmitJob(JobType::kBatch, 0, BurstJob(env.get(), n), env->now);
      deficit -= n;
    }
    env->now += kRoundStep;
    TrackDeltas(env.get(), env->scheduler->RunSchedulingRound(env->now));
  }
  return env;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

WorkloadResult RunLocalityBurst(const WorkloadConfig& config, Tracer* tracer) {
  const Shape shape = ShapeFor(config);
  WorkloadResult result;

  std::vector<double> setup_s;
  std::unique_ptr<Env> env = TimedSetUps(
      config.setup_reps, [&] { return SetUp(shape, config.seed); }, [](Env*) {}, &setup_s);
  const int64_t fill_tasks = env->cluster.UsedSlots();
  const int churn = std::max(1, static_cast<int>(shape.churn * static_cast<double>(fill_tasks)));

  RoundAccumulator rounds;
  std::vector<double> round_ms;
  std::vector<double> spread;
  std::unordered_map<TaskId, int64_t> pending;  // task -> send ns
  const int64_t window_start = NowNs();
  const int64_t window_end = window_start + static_cast<int64_t>(config.seconds * 1e9);
  WindowSamples latency_ms(window_start, window_end);
  RssAtBudget rss(shape.rss_budget);
  uint64_t submitted = 0;
  uint64_t placed = 0;
  double local_bytes = 0;
  double input_bytes = 0;
  double busy_s = 0;  // event calls + rounds: the program's share of the loop

  auto run_round = [&](uint64_t round_no, int64_t iteration_start, uint64_t parent) {
    env->now += kRoundStep;
    const int64_t start_begin = NowNs();
    env->scheduler->StartRound(env->now);
    const int64_t start_end = NowNs();
    SchedulerRoundResult r = env->scheduler->ApplyRound(env->now);
    const int64_t apply_end = NowNs();
    busy_s += static_cast<double>(apply_end - iteration_start) / 1e9;
    round_ms.push_back(Ms(apply_end - start_begin));
    rounds.Add(r, Ms(start_end - start_begin), Ms(apply_end - start_end));
    rounds.AddUpdateStats(env->scheduler->graph_manager().last_update_stats());
    CheckRoundOutcome(r, &result.check_failures);
    if (tracer != nullptr) {
      const uint64_t start_span = tracer->Add(
          {"round.start", "round", start_begin, start_end, 0, parent, round_no, 0});
      AddSolvePhaseSpans(tracer, r, start_span, round_no, start_begin);
      tracer->Add({"round.apply", "round", start_end, apply_end, 0, parent, round_no, 0});
    }
    TrackDeltas(env.get(), r);
    for (const SchedulingDelta& delta : r.deltas) {
      auto it = delta.kind == SchedulingDelta::Kind::kPlace ? pending.find(delta.task)
                                                            : pending.end();
      if (it == pending.end()) {
        continue;
      }
      latency_ms.Add(it->second, Ms(apply_end - it->second));
      pending.erase(it);
      rss.Observe(++placed);
      const TaskDescriptor& task = env->cluster.task(delta.task);
      local_bytes += static_cast<double>(env->store->BytesOnMachine(task, delta.to));
      input_bytes += static_cast<double>(task.input_size_bytes);
    }
    spread.push_back(SpreadCost(env->cluster));
  };

  uint64_t round_no = 0;
  while (NowNs() < window_end) {
    ScopedSpan iteration(tracer, "gen.iteration", "gen", round_no);
    const int64_t iteration_start = iteration.start_ns();
    // Completions: a random share of the running tasks.
    for (int i = 0; i < churn && !env->running.empty(); ++i) {
      const size_t index = env->rng.NextUint64(env->running.size());
      const TaskId task = env->running[index];
      env->running[index] = env->running.back();
      env->running.pop_back();
      ScopedSpan span(tracer, "graph.complete_task", "graph", task, iteration.id());
      env->scheduler->CompleteTask(task, env->now);
    }
    // Now and then a machine fails; its replicas go with it.
    if (shape.remove_every > 0 && round_no % shape.remove_every == shape.remove_every - 1) {
      const MachineId victim = static_cast<MachineId>(
          env->rng.NextUint64(env->cluster.machines().size()));
      if (env->cluster.machine(victim).alive) {
        for (TaskId task : env->cluster.RunningTasksOn(victim)) {
          env->running.erase(std::find(env->running.begin(), env->running.end(), task));
        }
        ScopedSpan span(tracer, "graph.remove_machine", "graph", victim, iteration.id());
        BlockStore* store = env->store.get();
        env->scheduler->RemoveMachine(victim, env->now,
                                      [store, victim] { store->OnMachineRemoved(victim); });
      }
    }
    // The burst: small jobs in fresh equivalence classes.
    for (int left = churn; left > 0;) {
      const int n = static_cast<int>(
          std::min<int64_t>(left, env->rng.NextInt(1, shape.max_job_tasks)));
      std::vector<TaskDescriptor> tasks = BurstJob(env.get(), n);
      ScopedSpan span(tracer, "graph.submit_job", "graph", round_no, iteration.id());
      const JobId job = env->scheduler->SubmitJob(JobType::kBatch, 0, std::move(tasks), env->now);
      for (TaskId task : env->cluster.job(job).tasks) {
        pending.emplace(task, span.start_ns());
      }
      submitted += static_cast<uint64_t>(n);
      left -= n;
    }
    run_round(round_no, iteration_start, iteration.id());
    ++round_no;
  }
  const int64_t measured_end = NowNs();
  const double window_s = static_cast<double>(measured_end - window_start) / 1e9;
  const uint64_t rounds_in_window = round_no;
  const uint64_t placed_in_window = placed;
  const double busy_in_window_s = busy_s;

  // Drain: rounds without new work until every burst task is placed.
  for (int guard = 0; guard < 20 && !pending.empty(); ++guard) {
    run_round(round_no++, NowNs(), 0);
  }
  round_ms.resize(rounds_in_window);

  // Output checks.
  uint64_t waiting = 0;
  for (const auto& [task, send_ns] : pending) {
    if (env->cluster.HasTask(task) && env->cluster.task(task).state == TaskState::kWaiting) {
      ++waiting;
    } else {
      result.check_failures.push_back("task " + std::to_string(task) +
                                      " was never reported placed but is not waiting");
    }
    latency_ms.AddNever(send_ns);
  }
  const SchedulerEventCounters& ignored = env->scheduler->event_counters();
  const uint64_t lost = ignored.ignored_task_submissions + ignored.ignored_task_completions;
  CheckConservation("locality_burst", submitted, placed, waiting, lost, &result.check_failures);
  if (config.break_output) {
    BreakForSelfTest(&env->cluster);
  }
  CheckClusterInvariants(env->cluster, "locality_burst", &result.check_failures);
  CheckIntegrity(&env->cluster, &env->scheduler->graph_manager(), "locality_burst",
                 &result.check_failures);
  result.attempted = submitted;
  result.failed = waiting + lost;

  const TimingSummary place = latency_ms.Summarize(0.9, window_s * 1e3);
  // p99 is reported per layer only; see METRICS.md.
  const TimingSummary place_p99 = latency_ms.Summarize(0.99, window_s * 1e3);
  const TimingSummary round = Summarize(round_ms, 0.9);
  result.end_to_end = {
      {"place_p50_ms", place.p50, "ms", place.samples},
      {"place_p90_ms", place.tail, "ms", place.samples},
      {"round_p50_ms", round.p50, "ms", round.samples},
      {"round_p90_ms", round.tail, "ms", round.samples},
      // Placements come a round (~900 tasks) at a time, too coarse for
      // per-second windows: the rate is over the loop's whole busy time
      // (event calls and rounds), leaving out the benchmark's input
      // generation and bookkeeping.
      {"tasks_per_s", static_cast<double>(placed_in_window) / busy_in_window_s, "1/s",
       placed_in_window},
      {"spread_cost", std::accumulate(spread.begin(), spread.end(), 0.0) /
                          static_cast<double>(std::max<size_t>(1, spread.size())),
       "cost", spread.size()},
      {"setup_s", Median(setup_s), "s", setup_s.size()},
      {"peak_rss_mb", rss.Read(), "MB", 0},
  };
  rounds.Report(&result.per_layer);
  result.per_layer.push_back(
      {"quality.locality_share", input_bytes > 0 ? local_bytes / input_bytes : 0, "ratio", 0});
  result.per_layer.push_back({"trace.place_p50_ms", place.p50, "ms", place.samples});
  result.per_layer.push_back({"trace.place_p90_ms", place.tail, "ms", place.samples});
  result.per_layer.push_back({"trace.place_p99_ms", place_p99.tail, "ms", place_p99.samples});
  result.per_layer.push_back({"trace.round_p50_ms", round.p50, "ms", round.samples});
  if (tracer != nullptr) {
    result.spans = tracer->Collect();
    result.per_layer.push_back(
        {"trace.spans", static_cast<double>(result.spans.size()), "count", 0});
    ReportSelfTime(result.spans, window_s * 1e3, &result);
  }
  return result;
}

}  // namespace perfbench
