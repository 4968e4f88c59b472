#include "src/workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>

namespace perfbench {

using firmament::FlowNetworkView;
using firmament::SchedulerRoundResult;
using firmament::SolveOutcome;

namespace {

double UsToMs(uint64_t us) { return static_cast<double>(us) / 1e3; }

double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

void RoundAccumulator::Add(const SchedulerRoundResult& result, double start, double apply) {
  ++rounds;
  const firmament::SolveStats& solve = result.solver_stats;
  update_ms.push_back(UsToMs(result.graph_update_us));
  solve_ms.push_back(UsToMs(result.algorithm_runtime_us));
  view_prep_ms.push_back(UsToMs(solve.view_prep_us));
  start_ms.push_back(start >= 0 ? start
                                : UsToMs(result.graph_update_us + result.algorithm_runtime_us));
  apply_ms.push_back(apply >= 0 ? apply : UsToMs(result.total_runtime_us));
  busy_ms += UsToMs(result.graph_update_us + result.algorithm_runtime_us +
                    result.total_runtime_us);
  patched_views += solve.view_prep == FlowNetworkView::PrepareResult::kPatched ? 1 : 0;
  relaxation_wins += solve.algorithm.find("relaxation") != std::string::npos ? 1 : 0;
  degraded += result.outcome == SolveOutcome::kDegraded ? 1 : 0;
  iterations += solve.iterations;
  deltas += result.deltas.size();
  preemptions += result.tasks_preempted;
  migrations += result.tasks_migrated;
}

void RoundAccumulator::AddUpdateStats(const firmament::UpdateRoundStats& stats) {
  class_hits += stats.class_cache_hits;
  class_misses += stats.class_cache_misses;
  tasks_refreshed += stats.tasks_refreshed;
}

void RoundAccumulator::Report(std::vector<Metric>* out) const {
  const double n = rounds == 0 ? 1.0 : static_cast<double>(rounds);
  auto q = [](const std::vector<double>& v, double quantile) {
    return Summarize(v, quantile).tail;
  };
  out->push_back({"graph.update_ms.p50", Median(update_ms), "ms", update_ms.size()});
  out->push_back({"graph.update_ms.p90", q(update_ms, 0.9), "ms", update_ms.size()});
  out->push_back({"graph.class_cache_hit_rate", Share(class_hits, class_hits + class_misses),
                  "ratio", 0});
  out->push_back({"graph.tasks_refreshed", static_cast<double>(tasks_refreshed) / n,
                  "tasks/round", 0});
  out->push_back({"view.prep_ms.p50", Median(view_prep_ms), "ms", view_prep_ms.size()});
  out->push_back({"view.patched_share", Share(patched_views, rounds), "ratio", 0});
  out->push_back({"solver.solve_ms.p50", Median(solve_ms), "ms", solve_ms.size()});
  out->push_back({"solver.solve_ms.p90", q(solve_ms, 0.9), "ms", solve_ms.size()});
  out->push_back({"solver.iterations", static_cast<double>(iterations) / n, "count/round", 0});
  out->push_back({"solver.win_share.relaxation", Share(relaxation_wins, rounds), "ratio", 0});
  out->push_back({"solver.degraded_share", Share(degraded, rounds), "ratio", 0});
  out->push_back({"round.start_ms.p50", Median(start_ms), "ms", start_ms.size()});
  out->push_back({"round.apply_ms.p50", Median(apply_ms), "ms", apply_ms.size()});
  out->push_back({"round.deltas", static_cast<double>(deltas) / n, "count/round", 0});
  out->push_back({"round.preemptions", static_cast<double>(preemptions) / n, "count/round", 0});
  out->push_back({"round.migrations", static_cast<double>(migrations) / n, "count/round", 0});
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ThreadCpuShare::Sample(int64_t wall_ns) {
  timespec cpu{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
  const int64_t cpu_ns = static_cast<int64_t>(cpu.tv_sec) * 1'000'000'000 + cpu.tv_nsec;
  if (first_wall_ns_ < 0) {
    first_wall_ns_ = wall_ns;
    first_cpu_ns_ = cpu_ns;
  }
  last_wall_ns_ = wall_ns;
  last_cpu_ns_ = cpu_ns;
}

double ThreadCpuShare::Share() const {
  const int64_t wall = last_wall_ns_ - first_wall_ns_;
  return first_wall_ns_ < 0 || wall <= 0
             ? 0.0
             : static_cast<double>(last_cpu_ns_ - first_cpu_ns_) / static_cast<double>(wall);
}

void CheckRoundOutcome(const SchedulerRoundResult& result, std::vector<std::string>* failures) {
  if (result.outcome != SolveOutcome::kOptimal && result.outcome != SolveOutcome::kDegraded) {
    failures->push_back("round outcome " + std::to_string(static_cast<int>(result.outcome)) +
                        " is neither optimal nor degraded");
  }
}

double SpreadCost(const firmament::ClusterState& cluster) {
  double cost = 0;
  for (const firmament::MachineDescriptor& machine : cluster.machines()) {
    if (machine.alive) {
      cost += 0.5 * machine.running_tasks * (machine.running_tasks - 1);
    }
  }
  return cost;
}

void AddSolvePhaseSpans(Tracer* tracer, const SchedulerRoundResult& result, uint64_t parent,
                        uint64_t key, int64_t start_ns, int64_t cells) {
  const int64_t update_ns = static_cast<int64_t>(result.graph_update_us) * 1000 / cells;
  const int64_t solve_ns = static_cast<int64_t>(result.algorithm_runtime_us) * 1000 / cells;
  const int64_t prep_ns = std::min(
      solve_ns, static_cast<int64_t>(result.solver_stats.view_prep_us) * 1000 / cells);
  const int64_t solve_start = start_ns + update_ns;
  tracer->Add({"graph.update", "graph", start_ns, solve_start, 0, parent, key, 0});
  const uint64_t solve = tracer->Add(
      {"solver.solve", "solver", solve_start, solve_start + solve_ns, 0, parent, key, 0});
  tracer->Add({"view.prep", "view", solve_start, solve_start + prep_ns, 0, solve, key, 0});
}

void ReportStages(const std::vector<TaskLink>& links, WorkloadResult* result) {
  const std::vector<TaskStages> stages = DeriveTaskStages(result->spans, links);
  std::vector<double> admit;
  std::vector<double> queue;
  for (const TaskStages& t : stages) {
    admit.push_back(t.stage_ms[kAdmitWait]);
    queue.push_back(t.stage_ms[kRoundQueue]);
  }
  const TimingSummary a = Summarize(admit, 0.99);
  const TimingSummary q = Summarize(queue, 0.99);
  std::vector<Metric>& layer = result->per_layer;
  layer.push_back({"service.admit_wait_ms.p50", a.p50, "ms", a.samples});
  layer.push_back({"service.admit_wait_ms.p99", a.tail, "ms", a.samples});
  layer.push_back({"service.round_queue_ms.p50", q.p50, "ms", q.samples});
  layer.push_back({"service.round_queue_ms.p99", q.tail, "ms", q.samples});
  result->notes.push_back("stage reconciliation (mean over the tasks ranked within 0.5% of "
                          "each quantile; " + std::to_string(stages.size()) + " tasks):");
  for (double quantile : {0.5, 0.99}) {
    const Reconciliation r = Reconcile(stages, quantile);
    const std::string name = quantile == 0.5 ? "p50" : "p99";
    std::string text = "  " + name + " (" + std::to_string(r.band) + " tasks): latency " +
                       std::to_string(r.latency_ms) + " ms =";
    for (int s = 0; s < kNumStages; ++s) {
      text += " " + std::string(StageName(s)) + " " + std::to_string(r.stage_ms[s]) + " +";
    }
    text += " unattributed " + std::to_string(r.unattributed_ms) + " ms";
    result->notes.push_back(text);
    layer.push_back({"recon." + name + ".unattributed_ms", r.unattributed_ms, "ms", r.band});
  }
}

void ReportSelfTime(const std::vector<Span>& spans, double wall_ms, WorkloadResult* result) {
  std::map<std::string, int64_t> self = SelfTimeByLayer(spans);
  result->notes.push_back("layer self time (traced run, wall " + std::to_string(wall_ms) +
                          " ms):");
  for (const auto& [layer, ns] : self) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-12s %12.3f ms  %6.1f%% of wall", layer.c_str(),
                  static_cast<double>(ns) / 1e6,
                  wall_ms > 0 ? 100.0 * static_cast<double>(ns) / 1e6 / wall_ms : 0.0);
    result->notes.push_back(line);
    result->per_layer.push_back({layer + ".self_ms", static_cast<double>(ns) / 1e6, "ms", 0});
  }
}

}  // namespace perfbench
