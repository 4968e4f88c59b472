// Stress and regression tests for the solver suite: heavier randomized
// sweeps, warm-start sequences under adversarial churn, the escalation path
// of incremental cost scaling, and solver/DIMACS interoperability.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/flow/dimacs.h"
#include "src/flow/flow_network_view.h"
#include "src/flow/graph.h"
#include "src/solvers/cost_scaling.h"
#include "src/solvers/racing_solver.h"
#include "src/solvers/relaxation.h"
#include "src/solvers/solution_checker.h"
#include "src/solvers/solver_util.h"
#include "src/solvers/successive_shortest_path.h"
#include "tests/graph_generators.h"

namespace firmament {
namespace {

// ---------------------------------------------------------------------------
// Heavier randomized agreement sweeps (relaxation vs cost scaling vs SSP).
// ---------------------------------------------------------------------------

struct StressParam {
  uint64_t seed;
  int tasks;
  int machines;
  int slots;
  int prefs;
};

class SolverStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(SolverStressTest, FastSolversAgreeOnLargerGraphs) {
  const StressParam& param = GetParam();
  SchedulingGraphSpec spec;
  spec.seed = param.seed;
  spec.num_tasks = param.tasks;
  spec.num_machines = param.machines;
  spec.slots_per_machine = param.slots;
  spec.preference_arcs_per_task = param.prefs;
  spec.num_racks = 1 + param.machines / 16;
  FlowNetwork reference = MakeSchedulingGraph(spec);

  Relaxation relaxation;
  FlowNetwork relax_net = reference;
  SolveStats relax_stats = relaxation.Solve(&relax_net);
  ASSERT_EQ(relax_stats.outcome, SolveOutcome::kOptimal);
  EXPECT_TRUE(CheckOptimality(relax_net).ok());

  CostScaling cost_scaling;
  FlowNetwork cs_net = reference;
  SolveStats cs_stats = cost_scaling.Solve(&cs_net);
  ASSERT_EQ(cs_stats.outcome, SolveOutcome::kOptimal);
  EXPECT_TRUE(CheckOptimality(cs_net).ok());
  EXPECT_EQ(relax_stats.total_cost, cs_stats.total_cost);

  SuccessiveShortestPath ssp;
  FlowNetwork ssp_net = reference;
  SolveStats ssp_stats = ssp.Solve(&ssp_net);
  ASSERT_EQ(ssp_stats.outcome, SolveOutcome::kOptimal);
  EXPECT_EQ(relax_stats.total_cost, ssp_stats.total_cost);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SolverStressTest,
    ::testing::Values(StressParam{1, 300, 40, 4, 4}, StressParam{2, 500, 20, 8, 2},
                      StressParam{3, 200, 60, 2, 8}, StressParam{4, 800, 50, 6, 3},
                      StressParam{5, 100, 8, 30, 5}, StressParam{6, 1000, 100, 4, 1},
                      StressParam{7, 64, 64, 1, 6}, StressParam{8, 400, 10, 50, 2}));

// Oversubscribed graphs (more tasks than slots) must still solve: surplus
// drains through unscheduled aggregators.
class OversubscribedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OversubscribedTest, SolvableViaUnscheduledAggregators) {
  SchedulingGraphSpec spec;
  spec.seed = GetParam();
  spec.num_tasks = 200;
  spec.num_machines = 10;
  spec.slots_per_machine = 2;  // only 20 slots for 200 tasks
  FlowNetwork reference = MakeSchedulingGraph(spec);
  for (auto make : {0, 1}) {
    FlowNetwork net = reference;
    std::unique_ptr<McmfSolver> solver;
    if (make == 0) {
      solver = std::make_unique<Relaxation>();
    } else {
      solver = std::make_unique<CostScaling>();
    }
    SolveStats stats = solver->Solve(&net);
    ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal) << solver->name();
    CheckResult check = CheckOptimality(net);
    EXPECT_TRUE(check.ok()) << solver->name() << ": " << check.message;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OversubscribedTest, ::testing::Range<uint64_t>(0, 8));

// ---------------------------------------------------------------------------
// Long warm-start sequences: incremental solvers must track the optimum
// across many rounds of heavy churn (removal bursts, arrival bursts, cost
// storms).
// ---------------------------------------------------------------------------

TEST(IncrementalSequenceTest, SurvivesRemovalBursts) {
  SchedulingGraphSpec spec;
  spec.num_tasks = 120;
  spec.num_machines = 12;
  spec.seed = 77;
  FlowNetwork net = MakeSchedulingGraph(spec);
  net.EnableChangeRecording(true);
  CostScalingOptions options;
  options.incremental = true;
  CostScaling incremental(options);
  Rng rng(5);

  for (int round = 0; round < 8; ++round) {
    SolveStats stats = incremental.Solve(&net);
    ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal) << "round " << round;
    net.ClearChanges();
    // Remove a burst of task nodes (completion storm).
    std::vector<NodeId> tasks;
    for (NodeId node : net.ValidNodes()) {
      if (net.Kind(node) == NodeKind::kTask) {
        tasks.push_back(node);
      }
    }
    NodeId sink = kInvalidNodeId;
    for (NodeId node : net.ValidNodes()) {
      if (net.Kind(node) == NodeKind::kSink) {
        sink = node;
      }
    }
    ASSERT_NE(sink, kInvalidNodeId);
    for (int i = 0; i < 10 && !tasks.empty(); ++i) {
      size_t idx = rng.NextUint64(tasks.size());
      net.RemoveNode(tasks[idx]);
      net.SetNodeSupply(sink, net.Supply(sink) + 1);
      tasks[idx] = tasks.back();
      tasks.pop_back();
    }
    FlowNetwork scratch = net;
    CostScaling fresh;
    SolveStats expected = fresh.Solve(&scratch);
    FlowNetwork warm = net;
    CostScaling probe(options);
    // Verify against a one-shot incremental solve too (probe has no state,
    // so it behaves like from-scratch; the real check happens next round).
    ASSERT_EQ(probe.Solve(&warm).total_cost, expected.total_cost);
  }
}

TEST(IncrementalSequenceTest, CostStormKeepsOptimality) {
  // Rapidly mutating every unscheduled arc cost (as wait times do every
  // round) must not desynchronize the warm solver.
  SchedulingGraphSpec spec;
  spec.num_tasks = 80;
  spec.seed = 13;
  FlowNetwork net = MakeSchedulingGraph(spec);
  net.EnableChangeRecording(true);
  CostScalingOptions options;
  options.incremental = true;
  CostScaling incremental(options);
  Rng rng(99);

  std::vector<ArcId> arcs;
  for (ArcId arc = 0; arc < net.ArcCapacityBound(); ++arc) {
    if (net.IsValidArc(arc)) {
      arcs.push_back(arc);
    }
  }
  for (int round = 0; round < 10; ++round) {
    SolveStats stats = incremental.Solve(&net);
    ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal) << "round " << round;
    FlowNetwork scratch = net;
    CostScaling fresh;
    EXPECT_EQ(fresh.Solve(&scratch).total_cost, stats.total_cost) << "round " << round;
    net.ClearChanges();
    for (int i = 0; i < 30; ++i) {
      ArcId arc = arcs[rng.NextUint64(arcs.size())];
      if (net.IsValidArc(arc)) {
        net.SetArcCost(arc, rng.NextInt(0, 200));
      }
    }
  }
}

TEST(IncrementalSequenceTest, EscalationPathStaysCorrect) {
  // A huge arriving job right after a quiet round forces incremental cost
  // scaling's ε escalation (violation-based start is too small for the
  // contention); the result must still be optimal.
  SchedulingGraphSpec spec;
  spec.num_tasks = 50;
  spec.num_machines = 10;
  spec.slots_per_machine = 3;
  spec.seed = 4;
  FlowNetwork net = MakeSchedulingGraph(spec);
  net.EnableChangeRecording(true);
  CostScalingOptions options;
  options.incremental = true;
  CostScaling incremental(options);
  ASSERT_EQ(incremental.Solve(&net).outcome, SolveOutcome::kOptimal);
  net.ClearChanges();

  NodeId sink = kInvalidNodeId;
  std::vector<NodeId> machines;
  for (NodeId node : net.ValidNodes()) {
    if (net.Kind(node) == NodeKind::kSink) {
      sink = node;
    } else if (net.Kind(node) == NodeKind::kMachine) {
      machines.push_back(node);
    }
  }
  NodeId unsched = net.AddNode(0, NodeKind::kUnscheduled);
  ArcId unsched_sink = net.AddArc(unsched, sink, 0, 0);
  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    NodeId task = net.AddNode(1, NodeKind::kTask);
    net.AddArc(task, unsched, 1, 5000);  // much larger than any prior cost
    net.AddArc(task, machines[rng.NextUint64(machines.size())], 1, rng.NextInt(0, 10));
    net.SetNodeSupply(sink, net.Supply(sink) - 1);
    net.SetArcCapacity(unsched_sink, i + 1);
  }
  SolveStats warm = incremental.Solve(&net);
  ASSERT_EQ(warm.outcome, SolveOutcome::kOptimal);
  FlowNetwork scratch = net;
  CostScaling fresh;
  EXPECT_EQ(fresh.Solve(&scratch).total_cost, warm.total_cost);
  EXPECT_TRUE(CheckOptimality(net).ok());
}

// ---------------------------------------------------------------------------
// Racing solver under sustained churn with both winners occurring.
// ---------------------------------------------------------------------------

TEST(RacingSequenceTest, ManyRoundsRemainOptimalAndConsumeChanges) {
  SchedulingGraphSpec spec;
  spec.num_tasks = 150;
  spec.num_machines = 20;
  spec.seed = 10;
  FlowNetwork net = MakeSchedulingGraph(spec);
  net.EnableChangeRecording(true);
  RacingSolver racing;
  Rng rng(42);
  NodeId sink = kInvalidNodeId;
  for (NodeId node : net.ValidNodes()) {
    if (net.Kind(node) == NodeKind::kSink) {
      sink = node;
    }
  }
  std::vector<NodeId> machines;
  std::vector<NodeId> unscheds;
  for (NodeId node : net.ValidNodes()) {
    if (net.Kind(node) == NodeKind::kMachine) {
      machines.push_back(node);
    } else if (net.Kind(node) == NodeKind::kUnscheduled) {
      unscheds.push_back(node);
    }
  }
  for (int round = 0; round < 10; ++round) {
    SolveStats stats = racing.Solve(&net);
    ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal) << "round " << round;
    EXPECT_TRUE(net.Changes().empty());
    CheckResult check = CheckOptimality(net);
    EXPECT_TRUE(check.ok()) << "round " << round << ": " << check.message;
    // Churn: add a handful of tasks.
    for (int i = 0; i < 15; ++i) {
      NodeId task = net.AddNode(1, NodeKind::kTask);
      net.AddArc(task, unscheds[rng.NextUint64(unscheds.size())], 1, rng.NextInt(60, 120));
      net.AddArc(task, machines[rng.NextUint64(machines.size())], 1, rng.NextInt(0, 20));
      net.SetNodeSupply(sink, net.Supply(sink) - 1);
    }
    // Grow the unscheduled aggregators' sink capacity to stay feasible.
    for (NodeId u : unscheds) {
      for (ArcRef ref : net.Adjacency(u)) {
        if (!FlowNetwork::RefIsReverse(ref)) {
          ArcId arc = FlowNetwork::RefArc(ref);
          net.SetArcCapacity(arc, net.Capacity(arc) + 15);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DIMACS interoperability: solver results survive serialization.
// ---------------------------------------------------------------------------

class DimacsInteropTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DimacsInteropTest, RoundTrippedGraphHasSameOptimum) {
  TransportGraphSpec spec;
  spec.seed = GetParam();
  FlowNetwork original = MakeTransportGraph(spec);
  std::optional<FlowNetwork> parsed = ReadDimacs(WriteDimacs(original));
  ASSERT_TRUE(parsed.has_value());
  CostScaling solver_a;
  CostScaling solver_b;
  FlowNetwork net_a = original;
  SolveStats stats_a = solver_a.Solve(&net_a);
  SolveStats stats_b = solver_b.Solve(&*parsed);
  ASSERT_EQ(stats_a.outcome, stats_b.outcome);
  if (stats_a.outcome == SolveOutcome::kOptimal) {
    EXPECT_EQ(stats_a.total_cost, stats_b.total_cost);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DimacsInteropTest, ::testing::Range<uint64_t>(100, 110));

// ---------------------------------------------------------------------------
// Approximate solves: the budgeted flow is never *better* than optimal and
// the feasibility class of each algorithm holds (Table 2).
// ---------------------------------------------------------------------------

TEST(ApproximateSolveTest, CostScalingApproximationIsFeasibleAndNoCheaperThanOptimal) {
  SchedulingGraphSpec spec;
  spec.num_tasks = 2000;
  spec.num_machines = 100;
  spec.slots_per_machine = 10;
  spec.seed = 21;
  FlowNetwork reference = MakeSchedulingGraph(spec);
  FlowNetwork optimal_net = reference;
  CostScaling full;
  SolveStats optimal = full.Solve(&optimal_net);
  ASSERT_EQ(optimal.outcome, SolveOutcome::kOptimal);

  CostScalingOptions options;
  options.time_budget_us = 1;
  CostScaling budgeted(options);
  FlowNetwork net = reference;
  SolveStats stats = budgeted.Solve(&net);
  if (stats.outcome == SolveOutcome::kApproximate) {
    EXPECT_TRUE(CheckFeasibility(net).feasible);
    EXPECT_GE(net.TotalCost(), optimal.total_cost);
  }
}

TEST(ApproximateSolveTest, RelaxationApproximationLeavesSupplyUnrouted) {
  SchedulingGraphSpec spec;
  spec.num_tasks = 3000;
  spec.num_machines = 30;
  spec.slots_per_machine = 2;  // heavy contention => long relaxation run
  spec.seed = 8;
  FlowNetwork net = MakeSchedulingGraph(spec);
  RelaxationOptions options;
  options.time_budget_us = 1;
  Relaxation solver(options);
  SolveStats stats = solver.Solve(&net);
  if (stats.outcome == SolveOutcome::kApproximate) {
    // Pseudoflow: at least one node still has positive excess.
    int64_t positive = 0;
    for (NodeId node : net.ValidNodes()) {
      positive += std::max<int64_t>(0, net.Excess(node));
    }
    EXPECT_GT(positive, 0);
  }
}

// ---------------------------------------------------------------------------
// Price refine interactions.
// ---------------------------------------------------------------------------

TEST(PriceRefineTest, HandoffPotentialsAcceleratingWarmStartStayExact) {
  SchedulingGraphSpec spec;
  spec.num_tasks = 100;
  spec.seed = 31;
  FlowNetwork net = MakeSchedulingGraph(spec);
  Relaxation relaxation;
  ASSERT_EQ(relaxation.Solve(&net).outcome, SolveOutcome::kOptimal);
  std::vector<int64_t> refined;
  ASSERT_TRUE(PriceRefine(net, &refined));
  CostScalingOptions options;
  options.incremental = true;
  CostScaling warm(options);
  warm.ImportPotentials(refined);
  SolveStats stats = warm.Solve(&net);
  ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal);
  FlowNetwork scratch = net;
  CostScaling fresh;
  EXPECT_EQ(fresh.Solve(&scratch).total_cost, stats.total_cost);
}

// True when some node's adjacency slice no longer sits where a fresh CSR
// build would put it (directly after its dense predecessor's): the patch
// path relocated it to the arena tail.
bool HasRelocatedSlice(const FlowNetworkView& view) {
  for (uint32_t v = 0; v + 1 < view.num_nodes(); ++v) {
    if (view.adj_end(v) != view.first_out(v + 1)) {
      return true;
    }
  }
  return false;
}

// The racing solver refines prices on relaxation's persistent view instead
// of a freshly built one. On a patched view — tombstoned nodes and arcs,
// relocated adjacency slices — the potentials must equal
// PriceRefine(network)'s entry for entry.
TEST(PriceRefineTest, PatchedViewPotentialsEqualFreshViewRefine) {
  SchedulingGraphSpec spec;
  spec.num_tasks = 150;
  spec.num_machines = 12;
  spec.seed = 53;
  FlowNetwork net = MakeSchedulingGraph(spec);
  net.EnableChangeRecording(true);
  std::vector<NodeId> tasks;
  std::vector<NodeId> machines;
  NodeId sink = kInvalidNodeId;
  NodeId unscheduled = kInvalidNodeId;
  for (NodeId node : net.ValidNodes()) {
    switch (net.Kind(node)) {
      case NodeKind::kTask:
        tasks.push_back(node);
        break;
      case NodeKind::kMachine:
        machines.push_back(node);
        break;
      case NodeKind::kSink:
        sink = node;
        break;
      case NodeKind::kUnscheduled:
        unscheduled = node;
        break;
      default:
        break;
    }
  }
  Relaxation relaxation;
  Rng rng(59);
  int patched_rounds = 0;
  bool saw_tombstones = false;
  bool saw_relocation = false;
  for (int round = 0; round < 10; ++round) {
    SolveStats stats = relaxation.Solve(&net);
    ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal) << "round " << round;
    net.ClearChanges();
    if (stats.view_prep == FlowNetworkView::PrepareResult::kPatched) {
      const FlowNetworkView& view = relaxation.view();
      ++patched_rounds;
      saw_tombstones |= view.num_nodes() > view.num_live_nodes();
      saw_relocation |= HasRelocatedSlice(view);
      std::vector<int64_t> dense;
      ASSERT_TRUE(ComputeOptimalPotentials(view, &dense)) << "round " << round;
      std::vector<int64_t> on_view;
      view.ScatterPotentials(dense, &on_view);
      std::vector<int64_t> fresh;
      ASSERT_TRUE(PriceRefine(net, &fresh)) << "round " << round;
      EXPECT_EQ(on_view, fresh) << "round " << round;
    }
    // A small delta per round keeps the view on the patch path: one task
    // leaves (tombstones) and one arrives with preference arcs into the
    // machines' full slices (relocations).
    size_t victim = rng.NextUint64(tasks.size());
    net.RemoveNode(tasks[victim]);
    net.SetNodeSupply(sink, net.Supply(sink) + 1);
    tasks[victim] = tasks.back();
    tasks.pop_back();
    NodeId task = net.AddNode(1, NodeKind::kTask);
    net.AddArc(task, unscheduled, 1, rng.NextInt(50, 100));
    for (int p = 0; p < 3; ++p) {
      net.AddArc(task, machines[rng.NextUint64(machines.size())], 1, rng.NextInt(0, 25));
    }
    net.SetNodeSupply(sink, net.Supply(sink) - 1);
    tasks.push_back(task);
  }
  EXPECT_GE(patched_rounds, 5);
  EXPECT_TRUE(saw_tombstones);
  EXPECT_TRUE(saw_relocation);
}

TEST(TryProveOptimalTest, ProvesOptimalFlowsAndRejectsSuboptimal) {
  SchedulingGraphSpec spec;
  spec.seed = 3;
  FlowNetwork net = MakeSchedulingGraph(spec);
  std::vector<int64_t> potential;
  CostScaling solver;
  ASSERT_EQ(solver.Solve(&net).outcome, SolveOutcome::kOptimal);
  EXPECT_TRUE(TryProveOptimal(net, &potential, 64));
  // Break optimality: force flow onto an expensive unscheduled arc.
  for (ArcId arc = 0; arc < net.ArcCapacityBound(); ++arc) {
    if (net.IsValidArc(arc) && net.Flow(arc) > 0 && net.Cost(arc) > 0) {
      net.SetArcCost(arc, net.Cost(arc) + 100000);
      break;
    }
  }
  EXPECT_FALSE(TryProveOptimal(net, &potential, 64));
}

}  // namespace
}  // namespace firmament
