// Tests for the scheduler core: cluster state, flow graph manager, the three
// scheduling policies, placement extraction, and the end-to-end scheduler.

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/core/cluster.h"
#include "src/core/flow_graph_manager.h"
#include "src/core/load_spreading_policy.h"
#include "src/core/network_aware_policy.h"
#include "src/core/placement_extractor.h"
#include "src/core/quincy_policy.h"
#include "src/core/scheduler.h"
#include "src/sim/block_store.h"
#include "src/solvers/relaxation.h"
#include "src/solvers/solution_checker.h"

namespace firmament {
namespace {

constexpr SimTime kSec = kMicrosPerSecond;

// Builds a small cluster: `racks` racks x `per_rack` machines.
void BuildCluster(ClusterState* cluster, int racks, int per_rack, MachineSpec spec,
                  FirmamentScheduler* scheduler = nullptr) {
  for (int r = 0; r < racks; ++r) {
    RackId rack = cluster->AddRack();
    for (int m = 0; m < per_rack; ++m) {
      if (scheduler != nullptr) {
        scheduler->AddMachine(rack, spec);
      } else {
        cluster->AddMachine(rack, spec);
      }
    }
  }
}

std::vector<TaskDescriptor> MakeTasks(int n, SimTime runtime = 10 * kSec) {
  std::vector<TaskDescriptor> tasks(n);
  for (TaskDescriptor& task : tasks) {
    task.runtime = runtime;
  }
  return tasks;
}

// ---------------------------------------------------------------------------
// ClusterState
// ---------------------------------------------------------------------------

TEST(ClusterStateTest, TopologyBookkeeping) {
  ClusterState cluster;
  RackId r0 = cluster.AddRack();
  RackId r1 = cluster.AddRack();
  MachineId m0 = cluster.AddMachine(r0, {.slots = 4});
  MachineId m1 = cluster.AddMachine(r1, {.slots = 8});
  EXPECT_EQ(cluster.num_racks(), 2u);
  EXPECT_EQ(cluster.num_machines(), 2u);
  EXPECT_EQ(cluster.RackOf(m0), r0);
  EXPECT_EQ(cluster.RackOf(m1), r1);
  EXPECT_EQ(cluster.TotalSlots(), 12);
  cluster.RemoveMachine(m0);
  EXPECT_EQ(cluster.num_machines(), 1u);
  EXPECT_TRUE(cluster.MachinesInRack(r0).empty());
  EXPECT_EQ(cluster.TotalSlots(), 8);
}

TEST(ClusterStateTest, TaskLifecycleUpdatesMachineLoad) {
  ClusterState cluster;
  RackId rack = cluster.AddRack();
  MachineId machine = cluster.AddMachine(rack, {.slots = 2});
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  TaskDescriptor desc;
  desc.bandwidth_request_mbps = 100;
  TaskId task = cluster.AddTaskToJob(job, desc);

  cluster.PlaceTask(task, machine, 5 * kSec);
  EXPECT_EQ(cluster.machine(machine).running_tasks, 1);
  EXPECT_EQ(cluster.machine(machine).used_bandwidth_mbps, 100);
  EXPECT_EQ(cluster.task(task).state, TaskState::kRunning);
  EXPECT_EQ(cluster.UsedSlots(), 1);

  cluster.EvictTask(task, 7 * kSec);
  EXPECT_EQ(cluster.machine(machine).running_tasks, 0);
  EXPECT_EQ(cluster.machine(machine).used_bandwidth_mbps, 0);
  EXPECT_EQ(cluster.task(task).state, TaskState::kWaiting);
  EXPECT_EQ(cluster.task(task).total_wait, 5 * kSec);

  cluster.PlaceTask(task, machine, 9 * kSec);
  EXPECT_EQ(cluster.task(task).total_wait, 7 * kSec);  // 5s + 2s after eviction
  cluster.CompleteTask(task, 20 * kSec);
  EXPECT_EQ(cluster.task(task).state, TaskState::kCompleted);
  EXPECT_EQ(cluster.machine(machine).running_tasks, 0);
  cluster.ForgetTask(task);
  EXPECT_FALSE(cluster.HasTask(task));
}

TEST(ClusterStateTest, RefreshStatisticsRebuildsFromTasks) {
  ClusterState cluster;
  RackId rack = cluster.AddRack();
  MachineId machine = cluster.AddMachine(rack, {.slots = 4});
  JobId job = cluster.SubmitJob(JobType::kService, 1, 0);
  TaskId t0 = cluster.AddTaskToJob(job, {});
  TaskId t1 = cluster.AddTaskToJob(job, {});
  cluster.PlaceTask(t0, machine, 0);
  cluster.PlaceTask(t1, machine, 0);
  // Corrupt the statistics, then refresh.
  cluster.mutable_machine(machine).running_tasks = 99;
  cluster.RefreshStatistics();
  EXPECT_EQ(cluster.machine(machine).running_tasks, 2);
}

// ---------------------------------------------------------------------------
// FlowGraphManager
// ---------------------------------------------------------------------------

TEST(FlowGraphManagerTest, BuildsSinkMachinesAndTasks) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FlowGraphManager manager(&cluster, &policy);
  BuildCluster(&cluster, 1, 3, {.slots = 2});
  for (const MachineDescriptor& machine : cluster.machines()) {
    manager.AddMachine(machine.id);
  }
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  TaskId task = cluster.AddTaskToJob(job, {});
  manager.AddTask(task, 0);

  const FlowNetwork& net = *manager.network();
  // sink + cluster agg + 3 machines + 1 unscheduled + 1 task = 7 nodes.
  EXPECT_EQ(net.NumNodes(), 7u);
  EXPECT_EQ(net.Supply(manager.sink()), -1);
  EXPECT_EQ(net.Supply(manager.NodeForTask(task)), 1);
  EXPECT_EQ(net.Kind(manager.NodeForTask(task)), NodeKind::kTask);
  EXPECT_NE(manager.NodeForMachine(0), kInvalidNodeId);
  EXPECT_EQ(manager.TaskForNode(manager.NodeForTask(task)), task);
  EXPECT_EQ(manager.MachineForNode(manager.NodeForMachine(2)), 2u);
}

TEST(FlowGraphManagerTest, RemoveTaskRestoresSinkSupplyAndUnschedCapacity) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FlowGraphManager manager(&cluster, &policy);
  BuildCluster(&cluster, 1, 2, {.slots = 2});
  manager.AddMachine(0);
  manager.AddMachine(1);
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  TaskId t0 = cluster.AddTaskToJob(job, {});
  TaskId t1 = cluster.AddTaskToJob(job, {});
  manager.AddTask(t0, 0);
  manager.AddTask(t1, 0);
  EXPECT_EQ(manager.network()->Supply(manager.sink()), -2);
  manager.RemoveTask(t0);
  EXPECT_EQ(manager.network()->Supply(manager.sink()), -1);
  EXPECT_EQ(manager.num_task_nodes(), 1u);
  manager.RemoveTask(t1);
  EXPECT_EQ(manager.network()->Supply(manager.sink()), 0);
  // Unscheduled aggregator for the job disappears with its last task:
  // sink + cluster agg + 2 machines remain.
  EXPECT_EQ(manager.network()->NumNodes(), 4u);
}

TEST(FlowGraphManagerTest, UpdateRoundIsIncremental) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FlowGraphManager manager(&cluster, &policy);
  BuildCluster(&cluster, 1, 4, {.slots = 2});
  for (const MachineDescriptor& machine : cluster.machines()) {
    manager.AddMachine(machine.id);
  }
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  TaskId task = cluster.AddTaskToJob(job, {});
  manager.AddTask(task, 0);
  manager.UpdateRound(0);
  manager.network()->ClearChanges();
  // A second round with identical state must record no graph changes.
  manager.UpdateRound(0);
  EXPECT_TRUE(manager.network()->Changes().empty());
  // Advancing time only touches unscheduled-cost arcs.
  manager.UpdateRound(10 * kSec);
  for (const GraphChange& change : manager.network()->Changes()) {
    EXPECT_EQ(change.kind, GraphChange::Kind::kArcCost);
  }
}

TEST(FlowGraphManagerTest, MachineRemovalPurgesArcs) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FlowGraphManager manager(&cluster, &policy);
  BuildCluster(&cluster, 1, 2, {.slots = 2});
  manager.AddMachine(0);
  manager.AddMachine(1);
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  TaskId task = cluster.AddTaskToJob(job, {});
  manager.AddTask(task, 0);
  manager.UpdateRound(0);
  size_t arcs_before = manager.network()->NumArcs();
  manager.RemoveMachine(1);
  cluster.RemoveMachine(1);
  EXPECT_LT(manager.network()->NumArcs(), arcs_before);
  // The next round must not crash on stale arc references.
  manager.UpdateRound(kSec);
  EXPECT_EQ(manager.NodeForMachine(1), kInvalidNodeId);
}

// ---------------------------------------------------------------------------
// Flat per-task arc lists: the DiffArcs journal
// ---------------------------------------------------------------------------

// Serves scripted task arcs: `specific` (TaskSpecificArcs) and `klass`
// (EquivClassArcs of the one class every task belongs to), as (machine,
// rank, capacity, cost). Every round refreshes every task and recomputes the
// class, so each UpdateRound diffs the scripts against the held arcs.
class ScriptedArcsPolicy : public SchedulingPolicy {
 public:
  struct Arc {
    MachineId machine;
    int32_t rank;
    int64_t capacity;
    int64_t cost;
  };

  std::string name() const override { return "scripted"; }
  void Initialize(FlowGraphManager* manager) override { manager_ = manager; }
  void OnTaskAdded(const TaskDescriptor& task) override { tasks_.push_back(task.id); }
  void CollectDirty(const PolicyUpdate& update, PolicyDirtySink* sink) override {
    (void)update;
    for (TaskId task : tasks_) {
      sink->MarkTask(task);
    }
    sink->MarkEquivClass(kClass);
  }
  UnscheduledRamp UnscheduledCostRamp(const TaskDescriptor& task) override {
    (void)task;
    return {.base_cost = 1000, .cost_per_bucket = 0};
  }
  EquivClass TaskEquivClass(const TaskDescriptor& task) override {
    (void)task;
    return kClass;
  }
  void EquivClassArcs(const TaskDescriptor& representative, SimTime now,
                      std::vector<ArcSpec>* out) override {
    (void)representative;
    (void)now;
    Emit(klass, out);
  }
  void TaskSpecificArcs(const TaskDescriptor& task, SimTime now,
                        std::vector<ArcSpec>* out) override {
    (void)task;
    (void)now;
    Emit(specific, out);
  }
  void AggregatorArcs(NodeId aggregator, std::vector<ArcSpec>* out) override {
    (void)aggregator;
    (void)out;
  }

  std::vector<Arc> specific;
  std::vector<Arc> klass;

 private:
  static constexpr EquivClass kClass = 7;
  void Emit(const std::vector<Arc>& arcs, std::vector<ArcSpec>* out) const {
    for (const Arc& arc : arcs) {
      out->push_back({.dst = manager_->NodeForMachine(arc.machine),
                      .capacity = arc.capacity,
                      .cost = arc.cost,
                      .rank = arc.rank});
    }
  }

  FlowGraphManager* manager_ = nullptr;
  std::vector<TaskId> tasks_;
};

using JournalEntry = std::pair<GraphChange::Kind, uint32_t>;

// Runs one UpdateRound with the given scripts and returns its journal
// (kind, id) sequence; the manager must stay internally consistent.
std::vector<JournalEntry> ScriptedRound(FlowGraphManager* manager, ScriptedArcsPolicy* policy,
                                        std::vector<ScriptedArcsPolicy::Arc> specific,
                                        std::vector<ScriptedArcsPolicy::Arc> klass) {
  policy->specific = std::move(specific);
  policy->klass = std::move(klass);
  manager->network()->ClearChanges();
  manager->UpdateRound(0);
  std::vector<JournalEntry> journal;
  for (const GraphChange& change : manager->network()->Changes()) {
    journal.emplace_back(change.kind, change.id);
  }
  std::vector<std::string> violations;
  manager->CheckIntegrity(&violations);
  EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations.front());
  return journal;
}

// Pins the task DiffArcs journal: reused (dst, rank) keys get SetArcCost then
// SetArcCapacity and new keys AddArc, both in desired order, a duplicate key
// is ignored (first wins), and leftovers are removed in ascending
// (dst, rank) order — which fixes the free list and so every later arc id.
TEST(TaskArcListTest, DiffJournalIsExact) {
  using Kind = GraphChange::Kind;
  ClusterState cluster;
  ScriptedArcsPolicy policy;
  FlowGraphManager manager(&cluster, &policy);
  BuildCluster(&cluster, 1, 6, {.slots = 4});
  for (const MachineDescriptor& machine : cluster.machines()) {
    manager.AddMachine(machine.id);
  }
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  manager.AddTask(cluster.AddTaskToJob(job, {}), 0);
  const NodeId task_node = manager.NodeForTask(cluster.job(job).tasks[0]);
  const FlowNetwork& net = *manager.network();
  auto arc_to = [&](MachineId machine, int64_t cost) {
    for (ArcRef ref : net.Adjacency(task_node)) {
      ArcId arc = FlowNetwork::RefArc(ref);
      if (!FlowNetwork::RefIsReverse(ref) && net.Dst(arc) == manager.NodeForMachine(machine) &&
          net.Cost(arc) == cost) {
        return arc;
      }
    }
    ADD_FAILURE() << "no arc to machine " << machine << " at cost " << cost;
    return kInvalidArcId;
  };

  // Fresh task: a continuation arc to m1 collides with the class arc to
  // m1 (the specific arc comes first and wins), and the class repeats m2.
  std::vector<JournalEntry> journal = ScriptedRound(
      &manager, &policy, {{1, 0, 1, 5}},
      {{0, 0, 1, 10}, {1, 0, 1, 11}, {2, 0, 1, 12}, {2, 0, 1, 99}, {3, 0, 1, 13}});
  ASSERT_EQ(journal.size(), 4u);
  const ArcId a1 = arc_to(1, 5);
  const ArcId a0 = arc_to(0, 10);
  const ArcId a2 = arc_to(2, 12);
  const ArcId a3 = arc_to(3, 13);
  EXPECT_EQ(journal, (std::vector<JournalEntry>{
                         {Kind::kAddArc, a1}, {Kind::kAddArc, a0}, {Kind::kAddArc, a2},
                         {Kind::kAddArc, a3}}));

  // Reordered, every cost and capacity moved, and a duplicate of a held
  // key (first wins: cost 23, not 98).
  journal = ScriptedRound(&manager, &policy, {},
                          {{3, 0, 2, 23}, {0, 0, 2, 20}, {3, 0, 3, 98}, {1, 0, 2, 21},
                           {2, 0, 2, 22}});
  EXPECT_EQ(journal, (std::vector<JournalEntry>{
                         {Kind::kArcCost, a3}, {Kind::kArcCapacity, a3},
                         {Kind::kArcCost, a0}, {Kind::kArcCapacity, a0},
                         {Kind::kArcCost, a1}, {Kind::kArcCapacity, a1},
                         {Kind::kArcCost, a2}, {Kind::kArcCapacity, a2}}));
  EXPECT_EQ(net.Cost(a3), 23);

  // Growing: new keys are added in desired order — a rank-1 arc to m5
  // before m4's, then m5's rank 0 — after the reused arcs' updates.
  journal = ScriptedRound(&manager, &policy, {},
                          {{0, 0, 2, 30}, {5, 1, 1, 51}, {1, 0, 2, 21}, {4, 0, 1, 40},
                           {2, 0, 2, 22}, {3, 0, 2, 23}, {5, 0, 1, 50}});
  ASSERT_EQ(journal.size(), 4u);
  const ArcId a5r1 = arc_to(5, 51);
  const ArcId a4 = arc_to(4, 40);
  const ArcId a5r0 = arc_to(5, 50);
  EXPECT_EQ(journal, (std::vector<JournalEntry>{
                         {Kind::kArcCost, a0}, {Kind::kAddArc, a5r1}, {Kind::kAddArc, a4},
                         {Kind::kAddArc, a5r0}}));

  // Shrinking: leftovers go in ascending (dst, rank) order — m1, m3, m4,
  // then m5 rank 0 before rank 1 — not in insertion or desired order.
  journal = ScriptedRound(&manager, &policy, {}, {{2, 0, 2, 32}, {0, 0, 2, 30}});
  EXPECT_EQ(journal, (std::vector<JournalEntry>{
                         {Kind::kArcCost, a2}, {Kind::kRemoveArc, a1},
                         {Kind::kRemoveArc, a3}, {Kind::kRemoveArc, a4},
                         {Kind::kRemoveArc, a5r0}, {Kind::kRemoveArc, a5r1}}));

  // Regrowing draws ids from the free list that removal order left:
  // last freed, first reused.
  journal = ScriptedRound(&manager, &policy, {},
                          {{0, 0, 2, 30}, {1, 0, 1, 61}, {2, 0, 2, 32}, {3, 0, 1, 63},
                           {4, 0, 1, 64}});
  EXPECT_EQ(journal, (std::vector<JournalEntry>{
                         {Kind::kAddArc, a5r1}, {Kind::kAddArc, a5r0}, {Kind::kAddArc, a4}}));

  // Removing m2, in the middle of the list, purges its entry; the next
  // diff updates the survivors in place and removes nothing.
  manager.RemoveMachine(2);
  cluster.RemoveMachine(2);
  std::vector<std::string> violations;
  manager.CheckIntegrity(&violations);
  EXPECT_TRUE(violations.empty());
  journal = ScriptedRound(&manager, &policy, {},
                          {{4, 0, 1, 74}, {0, 0, 2, 70}, {1, 0, 1, 71}, {3, 0, 1, 73}});
  EXPECT_EQ(journal, (std::vector<JournalEntry>{
                         {Kind::kArcCost, a4}, {Kind::kArcCost, a0},
                         {Kind::kArcCost, a5r1}, {Kind::kArcCost, a5r0}}));

  // One arc in, one held (the load-spreading shape): a key change adds the
  // new arc before removing the old one.
  journal = ScriptedRound(&manager, &policy, {}, {{0, 0, 2, 70}});
  ASSERT_EQ(journal.size(), 3u);
  journal = ScriptedRound(&manager, &policy, {}, {{0, 0, 3, 80}});
  EXPECT_EQ(journal, (std::vector<JournalEntry>{{Kind::kArcCost, a0},
                                                {Kind::kArcCapacity, a0}}));
  journal = ScriptedRound(&manager, &policy, {}, {{5, 0, 1, 85}});
  const ArcId a5 = arc_to(5, 85);
  EXPECT_EQ(journal, (std::vector<JournalEntry>{{Kind::kAddArc, a5},
                                                {Kind::kRemoveArc, a0}}));
}

// ---------------------------------------------------------------------------
// Scheduler end-to-end with the load-spreading policy
// ---------------------------------------------------------------------------

TEST(SchedulerTest, PlacesAllTasksWhenCapacitySuffices) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 4, {.slots = 2}, &scheduler);
  scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(6), 0);
  SchedulerRoundResult result = scheduler.RunSchedulingRound(kSec);
  EXPECT_EQ(result.tasks_placed, 6u);
  EXPECT_EQ(result.tasks_unscheduled, 0u);
  EXPECT_TRUE(CheckOptimality(*scheduler.graph_manager().network()).ok());
  EXPECT_EQ(cluster.UsedSlots(), 6);
}

TEST(SchedulerTest, LoadSpreadingBalancesTaskCounts) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 4, {.slots = 4}, &scheduler);
  scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(8), 0);
  scheduler.RunSchedulingRound(kSec);
  // 8 tasks on 4 machines: the spreading policy must put exactly 2 on each
  // ("task count only increases once all others have at least as many").
  for (const MachineDescriptor& machine : cluster.machines()) {
    EXPECT_EQ(machine.running_tasks, 2) << "machine " << machine.id;
  }
}

TEST(SchedulerTest, LeavesTasksUnscheduledWhenClusterFull) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 2, {.slots = 2}, &scheduler);
  scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(7), 0);
  SchedulerRoundResult result = scheduler.RunSchedulingRound(kSec);
  EXPECT_EQ(result.tasks_placed, 4u);
  EXPECT_EQ(result.tasks_unscheduled, 3u);
}

TEST(SchedulerTest, CompletionFreesSlotsForWaitingTasks) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 1, {.slots = 1}, &scheduler);
  JobId job = scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(2), 0);
  scheduler.RunSchedulingRound(kSec);
  EXPECT_EQ(cluster.UsedSlots(), 1);
  TaskId running = kInvalidTaskId;
  TaskId waiting = kInvalidTaskId;
  for (TaskId task : cluster.job(job).tasks) {
    if (cluster.task(task).state == TaskState::kRunning) {
      running = task;
    } else {
      waiting = task;
    }
  }
  ASSERT_NE(running, kInvalidTaskId);
  ASSERT_NE(waiting, kInvalidTaskId);
  scheduler.CompleteTask(running, 10 * kSec);
  SchedulerRoundResult result = scheduler.RunSchedulingRound(11 * kSec);
  EXPECT_EQ(result.tasks_placed, 1u);
  EXPECT_EQ(cluster.task(waiting).state, TaskState::kRunning);
}

TEST(SchedulerTest, CompletedJobsAreForgotten) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 2, {.slots = 2}, &scheduler);
  SimTime now = 0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    JobId job = scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(3), now);
    std::vector<TaskId> tasks = cluster.job(job).tasks;
    now += kSec;
    ASSERT_EQ(scheduler.RunSchedulingRound(now).tasks_placed, 3u) << "cycle " << cycle;
    for (TaskId task : tasks) {
      EXPECT_TRUE(scheduler.CompleteTask(task, now));
    }
    EXPECT_FALSE(scheduler.CompleteTask(tasks[0], now));  // stale duplicate
    now += kSec;
    scheduler.RunSchedulingRound(now);
  }
  // Job descriptors go with their last task: memory is O(live), not
  // O(jobs ever submitted).
  EXPECT_EQ(cluster.num_tasks(), 0u);
  EXPECT_EQ(cluster.num_jobs(), 0u);
}

TEST(SchedulerTest, MachineFailureEvictsAndReschedules) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 3, {.slots = 2}, &scheduler);
  scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(3), 0);
  scheduler.RunSchedulingRound(kSec);
  ASSERT_EQ(cluster.UsedSlots(), 3);
  // Fail a machine that hosts at least one task.
  MachineId victim = kInvalidMachineId;
  for (const MachineDescriptor& machine : cluster.machines()) {
    if (machine.running_tasks > 0) {
      victim = machine.id;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidMachineId);
  scheduler.RemoveMachine(victim, 2 * kSec);
  EXPECT_LT(cluster.UsedSlots(), 3);
  SchedulerRoundResult result = scheduler.RunSchedulingRound(3 * kSec);
  EXPECT_GE(result.tasks_placed, 1u);
  EXPECT_EQ(cluster.UsedSlots(), 3);  // everything running again elsewhere
}

TEST(SchedulerTest, ContinuousReschedulingIsStable) {
  // With no state changes, re-running the round must not move any task
  // (continuation arcs are free, migrations would cost).
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 4, {.slots = 2}, &scheduler);
  scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(6), 0);
  scheduler.RunSchedulingRound(kSec);
  for (int round = 2; round < 5; ++round) {
    SchedulerRoundResult result = scheduler.RunSchedulingRound(round * kSec);
    EXPECT_EQ(result.tasks_migrated, 0u) << "round " << round;
    EXPECT_EQ(result.tasks_preempted, 0u) << "round " << round;
    EXPECT_EQ(result.tasks_placed, 0u) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Quincy policy + locality
// ---------------------------------------------------------------------------

// Locality oracle with explicit per-machine byte counts.
class FakeLocality : public DataLocalityInterface {
 public:
  void Set(MachineId machine, int64_t bytes) { bytes_[machine] = bytes; }

  int64_t BytesOnMachine(const TaskDescriptor& task, MachineId machine) const override {
    (void)task;
    auto it = bytes_.find(machine);
    return it == bytes_.end() ? 0 : it->second;
  }
  int64_t BytesInRack(const TaskDescriptor& task, RackId rack) const override {
    (void)task;
    (void)rack;
    int64_t total = 0;
    for (const auto& [machine, bytes] : bytes_) {
      total += bytes;  // single-rack tests
    }
    return total;
  }
  void CandidateMachines(const TaskDescriptor& task, std::vector<MachineId>* out) const override {
    (void)task;
    for (const auto& [machine, bytes] : bytes_) {
      out->push_back(machine);
    }
  }

 private:
  std::map<MachineId, int64_t> bytes_;
};

TEST(QuincyPolicyTest, PrefersDataLocalMachine) {
  ClusterState cluster;
  FakeLocality locality;
  QuincyPolicy policy(&cluster, &locality);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 3, {.slots = 2}, &scheduler);
  locality.Set(1, 900'000'000);  // machine 1 holds 90% of the input

  TaskDescriptor task;
  task.input_size_bytes = 1'000'000'000;
  scheduler.SubmitJob(JobType::kBatch, 0, {task}, 0);
  scheduler.RunSchedulingRound(kSec);
  TaskId id = cluster.job(0).tasks[0];
  EXPECT_EQ(cluster.task(id).state, TaskState::kRunning);
  EXPECT_EQ(cluster.task(id).machine, 1u);
}

TEST(QuincyPolicyTest, TransferCostsAreOrdered) {
  // gamma(local machine) <= rho(rack) <= alpha(cluster worst case).
  ClusterState cluster;
  FakeLocality locality;
  QuincyPolicy policy(&cluster, &locality);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 3, {.slots = 2}, &scheduler);
  locality.Set(0, 600'000'000);
  locality.Set(2, 200'000'000);
  TaskDescriptor task;
  task.input_size_bytes = 1'000'000'000;
  int64_t gamma = policy.MachineTransferCost(task, 0);
  int64_t rho = policy.RackTransferCost(task, 0);
  int64_t alpha = policy.ClusterTransferCost(task);
  EXPECT_LE(gamma, rho);
  EXPECT_LE(rho, alpha + 1);
  EXPECT_GT(alpha, 0);
}

TEST(QuincyPolicyTest, PreferenceThresholdGatesArcs) {
  ClusterState cluster;
  FakeLocality locality;
  QuincyPolicyParams params;
  params.machine_preference_threshold = 0.5;
  QuincyPolicy policy(&cluster, &locality, params);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 2, {.slots = 2}, &scheduler);
  locality.Set(0, 600'000'000);  // 60% => above threshold
  locality.Set(1, 100'000'000);  // 10% => below
  TaskDescriptor task;
  task.input_size_bytes = 1'000'000'000;
  std::vector<ArcSpec> arcs;
  policy.EquivClassArcs(task, 0, &arcs);
  int machine_arcs = 0;
  for (const ArcSpec& arc : arcs) {
    if (scheduler.graph_manager().MachineForNode(arc.dst) != kInvalidMachineId) {
      ++machine_arcs;
    }
  }
  EXPECT_EQ(machine_arcs, 1);  // only the 60% machine qualifies
}

TEST(QuincyPolicyTest, ServicePriorityWinsSlotsFromBatch) {
  // A full cluster of batch tasks must yield (preemption) when a
  // higher-priority service job arrives (§3, priority preemption).
  ClusterState cluster;
  QuincyPolicy policy(&cluster, nullptr);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 2, {.slots = 1}, &scheduler);
  scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(2), 0);
  scheduler.RunSchedulingRound(kSec);
  EXPECT_EQ(cluster.UsedSlots(), 2);
  // Service job with priority 5: its unscheduled cost dwarfs batch costs.
  scheduler.SubmitJob(JobType::kService, 5, MakeTasks(1), 2 * kSec);
  SchedulerRoundResult result = scheduler.RunSchedulingRound(3 * kSec);
  EXPECT_EQ(result.tasks_preempted, 1u);
  EXPECT_EQ(result.tasks_placed, 1u);
  TaskId service_task = cluster.job(1).tasks[0];
  EXPECT_EQ(cluster.task(service_task).state, TaskState::kRunning);
}

// ---------------------------------------------------------------------------
// Network-aware policy
// ---------------------------------------------------------------------------

TEST(NetworkAwarePolicyTest, AvoidsBandwidthOvercommit) {
  ClusterState cluster;
  NetworkAwarePolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  RackId rack = cluster.AddRack();
  // Machine 0: congested link; machine 1: idle link.
  MachineId m0 = scheduler.AddMachine(rack, {.slots = 4, .nic_bandwidth_mbps = 10'000});
  MachineId m1 = scheduler.AddMachine(rack, {.slots = 4, .nic_bandwidth_mbps = 10'000});
  cluster.mutable_machine(m0).background_bandwidth_mbps = 9'800;

  TaskDescriptor task;
  task.bandwidth_request_mbps = 1'000;
  scheduler.SubmitJob(JobType::kBatch, 0, {task}, 0);
  scheduler.RunSchedulingRound(kSec);
  TaskId id = cluster.job(0).tasks[0];
  EXPECT_EQ(cluster.task(id).machine, m1);
}

TEST(NetworkAwarePolicyTest, BalancesAcrossLinks) {
  ClusterState cluster;
  NetworkAwarePolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  RackId rack = cluster.AddRack();
  for (int i = 0; i < 4; ++i) {
    scheduler.AddMachine(rack, {.slots = 8, .nic_bandwidth_mbps = 10'000});
  }
  std::vector<TaskDescriptor> tasks(8);
  for (TaskDescriptor& task : tasks) {
    task.bandwidth_request_mbps = 2'000;
    task.runtime = 100 * kSec;
  }
  scheduler.SubmitJob(JobType::kBatch, 0, tasks, 0);
  scheduler.RunSchedulingRound(kSec);
  // 8 x 2 Gbps over 4 x 10 Gbps links: balanced = 2 tasks (4 Gbps) each.
  for (const MachineDescriptor& machine : cluster.machines()) {
    EXPECT_EQ(machine.used_bandwidth_mbps, 4'000) << "machine " << machine.id;
  }
}

TEST(NetworkAwarePolicyTest, BucketsRequests) {
  ClusterState cluster;
  NetworkAwareParams params;
  params.request_bucket_mbps = 100;
  NetworkAwarePolicy policy(&cluster, params);
  EXPECT_EQ(policy.BucketFor(0), 0);
  EXPECT_EQ(policy.BucketFor(1), 100);
  EXPECT_EQ(policy.BucketFor(100), 100);
  EXPECT_EQ(policy.BucketFor(101), 200);
}

// ---------------------------------------------------------------------------
// Placement extraction through aggregator chains
// ---------------------------------------------------------------------------

TEST(PlacementExtractorTest, ResolvesThroughAggregatorChains) {
  // Quincy policy routes via X -> rack -> machine; extraction must trace the
  // machines back to tasks through the two-level aggregator chain.
  ClusterState cluster;
  QuincyPolicy policy(&cluster, nullptr);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 2, 2, {.slots = 2}, &scheduler);
  scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(5), 0);
  SchedulerRoundResult result = scheduler.RunSchedulingRound(kSec);
  EXPECT_EQ(result.tasks_placed, 5u);
  // Every placed task runs on a real machine.
  for (TaskId task : cluster.job(0).tasks) {
    EXPECT_EQ(cluster.task(task).state, TaskState::kRunning);
    EXPECT_LT(cluster.task(task).machine, 4u);
  }
}

// Reference Listing 1 on plain containers — per-node destination vectors,
// a deque of resolved nodes, and walks over every node's adjacency list in
// the FlowNetwork — that the bucketed ExtractPlacements must agree with.
// Returns (task, machine) in the order the FIFO resolves the tasks.
std::vector<std::pair<TaskId, MachineId>> ReferenceExtractPlacements(
    const FlowGraphManager& manager) {
  const FlowNetwork& net = manager.network();
  const NodeId sink = manager.sink();
  std::vector<std::pair<TaskId, MachineId>> placements;
  std::vector<std::vector<MachineId>> destinations(net.NodeCapacity());
  std::vector<int64_t> pending(net.NodeCapacity(), 0);
  std::deque<NodeId> resolved;
  for (NodeId node : net.ValidNodes()) {
    if (node == sink) {
      continue;
    }
    int64_t outflow = 0;
    for (ArcRef ref : net.Adjacency(node)) {
      if (FlowNetwork::RefIsReverse(ref)) {
        continue;
      }
      ArcId arc = FlowNetwork::RefArc(ref);
      int64_t flow = net.Flow(arc);
      if (flow <= 0) {
        continue;
      }
      outflow += flow;
      if (net.Dst(arc) == sink) {
        MachineId self = net.Kind(node) == NodeKind::kMachine ? manager.MachineForNode(node)
                                                              : kInvalidMachineId;
        destinations[node].insert(destinations[node].end(), static_cast<size_t>(flow), self);
      }
    }
    pending[node] = outflow - static_cast<int64_t>(destinations[node].size());
    if (outflow > 0 && pending[node] == 0) {
      resolved.push_back(node);
    }
  }
  while (!resolved.empty()) {
    NodeId node = resolved.front();
    resolved.pop_front();
    TaskId task = manager.TaskForNode(node);
    if (task != kInvalidTaskId) {
      placements.emplace_back(task, destinations[node].back());
      continue;
    }
    std::vector<MachineId>& dests = destinations[node];
    size_t cursor = 0;
    for (ArcRef ref : net.Adjacency(node)) {
      if (!FlowNetwork::RefIsReverse(ref)) {
        continue;
      }
      ArcId arc = FlowNetwork::RefArc(ref);
      int64_t flow = net.Flow(arc);
      if (flow <= 0) {
        continue;
      }
      NodeId src = net.Src(arc);
      int64_t available = static_cast<int64_t>(dests.size()) - static_cast<int64_t>(cursor);
      int64_t moved = std::min(flow, available);
      for (int64_t i = 0; i < moved; ++i) {
        destinations[src].push_back(dests[cursor++]);
      }
      pending[src] -= moved;
      if (pending[src] == 0) {
        resolved.push_back(src);
      }
    }
  }
  return placements;
}

// ExtractPlacements must report every task at most once and agree with the
// reference entry for entry: the same (task, machine) pairs in the same
// resolution order, which pins the order each node hands destinations to
// its incoming arcs, not just the resulting map.
void ExpectMatchesReference(const FlowGraphManager& manager, const std::string& where) {
  ExtractionResult extraction = ExtractPlacements(manager);
  std::unordered_set<TaskId> seen;
  for (const auto& [task, machine] : extraction.placements) {
    EXPECT_TRUE(seen.insert(task).second) << where << ": task " << task << " twice";
  }
  EXPECT_EQ(extraction.placements, ReferenceExtractPlacements(manager)) << where;
}

// Seeded property test over every policy's aggregator shape (Quincy's
// X -> rack chain over a BlockStore, load spreading's cluster aggregator,
// network-aware request aggregators), oversubscribed so unscheduled
// aggregators carry flow, with machine removals and re-adds and task
// completions recycling node ids. Each round is checked on the optimal flow
// and on two pseudoflows: a budget-truncated relaxation run and random
// per-arc flow perturbations (nodes whose inflow exceeds their outflow
// deliver fewer destinations than their upstream tasks need).
class ExtractionEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExtractionEquivalenceTest, FlatExtractionMatchesReference) {
  const uint64_t seed = GetParam();
  ClusterState cluster;
  BlockStore store(&cluster, seed + 1);
  std::unique_ptr<SchedulingPolicy> policy;
  switch (seed % 3) {
    case 0:
      policy = std::make_unique<QuincyPolicy>(&cluster, &store);
      break;
    case 1:
      policy = std::make_unique<LoadSpreadingPolicy>(&cluster);
      break;
    default:
      policy = std::make_unique<NetworkAwarePolicy>(&cluster);
      break;
  }
  FirmamentSchedulerOptions options;
  options.solver.mode = SolverMode::kCostScalingOnly;
  FirmamentScheduler scheduler(&cluster, policy.get(), options);
  BuildCluster(&cluster, 3, 4, {.slots = 2}, &scheduler);
  Rng rng(seed * 7919 + 13);
  std::vector<RackId> racks = {0, 1, 2};
  SimTime now = 0;
  for (int round = 0; round < 12; ++round) {
    const std::string where = "seed " + std::to_string(seed) + " round " + std::to_string(round);
    now += kSec;
    std::vector<TaskId> running;
    for (TaskId task : cluster.LiveTasks()) {
      if (cluster.task(task).state == TaskState::kRunning) {
        running.push_back(task);
      }
    }
    for (TaskId task : running) {
      if (rng.NextDouble() < 0.3) {
        scheduler.CompleteTask(task, now);
      }
    }
    if (round % 3 == 2) {
      std::vector<MachineId> alive;
      for (const MachineDescriptor& machine : cluster.machines()) {
        if (machine.alive) {
          alive.push_back(machine.id);
        }
      }
      MachineId victim = alive[rng.NextUint64(alive.size())];
      scheduler.RemoveMachine(victim, now, [&store, victim] { store.OnMachineRemoved(victim); });
    }
    if (round % 4 == 3) {
      scheduler.AddMachine(racks[rng.NextUint64(racks.size())], {.slots = 2});
    }
    for (int jobs = static_cast<int>(rng.NextInt(1, 4)); jobs > 0; --jobs) {
      std::vector<TaskDescriptor> tasks = MakeTasks(static_cast<int>(rng.NextInt(1, 8)));
      for (TaskDescriptor& task : tasks) {
        task.input_size_bytes = rng.NextInt(256'000'000, 1'024'000'000);
        task.input_blocks = store.AllocateInput(task.input_size_bytes);
        task.bandwidth_request_mbps = rng.NextInt(0, 400);
      }
      scheduler.SubmitJob(JobType::kBatch, 0, std::move(tasks), now);
    }
    ASSERT_EQ(scheduler.StartRound(now).outcome, SolveOutcome::kOptimal) << where;
    FlowGraphManager& manager = scheduler.graph_manager();
    FlowNetwork* net = manager.network();
    ExpectMatchesReference(manager, where + " optimal");

    std::vector<int64_t> optimal_flow(net->ArcCapacityBound(), 0);
    for (ArcId arc = 0; arc < net->ArcCapacityBound(); ++arc) {
      if (net->IsValidArc(arc)) {
        optimal_flow[arc] = net->Flow(arc);
      }
    }
    auto restore = [&] {
      for (ArcId arc = 0; arc < net->ArcCapacityBound(); ++arc) {
        if (net->IsValidArc(arc)) {
          net->SetFlow(arc, optimal_flow[arc]);
        }
      }
    };

    FlowNetwork truncated = *net;
    truncated.ClearFlow();
    RelaxationOptions budgeted;
    budgeted.time_budget_us = 1;
    Relaxation relaxation(budgeted);
    relaxation.Solve(&truncated);
    net->CopyFlowFrom(truncated);
    ExpectMatchesReference(manager, where + " budget-truncated");
    restore();

    for (int trial = 0; trial < 4; ++trial) {
      for (ArcId arc = 0; arc < net->ArcCapacityBound(); ++arc) {
        if (net->IsValidArc(arc) && rng.NextDouble() < 0.15) {
          net->SetFlow(arc, rng.NextInt(0, std::min<int64_t>(net->Capacity(arc), 6)));
        }
      }
      ExpectMatchesReference(manager, where + " perturbed " + std::to_string(trial));
    }
    restore();
    scheduler.ApplyRound(now);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtractionEquivalenceTest, ::testing::Range<uint64_t>(0, 9));

TEST(PlacementExtractorTest, UnscheduledTasksMapToInvalidMachine) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FlowGraphManager manager(&cluster, &policy);
  BuildCluster(&cluster, 1, 1, {.slots = 1});
  manager.AddMachine(0);
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  TaskId t0 = cluster.AddTaskToJob(job, {});
  TaskId t1 = cluster.AddTaskToJob(job, {});
  manager.AddTask(t0, 0);
  manager.AddTask(t1, 0);
  manager.UpdateRound(0);
  RacingSolver solver;
  ASSERT_EQ(solver.Solve(manager.network()).outcome, SolveOutcome::kOptimal);
  ExtractionResult extraction = ExtractPlacements(manager);
  ASSERT_EQ(extraction.placements.size(), 2u);
  int unscheduled = 0;
  for (const auto& [task, machine] : extraction.placements) {
    if (machine == kInvalidMachineId) {
      ++unscheduled;
    }
  }
  EXPECT_EQ(unscheduled, 1);
}

}  // namespace
}  // namespace firmament
