// Delta-vs-full equivalence for the change-driven policy API (v2).
//
// The delta-driven FlowGraphManager must produce a flow network arc-for-arc
// identical to a from-scratch full refresh after any sequence of cluster
// events, under every policy. These tests fuzz rounds of task submit /
// complete / evict and machine churn, canonicalize both graphs (nodes
// labelled by their cluster entity, arcs by (src, dst, capacity, cost)),
// and diff them; they also exercise the machine-removal and rack-
// aggregator-drain paths against ValidateIntegrity, the incremental
// ClusterState statistics, and the declarative unscheduled-cost ramps.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/core/cluster.h"
#include "src/core/flow_graph_manager.h"
#include "src/core/integrity_checker.h"
#include "src/core/load_spreading_policy.h"
#include "src/core/network_aware_policy.h"
#include "src/core/quincy_policy.h"
#include "src/core/scheduler.h"
#include "src/sim/block_store.h"

namespace firmament {
namespace {

constexpr SimTime kSec = kMicrosPerSecond;

enum class Policy { kLoadSpreading, kQuincy, kQuincyWithLocality, kNetworkAware };

const char* PolicyName(Policy kind) {
  switch (kind) {
    case Policy::kLoadSpreading:
      return "load_spreading";
    case Policy::kQuincy:
      return "quincy";
    case Policy::kQuincyWithLocality:
      return "quincy+locality";
    case Policy::kNetworkAware:
      return "network_aware";
  }
  return "?";
}

std::unique_ptr<SchedulingPolicy> MakePolicy(Policy kind, const ClusterState* cluster,
                                             const BlockStore* store) {
  switch (kind) {
    case Policy::kLoadSpreading:
      return std::make_unique<LoadSpreadingPolicy>(cluster);
    case Policy::kQuincy:
      return std::make_unique<QuincyPolicy>(cluster, nullptr);
    case Policy::kQuincyWithLocality:
      return std::make_unique<QuincyPolicy>(cluster, store);
    case Policy::kNetworkAware:
      return std::make_unique<NetworkAwarePolicy>(cluster);
  }
  return nullptr;
}

// Labels a node by the cluster entity it mirrors, so graphs from different
// managers (different node ids) compare structurally.
std::string NodeLabel(const FlowGraphManager& manager, NodeId node) {
  const FlowNetwork& net = manager.network();
  switch (net.Kind(node)) {
    case NodeKind::kSink:
      return "sink";
    case NodeKind::kTask:
      return "t:" + std::to_string(manager.TaskForNode(node));
    case NodeKind::kMachine:
      return "m:" + std::to_string(manager.MachineForNode(node));
    case NodeKind::kAggregator:
      return "agg:" + manager.AggregatorKeyForNode(node);
    case NodeKind::kUnscheduled:
      return "u:" + std::to_string(manager.JobForUnscheduledNode(node));
    case NodeKind::kGeneric:
      break;
  }
  return "g:" + std::to_string(node);
}

// Sorted multiset of labelled (src, dst, capacity, cost) arcs plus labelled
// (node, supply) entries — the canonical form both managers must agree on.
// Flow is deliberately excluded: it belongs to the solver, not the update.
std::vector<std::string> CanonicalGraph(const FlowGraphManager& manager) {
  const FlowNetwork& net = manager.network();
  std::vector<std::string> canon;
  for (NodeId node : net.ValidNodes()) {
    canon.push_back("node " + NodeLabel(manager, node) +
                    " supply=" + std::to_string(net.Supply(node)));
    for (ArcRef ref : net.Adjacency(node)) {
      if (FlowNetwork::RefIsReverse(ref)) {
        continue;
      }
      ArcId arc = FlowNetwork::RefArc(ref);
      canon.push_back("arc " + NodeLabel(manager, net.Src(arc)) + " -> " +
                      NodeLabel(manager, net.Dst(arc)) +
                      " cap=" + std::to_string(net.Capacity(arc)) +
                      " cost=" + std::to_string(net.Cost(arc)));
    }
  }
  std::sort(canon.begin(), canon.end());
  return canon;
}

// Builds a from-scratch reference graph over the same cluster state with a
// fresh policy instance and diffs it against the delta-maintained graph.
void ExpectDeltaMatchesFullRefresh(Policy kind, ClusterState& cluster, const BlockStore* store,
                                   FlowGraphManager& delta_manager, SimTime now,
                                   const std::string& context) {
  std::unique_ptr<SchedulingPolicy> ref_policy = MakePolicy(kind, &cluster, store);
  FlowGraphManager reference(&cluster, ref_policy.get());
  for (const MachineDescriptor& machine : cluster.machines()) {
    if (machine.alive) {
      reference.AddMachine(machine.id);
    }
  }
  for (TaskId task : cluster.LiveTasks()) {
    reference.AddTask(task, now);
  }
  // kFull recomputes everything and leaves the shared cluster's dirty sets
  // untouched, so the primary manager's change signals survive.
  reference.UpdateRound(now, RefreshMode::kFull);
  reference.ValidateIntegrity();

  std::vector<std::string> got = CanonicalGraph(delta_manager);
  std::vector<std::string> want = CanonicalGraph(reference);
  if (got == want) {
    return;
  }
  std::vector<std::string> only_delta;
  std::vector<std::string> only_full;
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(only_delta));
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(only_full));
  std::string message = context + " [" + PolicyName(kind) + "]\n  only in delta graph:\n";
  for (const std::string& line : only_delta) {
    message += "    " + line + "\n";
  }
  message += "  only in full-refresh graph:\n";
  for (const std::string& line : only_full) {
    message += "    " + line + "\n";
  }
  FAIL() << message;
}

// Delta-vs-full fuzz: random workload + machine churn, with the delta graph
// checked against a full rebuild every round. A pool of shared input
// profiles makes a fraction of submissions *identical bursts* — same
// blocks, same size, same bandwidth bucket across jobs and rounds — the
// shape the cross-round equivalence-class cache serves without
// recomputation and therefore the one where a stale entry would diverge
// from the full-refresh reference.
void FuzzDeltaEquivalence(Policy kind, uint64_t seed, int rounds) {
  ClusterState cluster;
  std::unique_ptr<BlockStore> store;
  if (kind == Policy::kQuincyWithLocality) {
    store = std::make_unique<BlockStore>(&cluster, seed + 1);
  }
  std::unique_ptr<SchedulingPolicy> policy = MakePolicy(kind, &cluster, store.get());
  FirmamentScheduler scheduler(&cluster, policy.get());
  Rng rng(seed);

  std::vector<RackId> racks;
  for (int r = 0; r < 3; ++r) {
    racks.push_back(cluster.AddRack());
    for (int m = 0; m < 4; ++m) {
      scheduler.AddMachine(racks.back(), MachineSpec{.slots = 3});
    }
  }

  struct SharedProfile {
    int64_t bytes = 0;
    std::vector<uint64_t> blocks;
    int64_t bandwidth_mbps = 0;
  };
  std::vector<SharedProfile> shared_profiles;

  SimTime now = 0;
  for (int round = 0; round < rounds; ++round) {
    now += static_cast<SimTime>(rng.NextInt(300, 1'700)) * 1'000;  // 0.3-1.7 s

    // Workload churn: submissions (mixed priorities, inputs, bandwidth).
    if (rng.NextBool(0.7)) {
      int job_size = static_cast<int>(rng.NextInt(1, 5));
      std::vector<TaskDescriptor> tasks(static_cast<size_t>(job_size));
      if (rng.NextBool(0.4)) {
        // Identical burst from the shared pool (created lazily).
        if (shared_profiles.size() < 3 || rng.NextBool(0.2)) {
          SharedProfile profile;
          profile.bandwidth_mbps = rng.NextInt(50, 500);
          if (store != nullptr) {
            profile.bytes = rng.NextInt(200'000'000, 2'000'000'000);
            profile.blocks = store->AllocateInput(profile.bytes);
          }
          shared_profiles.push_back(std::move(profile));
        }
        const SharedProfile& profile =
            shared_profiles[rng.NextUint64(shared_profiles.size())];
        for (TaskDescriptor& task : tasks) {
          task.runtime = static_cast<SimTime>(rng.NextInt(5, 50)) * kSec;
          task.bandwidth_request_mbps = profile.bandwidth_mbps;
          task.input_size_bytes = profile.bytes;
          task.input_blocks = profile.blocks;
        }
      } else {
        for (TaskDescriptor& task : tasks) {
          task.runtime = static_cast<SimTime>(rng.NextInt(5, 50)) * kSec;
          task.bandwidth_request_mbps = rng.NextInt(50, 500);
          if (store != nullptr && rng.NextBool(0.8)) {
            task.input_size_bytes = rng.NextInt(200'000'000, 2'000'000'000);
            task.input_blocks = store->AllocateInput(task.input_size_bytes);
          }
        }
      }
      JobType type = rng.NextBool(0.2) ? JobType::kService : JobType::kBatch;
      scheduler.SubmitJob(type, static_cast<int32_t>(rng.NextInt(0, 2)), std::move(tasks), now);
    }
    // Completions.
    std::vector<TaskId> running;
    for (TaskId task : cluster.LiveTasks()) {
      if (cluster.task(task).state == TaskState::kRunning) {
        running.push_back(task);
      }
    }
    int completions = static_cast<int>(rng.NextInt(0, 2));
    for (int i = 0; i < completions && !running.empty(); ++i) {
      size_t pick = rng.NextUint64(running.size());
      scheduler.CompleteTask(running[pick], now);
      running[pick] = running.back();
      running.pop_back();
    }
    // Machine churn: failures (evict + remove, possibly draining a rack)
    // and arrivals.
    if (rng.NextBool(0.12) && cluster.num_machines() > 2) {
      std::vector<MachineId> alive;
      for (const MachineDescriptor& machine : cluster.machines()) {
        if (machine.alive) {
          alive.push_back(machine.id);
        }
      }
      MachineId victim = alive[rng.NextUint64(alive.size())];
      scheduler.RemoveMachine(victim, now);
      if (store != nullptr) {
        store->OnMachineRemoved(victim);
      }
    }
    if (rng.NextBool(0.1)) {
      RackId rack = racks[rng.NextUint64(racks.size())];
      scheduler.AddMachine(rack, MachineSpec{.slots = static_cast<int32_t>(rng.NextInt(2, 4))});
    }
    // Out-of-band monitoring change (background traffic): must reach the
    // graph through the mutable_machine dirty mark.
    if (kind == Policy::kNetworkAware && rng.NextBool(0.3)) {
      std::vector<MachineId> alive;
      for (const MachineDescriptor& machine : cluster.machines()) {
        if (machine.alive) {
          alive.push_back(machine.id);
        }
      }
      MachineId target = alive[rng.NextUint64(alive.size())];
      cluster.mutable_machine(target).background_bandwidth_mbps = rng.NextInt(0, 8'000);
    }
    // Out-of-band spec edit (slot resize): aggregator capacities are built
    // from spec.slots under every policy, so this too must propagate
    // through the dirty mark. Never shrink below the machine's current
    // load so the cluster stays feasible.
    if (rng.NextBool(0.1)) {
      std::vector<MachineId> alive;
      for (const MachineDescriptor& machine : cluster.machines()) {
        if (machine.alive) {
          alive.push_back(machine.id);
        }
      }
      MachineId target = alive[rng.NextUint64(alive.size())];
      int32_t floor_slots = cluster.machine(target).running_tasks;
      cluster.mutable_machine(target).spec.slots =
          std::max<int32_t>(floor_slots, static_cast<int32_t>(rng.NextInt(2, 6)));
    }

    // The delta pass under test; the scheduler's own UpdateRound below then
    // finds nothing further to change.
    scheduler.graph_manager().UpdateRound(now);
    scheduler.graph_manager().ValidateIntegrity();
    ExpectDeltaMatchesFullRefresh(kind, cluster, store.get(), scheduler.graph_manager(), now,
                                  "round " + std::to_string(round));
    if (::testing::Test::HasFailure()) {
      return;  // one diff is enough; later rounds would cascade
    }

    SchedulerRoundResult result = scheduler.RunSchedulingRound(now);
    ASSERT_NE(result.outcome, SolveOutcome::kCancelled);
  }
}

// Failure-storm fuzz (robustness): one round into the scenario a
// rack-correlated storm removes ~30% of the alive machines in a single
// burst. Every round — before, during, and after the storm — the
// delta-maintained graph must match a from-scratch rebuild, and the
// cross-layer IntegrityChecker must report clean (or recover back to clean).
void DriveFailureStorm(Policy kind, uint64_t seed) {
  ClusterState cluster;
  std::unique_ptr<BlockStore> store;
  if (kind == Policy::kQuincyWithLocality) {
    store = std::make_unique<BlockStore>(&cluster, seed + 1);
  }
  std::unique_ptr<SchedulingPolicy> policy = MakePolicy(kind, &cluster, store.get());
  FirmamentScheduler scheduler(&cluster, policy.get());
  IntegrityChecker checker(&cluster, &scheduler.graph_manager());
  Rng rng(seed);

  std::vector<RackId> racks;
  for (int r = 0; r < 5; ++r) {
    racks.push_back(cluster.AddRack());
    for (int m = 0; m < 6; ++m) {
      scheduler.AddMachine(racks.back(), MachineSpec{.slots = 3});
    }
  }

  constexpr int kRounds = 10;
  constexpr int kStormRound = 4;
  SimTime now = 0;
  for (int round = 0; round < kRounds; ++round) {
    now += static_cast<SimTime>(rng.NextInt(300, 1'700)) * 1'000;
    if (rng.NextBool(0.8)) {
      std::vector<TaskDescriptor> tasks(static_cast<size_t>(rng.NextInt(1, 4)));
      for (TaskDescriptor& task : tasks) {
        task.runtime = static_cast<SimTime>(rng.NextInt(5, 50)) * kSec;
        task.bandwidth_request_mbps = rng.NextInt(50, 500);
        if (store != nullptr && rng.NextBool(0.8)) {
          task.input_size_bytes = rng.NextInt(200'000'000, 2'000'000'000);
          task.input_blocks = store->AllocateInput(task.input_size_bytes);
        }
      }
      scheduler.SubmitJob(JobType::kBatch, 0, std::move(tasks), now);
    }
    if (round == kStormRound) {
      // The storm: whole racks go down together until ~30% of the alive
      // machines are gone.
      size_t quota = 0;
      for (const MachineDescriptor& machine : cluster.machines()) {
        if (machine.alive) {
          ++quota;
        }
      }
      quota = quota * 3 / 10;
      while (quota > 0) {
        std::vector<MachineId> alive;
        for (const MachineDescriptor& machine : cluster.machines()) {
          if (machine.alive) {
            alive.push_back(machine.id);
          }
        }
        MachineId epicenter = alive[rng.NextUint64(alive.size())];
        for (MachineId peer : cluster.MachinesInRack(cluster.RackOf(epicenter))) {
          if (quota == 0) {
            break;
          }
          if (!cluster.machine(peer).alive) {
            continue;
          }
          scheduler.RemoveMachine(peer, now);
          if (store != nullptr) {
            store->OnMachineRemoved(peer);
          }
          --quota;
        }
      }
    }
    scheduler.graph_manager().UpdateRound(now);
    // Clean-or-recovers: normal operation must check clean; should a
    // violation ever surface, recovery must restore a clean report.
    IntegrityReport report = checker.Check();
    if (!report.clean()) {
      checker.Recover(now);
      scheduler.solver().ResetState();
      IntegrityReport recheck = checker.Check();
      ASSERT_TRUE(recheck.clean())
          << PolicyName(kind) << " seed " << seed << " round " << round
          << ": still dirty after recovery (" << recheck.violations.size() << " violations)";
    }
    ExpectDeltaMatchesFullRefresh(kind, cluster, store.get(), scheduler.graph_manager(), now,
                                  "storm round " + std::to_string(round));
    if (::testing::Test::HasFailure()) {
      return;
    }
    SchedulerRoundResult result = scheduler.RunSchedulingRound(now);
    ASSERT_NE(result.outcome, SolveOutcome::kCancelled);
  }
}

void FuzzFailureStorms(Policy kind) {
  for (uint64_t seed : {601u, 602u, 603u}) {
    DriveFailureStorm(kind, seed);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

TEST(FailureStormFuzz, LoadSpreadingSerial) { FuzzFailureStorms(Policy::kLoadSpreading); }
TEST(FailureStormFuzz, QuincySerial) { FuzzFailureStorms(Policy::kQuincy); }
TEST(FailureStormFuzz, QuincyWithLocalitySerial) { FuzzFailureStorms(Policy::kQuincyWithLocality); }
TEST(FailureStormFuzz, NetworkAwareSerial) { FuzzFailureStorms(Policy::kNetworkAware); }

// After detect-and-rebuild recovery, the rebuilt graph must be
// byte-identical to one constructed from scratch off the same cluster state
// (acceptance criterion: post-recovery rounds match a from-scratch manager).
TEST(PolicyDeltaTest, RecoveryRebuildMatchesFromScratch) {
  ClusterState cluster;
  std::unique_ptr<SchedulingPolicy> policy = MakePolicy(Policy::kQuincy, &cluster, nullptr);
  FirmamentSchedulerOptions options;
  FirmamentScheduler scheduler(&cluster, policy.get(), options);
  IntegrityChecker checker(&cluster, &scheduler.graph_manager());
  RackId rack = cluster.AddRack();
  for (int m = 0; m < 4; ++m) {
    scheduler.AddMachine(rack, MachineSpec{.slots = 3});
  }
  scheduler.SubmitJob(JobType::kBatch, 0, std::vector<TaskDescriptor>(7, TaskDescriptor{}), 0);
  SchedulerRoundResult first = scheduler.RunSchedulingRound(kSec);
  ASSERT_EQ(first.outcome, SolveOutcome::kOptimal);
  ASSERT_TRUE(checker.Check().clean());

  // Corrupt the solved flow behind the manager's back.
  FlowNetwork* net = scheduler.graph_manager().network();
  ArcId corrupt = kInvalidArcId;
  for (ArcId arc = 0; arc < net->ArcCapacityBound(); ++arc) {
    if (net->IsValidArc(arc)) {
      corrupt = arc;
      break;
    }
  }
  ASSERT_NE(corrupt, kInvalidArcId);
  net->SetFlow(corrupt, net->Capacity(corrupt) + 3);
  ASSERT_FALSE(checker.Check().clean());

  std::vector<RecoveryAction> actions = checker.Recover(kSec);
  scheduler.solver().ResetState();
  ASSERT_FALSE(actions.empty());
  ASSERT_TRUE(checker.Check().clean());

  // The rebuilt graph equals a from-scratch build of the same cluster.
  ExpectDeltaMatchesFullRefresh(Policy::kQuincy, cluster, nullptr, scheduler.graph_manager(),
                                kSec, "post-recovery");

  // And scheduling continues normally on it.
  SchedulerRoundResult next = scheduler.RunSchedulingRound(2 * kSec);
  EXPECT_NE(next.outcome, SolveOutcome::kCancelled);
  EXPECT_GT(scheduler.graph_manager().ValidateIntegrity(), 0u);
}

TEST(PolicyDeltaEquivalence, LoadSpreadingFuzz) {
  FuzzDeltaEquivalence(Policy::kLoadSpreading, 101, 40);
}

TEST(PolicyDeltaEquivalence, QuincyFuzz) { FuzzDeltaEquivalence(Policy::kQuincy, 202, 40); }

TEST(PolicyDeltaEquivalence, QuincyWithLocalityFuzz) {
  FuzzDeltaEquivalence(Policy::kQuincyWithLocality, 303, 35);
}

TEST(PolicyDeltaEquivalence, NetworkAwareFuzz) {
  FuzzDeltaEquivalence(Policy::kNetworkAware, 404, 40);
}

// ---------------------------------------------------------------------------
// Targeted structural paths
// ---------------------------------------------------------------------------

TEST(PolicyDeltaTest, RackAggregatorDrainsWithLastMachine) {
  ClusterState cluster;
  QuincyPolicy policy(&cluster, nullptr);
  FirmamentScheduler scheduler(&cluster, &policy);
  RackId r0 = cluster.AddRack();
  RackId r1 = cluster.AddRack();
  std::vector<MachineId> rack1;
  scheduler.AddMachine(r0, {.slots = 2});
  scheduler.AddMachine(r0, {.slots = 2});
  rack1.push_back(scheduler.AddMachine(r1, {.slots = 2}));
  rack1.push_back(scheduler.AddMachine(r1, {.slots = 2}));
  scheduler.SubmitJob(JobType::kBatch, 0, std::vector<TaskDescriptor>(6), 0);
  scheduler.RunSchedulingRound(kSec);
  EXPECT_TRUE(scheduler.graph_manager().HasAggregator("rack:1"));

  // Drain rack 1 machine by machine; the aggregator must disappear with the
  // last one and the graph must stay consistent and schedulable.
  scheduler.RemoveMachine(rack1[0], 2 * kSec);
  EXPECT_TRUE(scheduler.graph_manager().HasAggregator("rack:1"));
  scheduler.graph_manager().ValidateIntegrity();
  scheduler.RemoveMachine(rack1[1], 2 * kSec);
  EXPECT_FALSE(scheduler.graph_manager().HasAggregator("rack:1"));
  scheduler.graph_manager().ValidateIntegrity();

  SchedulerRoundResult result = scheduler.RunSchedulingRound(3 * kSec);
  scheduler.graph_manager().ValidateIntegrity();
  EXPECT_EQ(cluster.UsedSlots(), 4);  // everything rescheduled onto rack 0
  // Fold the round's placements back into the graph, then the delta graph
  // must still match a from-scratch rebuild.
  scheduler.graph_manager().UpdateRound(4 * kSec);
  ExpectDeltaMatchesFullRefresh(Policy::kQuincy, cluster, nullptr, scheduler.graph_manager(),
                                4 * kSec, "after rack drain");
  (void)result;
}

TEST(PolicyDeltaTest, RequestAggregatorDrainsWithLastTask) {
  ClusterState cluster;
  NetworkAwarePolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  RackId rack = cluster.AddRack();
  scheduler.AddMachine(rack, {.slots = 4});
  TaskDescriptor task;
  task.bandwidth_request_mbps = 175;  // bucket 200
  scheduler.SubmitJob(JobType::kBatch, 0, {task}, 0);
  scheduler.RunSchedulingRound(kSec);
  EXPECT_TRUE(scheduler.graph_manager().HasAggregator("ra:200"));
  TaskId id = cluster.job(0).tasks[0];
  scheduler.CompleteTask(id, 2 * kSec);
  scheduler.RunSchedulingRound(3 * kSec);
  EXPECT_FALSE(scheduler.graph_manager().HasAggregator("ra:200"));
  scheduler.graph_manager().ValidateIntegrity();
}

// ---------------------------------------------------------------------------
// Cross-round class cache + block -> task reverse index
// ---------------------------------------------------------------------------

// A Quincy machine removal must dirty only the tasks whose preference arcs
// touch the removed machine's blocks (block -> task reverse index), not the
// whole task set — and the resulting delta graph must still match a
// from-scratch full refresh.
TEST(PolicyDeltaTest, QuincyMachineRemovalDirtiesOnlyAffectedTasks) {
  ClusterState cluster;
  BlockStore store(&cluster, 7);
  QuincyPolicy policy(&cluster, &store);
  FirmamentScheduler scheduler(&cluster, &policy);
  std::vector<RackId> racks;
  for (int r = 0; r < 4; ++r) {
    racks.push_back(cluster.AddRack());
    for (int m = 0; m < 6; ++m) {
      scheduler.AddMachine(racks.back(), MachineSpec{.slots = 4});
    }
  }
  Rng rng(13);
  SimTime now = 0;
  for (int j = 0; j < 20; ++j) {
    std::vector<TaskDescriptor> tasks(3);
    for (TaskDescriptor& task : tasks) {
      task.runtime = 1'000 * kSec;
      task.input_size_bytes = rng.NextInt(400'000'000, 900'000'000);
      task.input_blocks = store.AllocateInput(task.input_size_bytes);
    }
    scheduler.SubmitJob(JobType::kBatch, 0, std::move(tasks), now);
  }
  scheduler.RunSchedulingRound(now += kSec);
  scheduler.RunSchedulingRound(now += kSec);  // settle placements
  // Drain the settle round's own placement dirt so the removal's marks are
  // the only thing the measured round refreshes.
  scheduler.graph_manager().UpdateRound(now += kSec);

  // Expected affected set: live tasks reading a block replicated on the
  // victim (queried before the store drops the replicas), plus whatever was
  // running there (evicted -> state-dirty).
  MachineId victim = 5;
  ASSERT_TRUE(cluster.machine(victim).alive);
  std::vector<uint64_t> victim_blocks;
  ASSERT_TRUE(store.BlocksOnMachine(victim, &victim_blocks));
  std::set<uint64_t> on_victim(victim_blocks.begin(), victim_blocks.end());
  std::set<TaskId> affected;
  for (TaskId task : cluster.LiveTasks()) {
    for (uint64_t block : cluster.task(task).input_blocks) {
      if (on_victim.count(block) != 0) {
        affected.insert(task);
        break;
      }
    }
  }
  for (TaskId task : cluster.RunningTasksOn(victim)) {
    affected.insert(task);  // evicted by the removal
  }
  size_t live = cluster.LiveTasks().size();
  ASSERT_GT(live, affected.size()) << "test needs unaffected tasks to be meaningful";

  scheduler.RemoveMachine(victim, now += kSec);
  store.OnMachineRemoved(victim);
  scheduler.graph_manager().UpdateRound(now);
  scheduler.graph_manager().ValidateIntegrity();

  const UpdateRoundStats& stats = scheduler.graph_manager().last_update_stats();
  // The dirty-count gate: exactly the affected set is refreshed — never the
  // whole task set (the legacy MarkAllTasks behaviour).
  EXPECT_EQ(stats.tasks_refreshed, affected.size());
  EXPECT_LT(stats.tasks_refreshed, live);

  ExpectDeltaMatchesFullRefresh(Policy::kQuincyWithLocality, cluster, &store,
                                scheduler.graph_manager(), now, "after targeted removal");
}

// Repeated identical-job bursts must cost one EquivClassArcs call per class
// *ever*: the first burst computes the entry, every later burst (and every
// placement-driven refresh) rides the cross-round cache.
TEST(PolicyDeltaTest, PersistentClassCacheServesIdenticalBursts) {
  ClusterState cluster;
  BlockStore store(&cluster, 11);
  QuincyPolicy policy(&cluster, &store);
  FirmamentScheduler scheduler(&cluster, &policy);
  RackId rack = cluster.AddRack();
  for (int m = 0; m < 8; ++m) {
    scheduler.AddMachine(rack, MachineSpec{.slots = 16});
  }
  const int64_t bytes = 1'500'000'000;
  std::vector<uint64_t> blocks = store.AllocateInput(bytes);

  SimTime now = 0;
  size_t total_misses = 0;
  for (int round = 0; round < 6; ++round) {
    std::vector<TaskDescriptor> tasks(5);
    for (TaskDescriptor& task : tasks) {
      task.runtime = 1'000 * kSec;
      task.input_size_bytes = bytes;
      task.input_blocks = blocks;
    }
    scheduler.SubmitJob(JobType::kBatch, 0, std::move(tasks), now);
    scheduler.RunSchedulingRound(now);
    const UpdateRoundStats& stats = scheduler.graph_manager().last_update_stats();
    EXPECT_GE(stats.tasks_refreshed, 5u) << "round " << round;
    if (round > 0) {
      EXPECT_EQ(stats.class_cache_misses, 0u) << "round " << round;
      EXPECT_GE(stats.class_cache_hits, 5u) << "round " << round;
    }
    total_misses += stats.class_cache_misses;
    now += kSec;
  }
  EXPECT_EQ(total_misses, 1u) << "identical bursts must share one policy call ever";

  scheduler.graph_manager().UpdateRound(now);
  ExpectDeltaMatchesFullRefresh(Policy::kQuincyWithLocality, cluster, &store,
                                scheduler.graph_manager(), now, "after identical bursts");
}

// A class whose last live task completed must be evicted from the cache:
// with no member left to carry invalidation marks, its inputs can drift —
// here a machine removal drops replicas feeding its transfer costs — with
// nobody watching, and an identical resubmission would otherwise reuse
// pre-removal costs (caught by the delta-vs-full diff below).
TEST(PolicyDeltaTest, DrainedClassIsEvictedAndRecomputedOnResubmit) {
  ClusterState cluster;
  BlockStore store(&cluster, 23);
  QuincyPolicy policy(&cluster, &store);
  FirmamentScheduler scheduler(&cluster, &policy);
  std::vector<RackId> racks;
  for (int r = 0; r < 2; ++r) {
    racks.push_back(cluster.AddRack());
    for (int m = 0; m < 4; ++m) {
      scheduler.AddMachine(racks.back(), MachineSpec{.slots = 4});
    }
  }
  const int64_t bytes = 1'200'000'000;
  std::vector<uint64_t> blocks = store.AllocateInput(bytes);
  auto identical_job = [&](SimTime now) {
    std::vector<TaskDescriptor> tasks(2);
    for (TaskDescriptor& task : tasks) {
      task.runtime = 1'000 * kSec;
      task.input_size_bytes = bytes;
      task.input_blocks = blocks;
    }
    return scheduler.SubmitJob(JobType::kBatch, 0, std::move(tasks), now);
  };

  SimTime now = 0;
  JobId job = identical_job(now);
  scheduler.RunSchedulingRound(now += kSec);
  EXPECT_EQ(scheduler.graph_manager().class_cache_size(), 1u);

  // Drain the class: both tasks complete -> the entry must be evicted.
  for (TaskId task : cluster.job(job).tasks) {
    scheduler.CompleteTask(task, now);
  }
  scheduler.RunSchedulingRound(now += kSec);
  EXPECT_EQ(scheduler.graph_manager().class_cache_size(), 0u);

  // Input drift while the class is unpopulated: drop a replica-holding
  // machine (no live task references its blocks, so no mark fires).
  std::vector<uint64_t> on_victim;
  MachineId victim = 0;
  for (; victim < 8; ++victim) {
    on_victim.clear();
    if (cluster.machine(victim).alive && store.BlocksOnMachine(victim, &on_victim) &&
        !on_victim.empty()) {
      break;
    }
  }
  ASSERT_LT(victim, 8u) << "expected some machine to hold a replica";
  scheduler.RemoveMachine(victim, now += kSec);
  store.OnMachineRemoved(victim);
  scheduler.RunSchedulingRound(now);

  // Identical resubmission: must recompute against post-removal replicas.
  identical_job(now += kSec);
  scheduler.graph_manager().UpdateRound(now);
  scheduler.graph_manager().ValidateIntegrity();
  ExpectDeltaMatchesFullRefresh(Policy::kQuincyWithLocality, cluster, &store,
                                scheduler.graph_manager(), now, "resubmit after drain+removal");
}

// ---------------------------------------------------------------------------
// One-pass Quincy pricing (DataLocalityInterface::InputProfile)
// ---------------------------------------------------------------------------

// A locality source answering only the four per-machine queries, so the
// policy runs on the interface's default InputProfile.
class PerMachineQueriesOnly : public DataLocalityInterface {
 public:
  explicit PerMachineQueriesOnly(const BlockStore* store) : store_(store) {}
  int64_t BytesOnMachine(const TaskDescriptor& task, MachineId machine) const override {
    return store_->BytesOnMachine(task, machine);
  }
  int64_t BytesInRack(const TaskDescriptor& task, RackId rack) const override {
    return store_->BytesInRack(task, rack);
  }
  void CandidateMachines(const TaskDescriptor& task, std::vector<MachineId>* out) const override {
    store_->CandidateMachines(task, out);
  }
  bool BlocksOnMachine(MachineId machine, std::vector<uint64_t>* out) const override {
    return store_->BlocksOnMachine(machine, out);
  }

 private:
  const BlockStore* store_;
};

// Quincy class arcs priced candidate by candidate through the per-machine
// queries and the public transfer-cost functions: the reference the
// one-pass pricing must reproduce arc for arc, in order.
std::vector<ArcSpec> PerCandidateQuincyArcs(const QuincyPolicy& policy,
                                            const QuincyPolicyParams& params,
                                            const ClusterState& cluster,
                                            const DataLocalityInterface& locality,
                                            const FlowGraphManager& manager,
                                            const TaskDescriptor& task) {
  std::vector<ArcSpec> out;
  out.push_back({manager.FindAggregator("cluster"), 1, policy.ClusterTransferCost(task), 0});
  if (task.input_size_bytes == 0) {
    return out;
  }
  const double input = static_cast<double>(task.input_size_bytes);
  std::vector<MachineId> candidates;
  locality.CandidateMachines(task, &candidates);
  std::vector<ArcSpec> machine_arcs;
  std::vector<RackId> candidate_racks;
  for (MachineId machine : candidates) {
    if (!cluster.machine(machine).alive) {
      continue;
    }
    if (static_cast<double>(locality.BytesOnMachine(task, machine)) / input >=
        params.machine_preference_threshold) {
      NodeId node = manager.NodeForMachine(machine);
      if (node != kInvalidNodeId) {
        machine_arcs.push_back({node, 1, policy.MachineTransferCost(task, machine), 0});
      }
    }
    RackId rack = cluster.RackOf(machine);
    if (std::find(candidate_racks.begin(), candidate_racks.end(), rack) ==
        candidate_racks.end()) {
      candidate_racks.push_back(rack);
    }
  }
  std::sort(machine_arcs.begin(), machine_arcs.end(),
            [](const ArcSpec& a, const ArcSpec& b) { return a.cost < b.cost; });
  if (machine_arcs.size() > static_cast<size_t>(params.max_machine_preference_arcs)) {
    machine_arcs.resize(static_cast<size_t>(params.max_machine_preference_arcs));
  }
  out.insert(out.end(), machine_arcs.begin(), machine_arcs.end());
  std::vector<std::pair<int64_t, RackId>> rack_costs;
  for (RackId rack : candidate_racks) {
    if (static_cast<double>(locality.BytesInRack(task, rack)) / input >=
        params.rack_preference_threshold) {
      rack_costs.push_back({policy.RackTransferCost(task, rack), rack});
    }
  }
  std::sort(rack_costs.begin(), rack_costs.end());
  if (rack_costs.size() > static_cast<size_t>(params.max_rack_preference_arcs)) {
    rack_costs.resize(static_cast<size_t>(params.max_rack_preference_arcs));
  }
  for (const auto& [cost, rack] : rack_costs) {
    NodeId rack_node = manager.FindAggregator("rack:" + std::to_string(rack));
    if (rack_node != kInvalidNodeId) {
      out.push_back({rack_node, 1, cost, 0});
    }
  }
  return out;
}

std::string ArcsLabel(const std::vector<ArcSpec>& arcs) {
  std::string label;
  for (const ArcSpec& arc : arcs) {
    label += "(" + std::to_string(arc.dst) + " cap=" + std::to_string(arc.capacity) +
             " cost=" + std::to_string(arc.cost) + " rank=" + std::to_string(arc.rank) + ") ";
  }
  return label;
}

// Compares `policy`'s class arcs for every live task against the
// per-candidate reference; returns the number of arcs compared.
size_t ExpectPricingMatchesPerCandidate(QuincyPolicy& policy, const QuincyPolicyParams& params,
                                        const ClusterState& cluster,
                                        const DataLocalityInterface& locality,
                                        const FlowGraphManager& manager, SimTime now,
                                        const std::string& context) {
  size_t compared = 0;
  for (TaskId id : cluster.LiveTasks()) {
    const TaskDescriptor& task = cluster.task(id);
    std::vector<ArcSpec> got;
    policy.EquivClassArcs(task, now, &got);
    std::vector<ArcSpec> want =
        PerCandidateQuincyArcs(policy, params, cluster, locality, manager, task);
    EXPECT_EQ(ArcsLabel(got), ArcsLabel(want)) << context << ", task " << id;
    compared += want.size();
  }
  return compared;
}

// The one-pass pricing must reproduce the per-candidate pricing arc for arc
// — same destinations, costs and order — for the BlockStore's own profile
// and for the interface's default profile built from the per-machine
// queries, across machine removals (including the window where the cluster
// already reads a machine dead but the store still lists its replicas).
TEST(QuincyPricingTest, OnePassMatchesPerCandidateAcrossRemovals) {
  ClusterState cluster;
  BlockStore store(&cluster, 29, /*block_size_bytes=*/128'000'000);
  QuincyPolicyParams params;
  QuincyPolicy policy(&cluster, &store, params);
  FirmamentScheduler scheduler(&cluster, &policy);
  for (int r = 0; r < 5; ++r) {
    RackId rack = cluster.AddRack();
    for (int m = 0; m < 6; ++m) {
      scheduler.AddMachine(rack, MachineSpec{.slots = 4});
    }
  }
  PerMachineQueriesOnly queries_only(&store);
  Rng rng(31);
  SimTime now = 0;
  size_t compared = 0;
  size_t compared_default = 0;
  for (int round = 0; round < 8; ++round) {
    std::vector<TaskDescriptor> tasks(12);
    for (TaskDescriptor& task : tasks) {
      task.runtime = 1'000 * kSec;
      task.input_size_bytes = round % 4 == 3 ? 0 : rng.NextInt(100'000'000, 1'200'000'000);
      if (task.input_size_bytes > 0) {
        task.input_blocks = store.AllocateInput(task.input_size_bytes);
      }
    }
    scheduler.SubmitJob(JobType::kBatch, 0, std::move(tasks), now);
    scheduler.RunSchedulingRound(now += kSec);
    const std::string context = "round " + std::to_string(round);
    compared += ExpectPricingMatchesPerCandidate(policy, params, cluster, store,
                                                 scheduler.graph_manager(), now, context);

    // The default profile, on a graph of its own over the same cluster.
    QuincyPolicy default_policy(&cluster, &queries_only, params);
    FlowGraphManager default_manager(&cluster, &default_policy);
    for (const MachineDescriptor& machine : cluster.machines()) {
      if (machine.alive) {
        default_manager.AddMachine(machine.id);
      }
    }
    compared_default +=
        ExpectPricingMatchesPerCandidate(default_policy, params, cluster, queries_only,
                                         default_manager, now, context + " (default profile)");

    // Remove an alive machine; price again before the store drops its
    // replicas, then after.
    std::vector<MachineId> alive;
    for (const MachineDescriptor& machine : cluster.machines()) {
      if (machine.alive) {
        alive.push_back(machine.id);
      }
    }
    MachineId victim = alive[rng.NextUint64(alive.size())];
    scheduler.RemoveMachine(victim, now);
    compared += ExpectPricingMatchesPerCandidate(policy, params, cluster, store,
                                                 scheduler.graph_manager(), now,
                                                 context + " (replicas not yet dropped)");
    store.OnMachineRemoved(victim);
  }
  // Non-trivial coverage: preference arcs beyond the cluster fallback.
  EXPECT_GT(compared, 3 * 12 * 8 * 2);
  EXPECT_GT(compared_default, 3 * 12 * 8);
}

// ---------------------------------------------------------------------------
// Lazy class-cache dst index
// ---------------------------------------------------------------------------

// Fresh-class bursts with completions evict classes every round; the lazy
// index's stale entries must be compacted away so that it never holds more
// than twice the cached arcs (plus the per-node slack), and the integrity
// check must stay clean throughout.
TEST(ClassIndexTest, StaysWithinTwiceLiveArcsOverFreshClassBursts) {
  ClusterState cluster;
  BlockStore store(&cluster, 37);
  QuincyPolicy policy(&cluster, &store);
  FirmamentScheduler scheduler(&cluster, &policy);
  for (int r = 0; r < 4; ++r) {
    RackId rack = cluster.AddRack();
    for (int m = 0; m < 8; ++m) {
      scheduler.AddMachine(rack, MachineSpec{.slots = 4});
    }
  }
  const FlowGraphManager& manager = scheduler.graph_manager();
  Rng rng(41);
  SimTime now = 0;
  std::vector<JobId> jobs;
  size_t shrinks = 0;
  size_t previous_entries = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<TaskDescriptor> tasks(6);
    for (TaskDescriptor& task : tasks) {
      task.runtime = 1'000 * kSec;
      task.input_size_bytes = rng.NextInt(300'000'000, 1'500'000'000);
      task.input_blocks = store.AllocateInput(task.input_size_bytes);
    }
    jobs.push_back(scheduler.SubmitJob(JobType::kBatch, 0, std::move(tasks), now));
    if (jobs.size() > 8) {
      // Complete the oldest job: its fresh classes lose their last member.
      for (TaskId task : cluster.job(jobs.front()).tasks) {
        if (cluster.HasTask(task)) {
          scheduler.CompleteTask(task, now);
        }
      }
      jobs.erase(jobs.begin());
    }
    scheduler.RunSchedulingRound(now += kSec);

    const size_t entries = manager.class_index_entries();
    const size_t bound = 2 * manager.class_cache_arcs() +
                         FlowGraphManager::kClassIndexSlackPerNode *
                             manager.network().NodeCapacity();
    ASSERT_LE(entries, bound) << "round " << round;
    std::vector<std::string> violations;
    manager.CheckIntegrity(&violations);
    ASSERT_TRUE(violations.empty()) << "round " << round << ": " << violations.front();
    // No node leaves the graph's class arcs here, so only compaction can
    // shrink the index.
    shrinks += entries < previous_entries ? 1 : 0;
    previous_entries = entries;
  }
  EXPECT_GT(shrinks, 0u) << "the bursts never drove the index to compaction";
}

// Removes `victim` and checks that exactly the cached classes whose arcs
// target its node (or, when the removal drains the rack, the rack
// aggregator's node) were evicted, each firing the invalidation listener
// once. Returns the number of classes evicted.
size_t ExpectRemovalEvictsReferencingClasses(FirmamentScheduler& scheduler, ClusterState& cluster,
                                           QuincyPolicy& policy, BlockStore& store,
                                           MachineId victim, bool drains_rack, SimTime now) {
  FlowGraphManager& manager = scheduler.graph_manager();
  const std::string rack_key = "rack:" + std::to_string(cluster.RackOf(victim));
  std::set<NodeId> leaving = {manager.NodeForMachine(victim)};
  if (drains_rack) {
    EXPECT_TRUE(manager.HasAggregator(rack_key));
    leaving.insert(manager.FindAggregator(rack_key));
  }
  std::set<EquivClass> live_classes;
  std::set<EquivClass> expected;
  for (TaskId id : cluster.LiveTasks()) {
    const TaskDescriptor& task = cluster.task(id);
    EquivClass ec = policy.TaskEquivClass(task);
    live_classes.insert(ec);
    std::vector<ArcSpec> arcs;
    policy.EquivClassArcs(task, now, &arcs);
    for (const ArcSpec& arc : arcs) {
      if (leaving.count(arc.dst) != 0) {
        expected.insert(ec);
      }
    }
  }
  EXPECT_EQ(manager.class_cache_size(), live_classes.size());
  EXPECT_LT(expected.size(), live_classes.size()) << "removal must leave some classes cached";

  std::map<EquivClass, int> fired;
  manager.set_on_class_invalidated([&fired](EquivClass ec) { ++fired[ec]; });
  scheduler.RemoveMachine(victim, now, [&store, victim] { store.OnMachineRemoved(victim); });
  manager.set_on_class_invalidated(nullptr);

  EXPECT_EQ(manager.HasAggregator(rack_key), !drains_rack);
  std::set<EquivClass> evicted;
  for (const auto& [ec, count] : fired) {
    EXPECT_EQ(count, 1) << "class " << ec << " fired more than once";
    evicted.insert(ec);
  }
  EXPECT_EQ(evicted, expected);
  EXPECT_EQ(manager.class_cache_size(), live_classes.size() - expected.size());
  std::vector<std::string> violations;
  manager.CheckIntegrity(&violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
  return evicted.size();
}

// A machine removal, and a rack drain that also removes the rack
// aggregator, evict exactly the cached classes referencing the leaving
// nodes — through the lazy index — and the delta graph still matches a
// from-scratch refresh afterwards.
TEST(ClassIndexTest, RemovalsEvictExactlyTheReferencingClasses) {
  ClusterState cluster;
  BlockStore store(&cluster, 43);
  QuincyPolicy policy(&cluster, &store);
  FirmamentScheduler scheduler(&cluster, &policy);
  std::vector<std::vector<MachineId>> racks;
  for (int r = 0; r < 4; ++r) {
    RackId rack = cluster.AddRack();
    racks.emplace_back();
    for (int m = 0; m < 6; ++m) {
      racks.back().push_back(scheduler.AddMachine(rack, MachineSpec{.slots = 8}));
    }
  }
  Rng rng(47);
  SimTime now = 0;
  for (int round = 0; round < 3; ++round) {
    std::vector<TaskDescriptor> tasks(10);
    for (TaskDescriptor& task : tasks) {
      task.runtime = 1'000 * kSec;
      task.input_size_bytes = rng.NextInt(200'000'000, 700'000'000);
      task.input_blocks = store.AllocateInput(task.input_size_bytes);
    }
    scheduler.SubmitJob(JobType::kBatch, 0, std::move(tasks), now);
    scheduler.RunSchedulingRound(now += kSec);
  }
  scheduler.graph_manager().UpdateRound(now += kSec);

  // Drain rack 1 machine by machine: the last removal also takes the rack
  // aggregator. Between removals, rounds re-cache the evicted classes, so
  // the index lists carry stale entries of earlier incarnations — which
  // must not fire again.
  size_t evicted = 0;
  for (size_t m = 0; m < racks[1].size(); ++m) {
    const bool drains = m + 1 == racks[1].size();
    evicted += ExpectRemovalEvictsReferencingClasses(scheduler, cluster, policy, store,
                                                     racks[1][m], drains, now);
    scheduler.RunSchedulingRound(now += kSec);
  }
  EXPECT_GT(evicted, 0u);
  scheduler.graph_manager().UpdateRound(now += kSec);
  ExpectDeltaMatchesFullRefresh(Policy::kQuincyWithLocality, cluster, &store,
                                scheduler.graph_manager(), now, "after draining a rack");
}

// ---------------------------------------------------------------------------
// Incremental cluster statistics
// ---------------------------------------------------------------------------

TEST(ClusterDirtyTrackingTest, LifecycleMarksAndStatsStayConsistent) {
  ClusterState cluster;
  RackId rack = cluster.AddRack();
  MachineId m0 = cluster.AddMachine(rack, {.slots = 4});
  MachineId m1 = cluster.AddMachine(rack, {.slots = 4});
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  TaskDescriptor desc;
  desc.bandwidth_request_mbps = 300;
  TaskId t0 = cluster.AddTaskToJob(job, desc);
  TaskId t1 = cluster.AddTaskToJob(job, desc);
  cluster.ClearDirty();

  cluster.PlaceTask(t0, m0, kSec);
  cluster.PlaceTask(t1, m1, kSec);
  EXPECT_EQ(cluster.dirty_machines().count(m0), 1u);
  EXPECT_EQ(cluster.dirty_machines().count(m1), 1u);
  EXPECT_EQ(cluster.dirty_tasks().count(t0), 1u);

  cluster.EvictTask(t1, 2 * kSec);
  // Incremental statistics must equal a from-scratch rebuild at all times.
  int32_t running_m0 = cluster.machine(m0).running_tasks;
  int64_t bw_m0 = cluster.machine(m0).used_bandwidth_mbps;
  int32_t running_m1 = cluster.machine(m1).running_tasks;
  cluster.RefreshStatistics();
  EXPECT_EQ(cluster.machine(m0).running_tasks, running_m0);
  EXPECT_EQ(cluster.machine(m0).used_bandwidth_mbps, bw_m0);
  EXPECT_EQ(cluster.machine(m1).running_tasks, running_m1);
  EXPECT_EQ(cluster.machine(m1).running_tasks, 0);

  cluster.ClearDirty();
  EXPECT_TRUE(cluster.dirty_machines().empty());
  EXPECT_TRUE(cluster.dirty_tasks().empty());
  // mutable_machine is the out-of-band escape hatch: it must mark dirty.
  cluster.mutable_machine(m1).background_bandwidth_mbps = 500;
  EXPECT_EQ(cluster.dirty_machines().count(m1), 1u);
}

// ---------------------------------------------------------------------------
// Declarative unscheduled-cost ramps
// ---------------------------------------------------------------------------

TEST(PolicyDeltaTest, RampAdvancesUnscheduledCostWithoutPolicyCalls) {
  ClusterState cluster;
  LoadSpreadingParams params;
  LoadSpreadingPolicy policy(&cluster, params);
  FlowGraphManager manager(&cluster, &policy);
  RackId rack = cluster.AddRack();
  MachineId machine = cluster.AddMachine(rack, {.slots = 1});
  manager.AddMachine(machine);
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  TaskId task = cluster.AddTaskToJob(job, {});
  manager.AddTask(task, 0);
  manager.UpdateRound(0);

  // The unscheduled arc is the task's arc to the kUnscheduled node.
  const FlowNetwork& net = *manager.network();
  NodeId task_node = manager.NodeForTask(task);
  ArcId unscheduled = kInvalidArcId;
  for (ArcRef ref : net.Adjacency(task_node)) {
    if (!FlowNetwork::RefIsReverse(ref) &&
        net.Kind(net.Dst(FlowNetwork::RefArc(ref))) == NodeKind::kUnscheduled) {
      unscheduled = FlowNetwork::RefArc(ref);
    }
  }
  ASSERT_NE(unscheduled, kInvalidArcId);
  EXPECT_EQ(net.Cost(unscheduled), params.base_unscheduled_cost);

  // Advancing time with no cluster events must ramp the cost by omega per
  // whole second waited — driven by the manager's bucket heap, not by
  // re-querying the policy for every task.
  manager.UpdateRound(3 * kSec);
  EXPECT_EQ(net.Cost(unscheduled), params.base_unscheduled_cost + 3 * params.wait_cost_per_second);
  manager.UpdateRound(3 * kSec + kSec / 2);  // mid-bucket: no change
  EXPECT_EQ(net.Cost(unscheduled), params.base_unscheduled_cost + 3 * params.wait_cost_per_second);
  manager.UpdateRound(10 * kSec);
  EXPECT_EQ(net.Cost(unscheduled),
            params.base_unscheduled_cost + 10 * params.wait_cost_per_second);
}

}  // namespace
}  // namespace firmament
