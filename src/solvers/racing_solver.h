// Firmament's production solver (§6): speculatively executes relaxation and
// incremental cost scaling concurrently and picks whichever finishes first.
//
// In the common case relaxation wins (§4.2); under oversubscription or large
// arriving jobs (§4.3) incremental cost scaling finishes first and bounds
// the placement latency (Fig. 16). Running both is cheap — the algorithms
// are single-threaded — and avoids a brittle choice heuristic (§6.1).
//
// State handoff (§6.2): when relaxation wins, price refine recomputes
// reduced potentials from its solution so the next incremental cost scaling
// run warm-starts cheaply (Fig. 13 shows 4x). Only the next round reads
// those potentials, so the refine is off the round's critical path: once
// the winning flow is written back, Solve() queues it on the race's worker
// and returns. The next Solve() (and SolveAsync, ResetState, the
// destructor) joins it before touching either algorithm's state; the
// worker's FIFO would run it ahead of the next cost-scaling leg anyway.
//
// Race isolation (§6.2 incremental contract): both algorithms race on their
// own *persistent* FlowNetworkViews of the one canonical (const) network —
// each view is patched from the round's GraphChange journal rather than the
// network being copy-constructed per algorithm per round — and the winner's
// view writes its flow back. This class is the journal's canonical
// consumer: Solve() clears the network's change log once every algorithm's
// view has synced past it.

#ifndef SRC_SOLVERS_RACING_SOLVER_H_
#define SRC_SOLVERS_RACING_SOLVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/solvers/cost_scaling.h"
#include "src/solvers/mcmf_solver.h"
#include "src/solvers/relaxation.h"

namespace firmament {

// Which algorithm(s) the solver runs; single-algorithm modes exist for the
// paper's ablations ("Relaxation only", "Cost scaling (Quincy)").
enum class SolverMode : uint8_t {
  kRace,                // relaxation + incremental cost scaling (Firmament)
  kRelaxationOnly,      // from-scratch relaxation each round
  kCostScalingOnly,     // incremental cost scaling each round
  kCostScalingScratch,  // from-scratch cost scaling each round (Quincy)
};

struct RacingSolverOptions {
  SolverMode mode = SolverMode::kRace;
  int64_t cost_scaling_alpha = 2;
  bool arc_prioritization = true;
  // Per-round solve-time budget (0 = unlimited). When set, every leg polls
  // a shared SolveDeadline at its cancellation sites; once it expires the
  // round returns SolveOutcome::kDegraded — no flow is installed, the
  // scheduler keeps the previous round's placements and new tasks wait —
  // instead of stalling the control loop on an overrun solve. The returned
  // SolveStats carries deadline_exceeded and budget_slack_us (signed
  // headroom when the round resolved).
  uint64_t solve_budget_us = 0;
};

struct RoundStats {
  std::string winner_algorithm;
  // Per-algorithm stats for the round; losers report kCancelled.
  SolveStats relaxation;
  SolveStats cost_scaling;
  // The previous round's deferred price refine, reported on the round that
  // joins it: its own run time, and how long this Solve() blocked waiting
  // for it (~0 — the caller's apply, event and graph-update work normally
  // covers it). Both 0 when no refine was pending.
  uint64_t price_refine_us = 0;
  uint64_t refine_wait_us = 0;
  // Race only: time the round waited for the cost-scaling leg after the
  // relaxation leg returned (when relaxation won, the cancelled leg's run
  // to its next cancellation check).
  uint64_t loser_wait_us = 0;
};

class RacingSolver {
 public:
  explicit RacingSolver(RacingSolverOptions options = {});
  ~RacingSolver();

  RacingSolver(const RacingSolver&) = delete;
  RacingSolver& operator=(const RacingSolver&) = delete;

  // Solves the canonical network in place: on return, the network carries
  // the winner's optimal flow and its change log is cleared. Subsequent
  // calls warm-start from the previous round's state.
  SolveStats Solve(FlowNetwork* network);

  // --- Async handoff (pipelined rounds) -----------------------------------
  // SolveAsync dispatches Solve(network) onto a persistent dispatch worker
  // and returns immediately; WaitSolve blocks for (and returns) the result.
  // At most one async solve may be in flight, and until WaitSolve returns
  // the caller must not touch the network — nor mutate anything the
  // journal-patched solver views read (graph manager, policies). The
  // dispatch worker is distinct from the race's cost-scaling worker: Solve
  // itself submits the cost-scaling leg to that worker and waits on it, so
  // running Solve *on* it would self-deadlock.
  void SolveAsync(FlowNetwork* network);
  SolveStats WaitSolve();
  // True when no async solve is still running (poll site for pipelined
  // loops deciding between further ingest and finishing the round).
  bool async_solve_done() const;

  const RoundStats& last_round() const { return last_round_; }
  const RacingSolverOptions& options() const { return options_; }

  // Runtime graceful-degradation knob: adjusts the per-round solve budget
  // between rounds (0 disables). Operators tighten it under load shedding
  // without rebuilding the scheduler stack.
  void set_solve_budget_us(uint64_t budget_us) { options_.solve_budget_us = budget_us; }

  // Drops warm state (e.g. when switching workloads in benchmarks).
  void ResetState();

  // Joins any deferred price refine and returns the (unscaled, NodeId-keyed)
  // potentials the next cost-scaling run will import; empty when no
  // handoff is pending. For tests of the relaxation -> cost scaling handoff.
  const std::vector<int64_t>& pending_handoff();

  // Threads ever spawned for the race's cost-scaling leg — a *monotonic*
  // counter, so a regression back to per-round workers (recreating the
  // pool each Solve) shows up as a number that grows with rounds, not as a
  // constant 1. The persistent worker keeps it at 1 no matter how many
  // rounds ran; 0 before the first race. Exposed for the spawn-free
  // regression test.
  size_t worker_spawns() const { return worker_spawns_; }

 private:
  SolveStats SolveRace(FlowNetwork* network);
  // Blocks until the deferred price refine (if any) has finished and
  // records the wait for the next round's RoundStats.
  void JoinRefine();

  RacingSolverOptions options_;
  Relaxation relaxation_;
  CostScaling cost_scaling_;
  RoundStats last_round_;
  // Persistent worker for the cost-scaling leg of the race; created lazily
  // on the first kRace round so single-algorithm modes never hold a thread.
  std::unique_ptr<ThreadPool> worker_;
  size_t worker_spawns_ = 0;
  // Deferred price refine queued on worker_ when relaxation won; refine_us_
  // is written on the worker and read after the ticket's Wait.
  ThreadPool::Ticket refine_ticket_;
  bool refine_pending_ = false;
  uint64_t refine_us_ = 0;
  uint64_t refine_wait_us_ = 0;
  // Persistent dispatch worker for SolveAsync; lazy so synchronous callers
  // never hold the extra thread. async_result_ is written on the worker and
  // read after the ticket's Wait/Done, which order the accesses.
  std::unique_ptr<ThreadPool> async_worker_;
  ThreadPool::Ticket async_ticket_;
  SolveStats async_result_;
  bool async_in_flight_ = false;
};

}  // namespace firmament

#endif  // SRC_SOLVERS_RACING_SOLVER_H_
