// Common interface for min-cost max-flow algorithms (§4).
//
// A solver takes a FlowNetwork carrying supplies and (for incremental
// solvers) the previous flow assignment, and computes a feasible min-cost
// flow. Solvers are cancellable so that the racing solver (§6.1) can abort
// the slower algorithm once the faster one finishes.
//
// Every solver owns a *persistent* FlowNetworkView of the network it
// solves. At each solve the view is brought up to date via
// FlowNetworkView::Prepare(): patched in O(|changes|) from the network's
// GraphChange journal when the delta is small (the §5.2/§6.2 incremental
// contract), rebuilt otherwise — the taken path and its cost are reported
// in SolveStats. Two entry points exist so the racing solver can run two
// algorithms concurrently against one const network:
//  * SolveView() solves on the persistent view and leaves the flow there.
//  * Solve() wraps SolveView() and writes the flow back into the network
//    when the solve produced one (stats.flow_valid).
// Neither clears the network's change journal — the canonical consumer
// (RacingSolver::Solve) does that once per round after every algorithm's
// view has synced.

#ifndef SRC_SOLVERS_MCMF_SOLVER_H_
#define SRC_SOLVERS_MCMF_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/base/timer.h"
#include "src/flow/flow_network_view.h"
#include "src/flow/graph.h"

namespace firmament {

enum class SolveOutcome : uint8_t {
  kOptimal,      // feasible flow meeting an optimality condition (§4)
  kInfeasible,   // supplies cannot be routed within capacities
  kCancelled,    // aborted via the cancellation token; flow state undefined
  kApproximate,  // stopped at a time budget with a suboptimal solution (§5.1)
  kDegraded,     // solve-time budget expired before any usable flow existed;
                 // the round keeps the previous placements and new tasks wait
};

// Cooperative solve-time deadline shared by every leg of a racing solve.
// Armed once per round with an absolute budget; solvers poll Expired() at
// the same sites as their cancellation checks. The first expiry flips a
// sticky atomic flag so concurrent legs (and repeated polls) pay a relaxed
// load instead of a clock read.
class SolveDeadline {
 public:
  explicit SolveDeadline(uint64_t budget_us) : budget_us_(budget_us) {}

  SolveDeadline(const SolveDeadline&) = delete;
  SolveDeadline& operator=(const SolveDeadline&) = delete;

  bool Expired() const {
    if (expired_.load(std::memory_order_relaxed)) {
      return true;
    }
    if (timer_.ElapsedMicros() >= budget_us_) {
      expired_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  uint64_t budget_us() const { return budget_us_; }
  uint64_t elapsed_us() const { return timer_.ElapsedMicros(); }
  // Signed headroom: negative once the solve has overrun the budget.
  int64_t SlackUs() const {
    return static_cast<int64_t>(budget_us_) - static_cast<int64_t>(timer_.ElapsedMicros());
  }

 private:
  WallTimer timer_;
  uint64_t budget_us_;
  mutable std::atomic<bool> expired_{false};
};

struct SolveStats {
  SolveOutcome outcome = SolveOutcome::kOptimal;
  int64_t total_cost = 0;
  uint64_t runtime_us = 0;
  // Algorithm-specific progress unit: augmentations (SSP, relaxation),
  // cancelled cycles (cycle canceling), pushes+relabels (cost scaling).
  uint64_t iterations = 0;
  // Number of dual-ascent price rises (relaxation) or refine phases
  // (cost scaling); 0 for algorithms without such a notion.
  uint64_t phases = 0;
  // How the solver's persistent view was brought in sync with the network
  // this round, and what that preparation (patch/rebuild + flow sync) cost.
  FlowNetworkView::PrepareResult view_prep = FlowNetworkView::PrepareResult::kBuilt;
  uint64_t view_prep_us = 0;
  // Whether the view holds a meaningful flow for this outcome (set by the
  // solver; consumed by Solve()'s writeback and the racing solver).
  bool flow_valid = false;
  // Solve-time budget accounting (RacingSolverOptions::solve_budget_us):
  // whether the round's deadline expired mid-solve (outcome kDegraded), and
  // the signed headroom left when the winning leg returned — negative means
  // the solve overran the budget by that many microseconds.
  bool deadline_exceeded = false;
  int64_t budget_slack_us = 0;
  std::string algorithm;

  bool optimal() const { return outcome == SolveOutcome::kOptimal; }
};

class McmfSolver {
 public:
  virtual ~McmfSolver() = default;

  McmfSolver(const McmfSolver&) = delete;
  McmfSolver& operator=(const McmfSolver&) = delete;

  // Computes a min-cost flow on the solver's persistent view of `network`,
  // leaving the result in the view. If `cancel` is non-null and becomes
  // true, the solver returns early with SolveOutcome::kCancelled. The
  // network is not mutated (safe to race two solvers against one network).
  virtual SolveStats SolveView(const FlowNetwork& network,
                               const std::atomic<bool>* cancel = nullptr) = 0;

  // Convenience wrapper: solve and install the resulting flow into the
  // network's per-arc flow (when the outcome produced one).
  SolveStats Solve(FlowNetwork* network, const std::atomic<bool>* cancel = nullptr) {
    SolveStats stats = SolveView(*network, cancel);
    if (stats.flow_valid) {
      view_.WriteBackFlow(network);
    }
    return stats;
  }

  virtual std::string name() const = 0;

  FlowNetworkView& view() { return view_; }

  // Arms (or clears, with nullptr) the cooperative solve deadline. Solvers
  // poll it next to their cancellation checks and return
  // SolveOutcome::kDegraded (flow invalid) when it has expired. The pointer
  // must outlive the solve; the racing solver arms all legs with one shared
  // deadline per round.
  void set_deadline(const SolveDeadline* deadline) { deadline_ = deadline; }

 protected:
  McmfSolver() = default;

  bool DeadlineExpired() const { return deadline_ != nullptr && deadline_->Expired(); }

  // The persistent, incrementally-patched view (§6.2).
  FlowNetworkView view_;
  const SolveDeadline* deadline_ = nullptr;
};

}  // namespace firmament

#endif  // SRC_SOLVERS_MCMF_SOLVER_H_
