#pragma once
/// \file problem.hpp
/// \brief The design-space exploration problem handed to the annealer:
/// state = (architecture, solution), moves = §4.2, cost = §4.4 longest path
/// (optionally blended with system price and a deadline penalty for the
/// architecture-exploration mode of [11]).
///
/// Moves change the current state in place. propose() is one loop for
/// every batch size K: it draws K moves against the committed state,
/// undoing each probe that is not the cheapest feasible one so far (a later
/// probe replaces the cheapest only when strictly cheaper), leaves the
/// winner applied and its delta staged in the incremental evaluator, and
/// accept() keeps it while reject() undoes it. K = 1 is the classic
/// one-probe step.

#include <array>
#include <memory>
#include <optional>

#include "anneal/annealer.hpp"
#include "anneal/move_control.hpp"
#include "core/moves.hpp"
#include "sched/evaluator.hpp"
#include "sched/incremental_eval.hpp"

namespace rdse {

/// Objective weights. With the defaults the cost is the execution time in
/// milliseconds — the paper's §5 criterion for a fixed architecture. For
/// architecture exploration, price_weight > 0 charges the system cost and
/// deadline_penalty_per_ms turns the performance constraint into a soft
/// barrier.
struct CostWeights {
  double time_weight = 1.0;            ///< per ms of makespan
  double price_weight = 0.0;           ///< per unit of resource price
  double deadline_penalty_per_ms = 0.0;
  TimeNs deadline = 0;
};

/// Per-move-class counters (proposals may be null, infeasible = cyclic G').
struct MoveClassStats {
  std::int64_t drawn = 0;
  std::int64_t null_draws = 0;
  std::int64_t infeasible = 0;
  std::int64_t evaluated = 0;
  std::int64_t accepted = 0;
};

class DseProblem final : public AnnealProblem {
 public:
  /// `full_eval` switches the hot path back to realizing and relaxing the
  /// whole search graph per move (the reference path) — the A/B escape
  /// hatch for the incremental evaluator, which is bit-identical but kept
  /// verifiable.
  ///
  /// `batch` (K >= 1) is the number of candidate moves probed per annealing
  /// step against the same committed state; the cheapest feasible probe is
  /// handed to the engine's Metropolis test ("best of K, then Metropolis").
  /// One loop serves every K; at K = 1 it is the classic one-probe step.
  DseProblem(const TaskGraph& tg, Architecture arch, Solution initial,
             MoveConfig moves = {}, CostWeights weights = {},
             bool adaptive_move_mix = false, bool full_eval = false,
             int batch = 1);

  // AnnealProblem interface.
  [[nodiscard]] double cost() const override { return cost_; }
  bool propose(Rng& rng) override;
  [[nodiscard]] double candidate_cost() const override { return cand_cost_; }
  void accept() override;
  void reject() override;
  void snapshot_best() override;

  // Inspection. Between a successful propose() and its accept() or
  // reject(), the current state is the candidate.
  [[nodiscard]] const Solution& current_solution() const { return sol_; }
  [[nodiscard]] const Architecture& current_architecture() const {
    return arch_;
  }
  [[nodiscard]] const Metrics& current_metrics() const { return metrics_; }
  [[nodiscard]] const Solution& best_solution() const { return best_sol_; }
  [[nodiscard]] const Architecture& best_architecture() const {
    return best_arch_;
  }
  [[nodiscard]] const Metrics& best_metrics() const { return best_metrics_; }
  [[nodiscard]] const std::array<MoveClassStats, kMoveKindCount>&
  move_stats() const {
    return move_stats_;
  }
  /// Incremental-evaluation counters; nullopt when running with full_eval.
  [[nodiscard]] std::optional<IncrementalEvalStats> incremental_stats()
      const {
    if (!inc_) return std::nullopt;
    return inc_->stats();
  }
  /// The incremental evaluator, for inspection (tests); nullptr when
  /// running with full_eval.
  [[nodiscard]] const IncrementalEvaluator* incremental_evaluator() const {
    return inc_.get();
  }
  /// Toggle the incremental evaluator's per-phase micro-profile (no-op in
  /// full_eval mode); see IncrementalEvalStats::profile_*_ns.
  void set_incremental_profile(bool on) {
    if (inc_) inc_->set_profile(on);
  }

  /// Cost of a (makespan, price) pair under the configured weights.
  [[nodiscard]] double cost_of(const Metrics& m,
                               const Architecture& arch) const;

  /// Replace the *current* state with an externally supplied one (replica
  /// exchange): validates, re-evaluates, and updates the current cost. The
  /// best-so-far snapshot and move statistics are left untouched; callers
  /// driving an AnnealEngine must follow up with notify_state_replaced().
  /// An invalid state, or a move pending between propose() and its
  /// accept() or reject(), throws and leaves the problem as it was.
  void reset_state(Architecture arch, Solution sol);

  /// Checkpoint restore: replace the best-so-far snapshot (validated and
  /// re-evaluated; an invalid state or a pending move throws and leaves the
  /// problem as it was). The construction sequence of a resumed problem takes
  /// the checkpointed *current* state through the constructor and the
  /// engine's initial snapshot_best() clobbers best with it; this puts the
  /// checkpointed best back.
  void restore_best_state(Architecture arch, Solution sol);

  /// Checkpoint restore of the per-class move counters.
  void set_move_stats(const std::array<MoveClassStats, kMoveKindCount>& s) {
    move_stats_ = s;
  }

  /// Adaptive move-mix controller; nullptr unless adaptive_move_mix was
  /// requested. Exposed for checkpoint save/restore of its EWMA state.
  [[nodiscard]] MoveMixController* move_mix() { return mix_.get(); }
  [[nodiscard]] const MoveMixController* move_mix() const {
    return mix_.get();
  }

 private:
  /// Validate a state and return its metrics, realizing it once: the
  /// structural checks of validate_structure, then one realization that
  /// decides the cycle verdict — the incremental evaluator's sparse reset
  /// for a state becoming current (`as_current`, incremental mode; the
  /// evaluator then holds it), a full evaluation otherwise. Throws
  /// require_valid's error for an invalid state, leaving the problem and
  /// its evaluator as they were.
  Metrics checked_metrics(const Architecture& arch, const Solution& sol,
                          bool as_current);

  /// The move configuration of the next draw: the adaptive mix, when on,
  /// picks the class (drawing from `rng`) and forces it.
  MoveConfig draw_config(Rng& rng);
  /// Apply one §4.2 draw to the current state, saving the architecture
  /// first when the draw can be m3/m4 (p_zero > 0).
  MoveOutcome apply_draw(const MoveConfig& config, Rng& rng);
  /// Undo an apply_draw() of class `kind` (applied or null): replay the
  /// Solution's undo log and, for m3/m4, restore the saved architecture —
  /// a failed m4 leaves a tombstoned slot behind.
  void undo_draw(MoveKind kind);
  /// Evaluate the current state, a committed one plus one move; nullopt
  /// when its G' is cyclic. In incremental mode a feasible move's delta
  /// stays staged.
  std::optional<Metrics> evaluate();

  const TaskGraph* tg_;
  MoveConfig move_config_;
  CostWeights weights_;

  /// The current state, which is the candidate between propose() and
  /// accept() or reject(); the metrics and cost are the committed ones.
  Architecture arch_;
  Solution sol_;
  Metrics metrics_;
  double cost_ = 0.0;
  /// The architecture before the applied draw, when it could be m3/m4.
  std::optional<Architecture> saved_arch_;

  /// The candidate: the cheapest feasible probe of the current step.
  Metrics cand_metrics_;
  double cand_cost_ = 0.0;
  MoveKind cand_kind_ = MoveKind::kReassign;
  /// A candidate move is applied to the current state.
  bool pending_ = false;
  /// Probes evaluated per annealing step (K).
  int batch_ = 1;

  Architecture best_arch_;
  Solution best_sol_;
  Metrics best_metrics_;

  std::unique_ptr<MoveMixController> mix_;
  std::array<MoveClassStats, kMoveKindCount> move_stats_{};
  /// Hot-path evaluator (null when full_eval was requested).
  std::unique_ptr<IncrementalEvaluator> inc_;
};

}  // namespace rdse
