#pragma once
/// \file problem.hpp
/// \brief The design-space exploration problem handed to the annealer:
/// state = (architecture, solution), moves = §4.2, cost = §4.4 longest path
/// (optionally blended with system price and a deadline penalty for the
/// architecture-exploration mode of [11]).
///
/// propose() is one loop for every batch size K: it draws K moves against
/// the committed state, keeps the cheapest feasible one in the candidate
/// buffers (a later probe, drawn into spare buffers, replaces it only when
/// strictly cheaper) and leaves its delta staged in the incremental
/// evaluator for accept()/reject(). K = 1 is the classic one-probe step.

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

  // Inspection.
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
  /// An invalid state throws and leaves the problem as it was.
  void reset_state(Architecture arch, Solution sol);

  /// Checkpoint restore: replace the best-so-far snapshot (validated and
  /// re-evaluated; an invalid state throws and leaves the problem as it
  /// was). The construction sequence of a resumed problem takes
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

  /// One probe's move buffers: copies of the current state for a move to
  /// mutate. A stale flag marks a copy that may differ from the current
  /// state and is re-copied before the next draw; skipping the copy after
  /// null draws and accepted moves keeps the hot path allocation-free.
  struct ProbeBuffers {
    Architecture arch;
    Solution sol;
    bool arch_stale = true;
    bool sol_stale = true;
  };
  /// Re-copy the stale parts of `probe` and clear its mutation journal.
  void refresh(ProbeBuffers& probe) const;
  /// One §4.2 move draw into `probe` (adaptive-mix forcing included).
  MoveOutcome generate_move_into(Rng& rng, ProbeBuffers& probe);
  /// Evaluate `probe` against the committed state; nullopt when its G' is
  /// cyclic. In incremental mode a feasible probe's delta stays staged.
  std::optional<Metrics> evaluate(const ProbeBuffers& probe);

  const TaskGraph* tg_;
  MoveConfig move_config_;
  CostWeights weights_;

  Architecture arch_;
  Solution sol_;
  Metrics metrics_;
  double cost_ = 0.0;

  /// The candidate: the cheapest feasible probe of the current step.
  ProbeBuffers cand_;
  Metrics cand_metrics_;
  double cand_cost_ = 0.0;
  MoveKind cand_kind_ = MoveKind::kReassign;
  /// True when the candidate's move mutated its architecture (m3/m4).
  /// accept() deep-clones the architecture (unique_ptr resources) only
  /// then — every other move leaves arch_ == cand_.arch already.
  bool cand_arch_mutated_ = false;
  /// Probes 2..K of a step are drawn here and swapped into cand_ only when
  /// strictly cheaper. Built only when K > 1.
  std::optional<ProbeBuffers> spare_;
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
