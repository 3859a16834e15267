#include "core/problem.hpp"

#include "mapping/validation.hpp"
#include "util/assert.hpp"

namespace rdse {

DseProblem::DseProblem(const TaskGraph& tg, Architecture arch,
                       Solution initial, MoveConfig moves,
                       CostWeights weights, bool adaptive_move_mix,
                       bool full_eval, int batch)
    : tg_(&tg),
      move_config_(moves),
      weights_(weights),
      arch_(std::move(arch)),
      sol_(std::move(initial)),
      cand_arch_(arch_),
      cand_sol_(sol_),
      best_arch_(arch_),
      best_sol_(sol_),
      winner_arch_(arch_),
      winner_sol_(sol_),
      batch_(batch) {
  RDSE_REQUIRE(batch_ >= 1, "DseProblem: batch must be >= 1");
  if (!full_eval) inc_ = std::make_unique<IncrementalEvaluator>(*tg_);
  metrics_ = checked_metrics(arch_, sol_, /*as_current=*/true);
  cost_ = cost_of(metrics_, arch_);
  best_metrics_ = metrics_;

  if (adaptive_move_mix) {
    std::vector<std::string> names;
    names.reserve(kMoveKindCount);
    for (std::size_t k = 0; k < kMoveKindCount; ++k) {
      names.emplace_back(to_string(static_cast<MoveKind>(k)));
    }
    mix_ = std::make_unique<MoveMixController>(std::move(names));
  }
}

double DseProblem::cost_of(const Metrics& m, const Architecture& arch) const {
  double c = weights_.time_weight * to_ms(m.makespan);
  if (weights_.price_weight != 0.0) {
    c += weights_.price_weight * arch.total_price();
  }
  if (weights_.deadline_penalty_per_ms > 0.0 && weights_.deadline > 0 &&
      m.makespan > weights_.deadline) {
    c += weights_.deadline_penalty_per_ms *
         to_ms(m.makespan - weights_.deadline);
  }
  return c;
}

Metrics DseProblem::checked_metrics(const Architecture& arch,
                                   const Solution& sol, bool as_current) {
  if (!validate_structure(*tg_, arch, sol).empty()) {
    // Cold path: the reference validator words the error, so an
    // over-capacity state still lists its cycle verdict too.
    require_valid(*tg_, arch, sol);
  }
  // One realization decides the cycle verdict and yields the metrics. A
  // rejected state leaves the incremental evaluator as it was.
  const std::optional<Metrics> m = as_current && inc_
                                       ? inc_->reset(arch, sol)
                                       : Evaluator(*tg_, arch).evaluate(sol);
  if (!m.has_value()) throw_invalid({kCyclicSearchGraph});
  return *m;
}

void DseProblem::reset_state(Architecture arch, Solution sol) {
  metrics_ = checked_metrics(arch, sol, /*as_current=*/true);
  arch_ = std::move(arch);
  sol_ = std::move(sol);
  cost_ = cost_of(metrics_, arch_);
  cand_arch_stale_ = true;
  cand_sol_stale_ = true;
}

void DseProblem::restore_best_state(Architecture arch, Solution sol) {
  best_metrics_ = checked_metrics(arch, sol, /*as_current=*/false);
  best_arch_ = std::move(arch);
  best_sol_ = std::move(sol);
}

MoveOutcome DseProblem::generate_candidate_move(Rng& rng) {
  if (mix_) {
    // Adaptive move-mix (EXP-A2): the controller picks the class, the
    // §4.2 operand draws stay random.
    const auto kind = static_cast<MoveKind>(mix_->pick(rng));
    MoveConfig forced = move_config_;
    // Force the auxiliary classes or fall back to the m1/m2 dispatch.
    switch (kind) {
      case MoveKind::kChangeImpl:
        forced.p_change_impl = 1.0;
        break;
      case MoveKind::kReorderContexts:
        forced.p_change_impl = 0.0;
        forced.p_reorder_contexts = 1.0;
        break;
      case MoveKind::kRemoveResource:
      case MoveKind::kCreateResource:
        forced.p_change_impl = 0.0;
        forced.p_reorder_contexts = 0.0;
        forced.p_zero = move_config_.p_zero > 0.0 ? 1.0 : 0.0;
        break;
      default:
        forced.p_change_impl = 0.0;
        forced.p_reorder_contexts = 0.0;
        break;
    }
    return generate_move(*tg_, cand_arch_, cand_sol_, forced, rng);
  }
  return generate_move(*tg_, cand_arch_, cand_sol_, move_config_, rng);
}

bool DseProblem::propose(Rng& rng) {
  return batch_ <= 1 ? propose_single(rng) : propose_batched(rng);
}

bool DseProblem::propose_single(Rng& rng) {
  // Storage-reusing copy assignments into persistent candidate buffers,
  // skipped entirely when the previous proposal left them untouched.
  if (cand_arch_stale_) {
    cand_arch_ = arch_;
    cand_arch_stale_ = false;
  }
  if (cand_sol_stale_) {
    cand_sol_ = sol_;
    cand_sol_stale_ = false;
  }
  cand_sol_.clear_touched();

  const MoveOutcome outcome = generate_candidate_move(rng);

  auto& stats = move_stats_[static_cast<std::size_t>(outcome.kind)];
  ++stats.drawn;
  cand_kind_ = outcome.kind;
  if (outcome.applied) {
    cand_sol_stale_ = true;
  }
  // m3/m4 mutate the candidate architecture. A failed m4 still leaves a
  // tombstoned slot behind; a failed m3 returns before mutating anything.
  cand_arch_mutated_ =
      outcome.kind == MoveKind::kCreateResource ||
      (outcome.applied && outcome.kind == MoveKind::kRemoveResource);
  if (cand_arch_mutated_) {
    cand_arch_stale_ = true;
  }
  if (!outcome.applied) {
    ++stats.null_draws;
    if (mix_) mix_->report(static_cast<std::size_t>(outcome.kind), false);
    return false;
  }

  // Hot path: evaluate the candidate as a delta against the committed
  // state — only the realizations of the resources the move touched are
  // recomputed, and only the affected region of G' is re-relaxed. The
  // full-evaluation path is the A/B reference (bit-identical).
  std::optional<Metrics> m;
  if (inc_) {
    m = inc_->evaluate_candidate(cand_arch_, cand_sol_,
                                 cand_sol_.touched_resources(),
                                 cand_sol_.touched_tasks());
  } else {
    const Evaluator ev(*tg_, cand_arch_);
    m = ev.evaluate(cand_sol_);
  }
  if (!m.has_value()) {
    // §4.3: the realized G' has a cycle — the move "will not be performed".
    ++stats.infeasible;
    if (mix_) mix_->report(static_cast<std::size_t>(outcome.kind), false);
    return false;
  }
  ++stats.evaluated;
  cand_metrics_ = *m;
  cand_cost_ = cost_of(cand_metrics_, cand_arch_);
  return true;
}

bool DseProblem::propose_batched(Rng& rng) {
  // Probe K independent moves against the same committed state, keep the
  // cheapest feasible one and hand only that winner to the engine's
  // Metropolis test ("best of K, then Metropolis"). Losing probes count as
  // rejections for the adaptive move mix; the per-class counters see every
  // probe, so `evaluated` still measures real evaluator work.
  bool have_winner = false;
  bool staged = false;            // inc_ holds an uncommitted delta ...
  bool staged_is_winner = false;  // ... and it belongs to the winner
  for (int k = 0; k < batch_; ++k) {
    if (cand_arch_stale_) {
      cand_arch_ = arch_;
      cand_arch_stale_ = false;
    }
    if (cand_sol_stale_) {
      cand_sol_ = sol_;
      cand_sol_stale_ = false;
    }
    cand_sol_.clear_touched();

    const MoveOutcome outcome = generate_candidate_move(rng);
    auto& stats = move_stats_[static_cast<std::size_t>(outcome.kind)];
    ++stats.drawn;
    cand_kind_ = outcome.kind;
    if (outcome.applied) {
      cand_sol_stale_ = true;
    }
    const bool arch_mutated =
        outcome.kind == MoveKind::kCreateResource ||
        (outcome.applied && outcome.kind == MoveKind::kRemoveResource);
    if (arch_mutated) {
      cand_arch_stale_ = true;
    }
    if (!outcome.applied) {
      ++stats.null_draws;
      if (mix_) mix_->report(static_cast<std::size_t>(outcome.kind), false);
      continue;
    }

    // Only one delta can be staged at a time: drop the previous probe's
    // before evaluating this one (the winner is re-staged at the end).
    if (inc_ && staged) {
      inc_->discard();
      staged = false;
      staged_is_winner = false;
    }
    std::optional<Metrics> m;
    if (inc_) {
      m = inc_->evaluate_candidate(cand_arch_, cand_sol_,
                                   cand_sol_.touched_resources(),
                                   cand_sol_.touched_tasks());
    } else {
      const Evaluator ev(*tg_, cand_arch_);
      m = ev.evaluate(cand_sol_);
    }
    if (!m.has_value()) {
      ++stats.infeasible;
      if (mix_) mix_->report(static_cast<std::size_t>(outcome.kind), false);
      continue;
    }
    ++stats.evaluated;
    staged = inc_ != nullptr;
    const double cost = cost_of(*m, cand_arch_);
    if (!have_winner || cost < winner_cost_) {
      if (have_winner && mix_) {
        mix_->report(static_cast<std::size_t>(winner_kind_), false);
      }
      std::swap(winner_arch_, cand_arch_);
      std::swap(winner_sol_, cand_sol_);  // the touched journal travels too
      winner_metrics_ = *m;
      winner_cost_ = cost;
      winner_kind_ = outcome.kind;
      winner_arch_mutated_ = arch_mutated;
      have_winner = true;
      staged_is_winner = true;
      // The swap left the previous winner's storage in the cand buffers.
      cand_arch_stale_ = true;
      cand_sol_stale_ = true;
    } else {
      if (mix_) mix_->report(static_cast<std::size_t>(outcome.kind), false);
      staged_is_winner = false;
    }
  }

  if (!have_winner) {
    if (inc_ && staged) inc_->discard();
    return false;
  }
  if (inc_ && staged && !staged_is_winner) {
    inc_->discard();
  }
  std::swap(cand_arch_, winner_arch_);
  std::swap(cand_sol_, winner_sol_);
  cand_metrics_ = winner_metrics_;
  cand_cost_ = winner_cost_;
  cand_kind_ = winner_kind_;
  cand_arch_mutated_ = winner_arch_mutated_;
  cand_arch_stale_ = true;
  cand_sol_stale_ = true;
  if (inc_ && !staged_is_winner) {
    // Re-stage the winner's delta against the committed state so accept()
    // can commit it. The probe already proved feasibility, and replaying
    // the identical (candidate, journal) pair is deterministic.
    const auto m = inc_->evaluate_candidate(cand_arch_, cand_sol_,
                                            cand_sol_.touched_resources(),
                                            cand_sol_.touched_tasks());
    RDSE_ASSERT(m.has_value());
  }
  return true;
}

void DseProblem::accept() {
  if (inc_) inc_->commit();
  if (cand_arch_mutated_) {
    arch_ = cand_arch_;  // deep clone, m3/m4 only — see cand_arch_mutated_
    cand_arch_mutated_ = false;
  }
  sol_ = cand_sol_;
  metrics_ = cand_metrics_;
  cost_ = cand_cost_;
  cand_arch_stale_ = false;  // current == candidate again
  cand_sol_stale_ = false;
  auto& stats = move_stats_[static_cast<std::size_t>(cand_kind_)];
  ++stats.accepted;
  if (mix_) mix_->report(static_cast<std::size_t>(cand_kind_), true);
}

void DseProblem::reject() {
  if (inc_) inc_->discard();  // rolling back a delta costs nothing
  if (mix_) mix_->report(static_cast<std::size_t>(cand_kind_), false);
}

void DseProblem::snapshot_best() {
  best_arch_ = arch_;
  best_sol_ = sol_;
  best_metrics_ = metrics_;
}

}  // namespace rdse
