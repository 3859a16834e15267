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
      batch_(batch),
      best_arch_(arch_),
      best_sol_(sol_) {
  RDSE_REQUIRE(batch_ >= 1, "DseProblem: batch must be >= 1");
  sol_.clear_touched();  // the first move's journal starts here
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
  RDSE_REQUIRE(!pending_, "reset_state: a proposed move is pending");
  metrics_ = checked_metrics(arch, sol, /*as_current=*/true);
  arch_ = std::move(arch);
  sol_ = std::move(sol);
  sol_.clear_touched();
  cost_ = cost_of(metrics_, arch_);
}

void DseProblem::restore_best_state(Architecture arch, Solution sol) {
  RDSE_REQUIRE(!pending_, "restore_best_state: a proposed move is pending");
  best_metrics_ = checked_metrics(arch, sol, /*as_current=*/false);
  best_arch_ = std::move(arch);
  best_sol_ = std::move(sol);
}

MoveConfig DseProblem::draw_config(Rng& rng) {
  if (!mix_) return move_config_;
  // Adaptive move-mix (EXP-A2): the controller picks the class, the §4.2
  // operand draws stay random.
  const auto kind = static_cast<MoveKind>(mix_->pick(rng));
  MoveConfig forced = move_config_;
  // Force the auxiliary classes or fall back to the m1/m2 dispatch.
  switch (kind) {
    case MoveKind::kChangeImpl: forced.p_change_impl = 1.0; break;
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
  return forced;
}

MoveOutcome DseProblem::apply_draw(const MoveConfig& config, Rng& rng) {
  if (config.p_zero > 0.0) saved_arch_ = arch_;
  return generate_move(*tg_, arch_, sol_, config, rng);
}

void DseProblem::undo_draw(MoveKind kind) {
  sol_.undo();
  if (kind == MoveKind::kRemoveResource || kind == MoveKind::kCreateResource) {
    arch_ = std::move(*saved_arch_);
  }
}

std::optional<Metrics> DseProblem::evaluate() {
  // Hot path: evaluate the move as a delta against the committed state —
  // only the realizations of the resources it touched are recomputed, and
  // only the affected region of G' is re-relaxed. The full-evaluation path
  // is the A/B reference (bit-identical).
  if (inc_) {
    return inc_->evaluate_candidate(arch_, sol_, sol_.touched_resources(),
                                    sol_.touched_tasks());
  }
  return Evaluator(*tg_, arch_).evaluate(sol_);
}

bool DseProblem::propose(Rng& rng) {
  // Probe K moves against the committed state and hand the cheapest
  // feasible one to the engine's Metropolis test ("best of K, then
  // Metropolis"). Every probe is drawn into the current state, and each
  // one that does not become the candidate is undone at once. The
  // candidate stays applied until the next probe is drawn; if a later
  // probe does not displace it (only a strictly cheaper one does, so a tie
  // keeps the earlier probe), it is drawn again from the RNG state saved
  // just before its draw — generate_move depends only on the state, the
  // configuration and the RNG. Losing probes count as rejections for the
  // adaptive move mix; the per-class counters see every probe, so
  // `evaluated` measures real evaluator work.
  RDSE_REQUIRE(!pending_, "propose: the last proposed move is pending");
  bool have_cand = false;
  bool cand_applied = false;
  Rng cand_rng = rng;
  MoveConfig cand_config = move_config_;
  // The uncommitted delta the incremental evaluator holds, if any.
  enum class Staged { kNone, kCand, kLoser } staged = Staged::kNone;
  for (int k = 0; k < batch_; ++k) {
    if (cand_applied) {
      undo_draw(cand_kind_);
      cand_applied = false;
    }
    const MoveConfig config = draw_config(rng);
    const Rng before_draw = rng;
    const MoveOutcome outcome = apply_draw(config, rng);
    const auto move_class = static_cast<std::size_t>(outcome.kind);
    MoveClassStats& stats = move_stats_[move_class];
    ++stats.drawn;
    if (!outcome.applied) {
      undo_draw(outcome.kind);
      ++stats.null_draws;
      if (mix_) mix_->report(move_class, false);
      continue;
    }

    // Only one delta can be staged at a time: drop the previous probe's
    // (a displaced candidate's is re-staged below).
    if (staged != Staged::kNone) {
      inc_->discard();
      staged = Staged::kNone;
    }
    const std::optional<Metrics> m = evaluate();
    if (!m.has_value()) {
      // §4.3: the realized G' has a cycle — the move "will not be performed".
      undo_draw(outcome.kind);
      ++stats.infeasible;
      if (mix_) mix_->report(move_class, false);
      continue;
    }
    ++stats.evaluated;
    const double cost = cost_of(*m, arch_);
    const bool cheaper = !have_cand || cost < cand_cost_;
    if (inc_) staged = cheaper ? Staged::kCand : Staged::kLoser;
    if (!cheaper) {
      undo_draw(outcome.kind);
      if (mix_) mix_->report(move_class, false);
      continue;
    }
    if (have_cand && mix_) {
      mix_->report(static_cast<std::size_t>(cand_kind_), false);
    }
    cand_metrics_ = *m;
    cand_cost_ = cost;
    cand_kind_ = outcome.kind;
    cand_rng = before_draw;
    cand_config = config;
    have_cand = true;
    cand_applied = true;
  }

  if (staged == Staged::kLoser) inc_->discard();
  if (have_cand && !cand_applied) {
    const MoveOutcome again = apply_draw(cand_config, cand_rng);
    RDSE_ASSERT(again.applied && again.kind == cand_kind_);
    if (inc_ && staged != Staged::kCand) {
      // Re-stage the candidate's delta against the committed state so
      // accept() can commit it. The probe already proved feasibility, and
      // the same move from the same state stages the same delta.
      const std::optional<Metrics> m = evaluate();
      RDSE_ASSERT(m.has_value());
    }
  }
  pending_ = have_cand;
  return have_cand;
}

void DseProblem::accept() {
  RDSE_REQUIRE(pending_, "accept: no proposed move");
  if (inc_) inc_->commit();
  sol_.clear_touched();  // keep the move: drop its undo log
  metrics_ = cand_metrics_;
  cost_ = cand_cost_;
  pending_ = false;
  auto& stats = move_stats_[static_cast<std::size_t>(cand_kind_)];
  ++stats.accepted;
  if (mix_) mix_->report(static_cast<std::size_t>(cand_kind_), true);
}

void DseProblem::reject() {
  RDSE_REQUIRE(pending_, "reject: no proposed move");
  if (inc_) inc_->discard();  // rolling back a delta costs nothing
  undo_draw(cand_kind_);
  pending_ = false;
  if (mix_) mix_->report(static_cast<std::size_t>(cand_kind_), false);
}

void DseProblem::snapshot_best() {
  best_arch_ = arch_;
  best_sol_ = sol_;
  best_metrics_ = metrics_;
}

}  // namespace rdse
