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
      cand_{arch_, sol_},
      batch_(batch),
      best_arch_(arch_),
      best_sol_(sol_) {
  RDSE_REQUIRE(batch_ >= 1, "DseProblem: batch must be >= 1");
  if (batch_ > 1) spare_.emplace(ProbeBuffers{arch_, sol_});
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
  cand_.arch_stale = cand_.sol_stale = true;
  if (spare_) spare_->arch_stale = spare_->sol_stale = true;
}

void DseProblem::restore_best_state(Architecture arch, Solution sol) {
  best_metrics_ = checked_metrics(arch, sol, /*as_current=*/false);
  best_arch_ = std::move(arch);
  best_sol_ = std::move(sol);
}

void DseProblem::refresh(ProbeBuffers& probe) const {
  // Storage-reusing copy assignments, skipped entirely when the buffer
  // still holds the current state.
  if (probe.arch_stale) {
    probe.arch = arch_;
    probe.arch_stale = false;
  }
  if (probe.sol_stale) {
    probe.sol = sol_;
    probe.sol_stale = false;
  }
  probe.sol.clear_touched();
}

MoveOutcome DseProblem::generate_move_into(Rng& rng, ProbeBuffers& probe) {
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
    return generate_move(*tg_, probe.arch, probe.sol, forced, rng);
  }
  return generate_move(*tg_, probe.arch, probe.sol, move_config_, rng);
}

std::optional<Metrics> DseProblem::evaluate(const ProbeBuffers& probe) {
  // Hot path: evaluate the probe as a delta against the committed state —
  // only the realizations of the resources the move touched are recomputed,
  // and only the affected region of G' is re-relaxed. The full-evaluation
  // path is the A/B reference (bit-identical).
  if (inc_) {
    return inc_->evaluate_candidate(probe.arch, probe.sol,
                                    probe.sol.touched_resources(),
                                    probe.sol.touched_tasks());
  }
  return Evaluator(*tg_, probe.arch).evaluate(probe.sol);
}

bool DseProblem::propose(Rng& rng) {
  // Probe K moves against the committed state and hand the cheapest
  // feasible one to the engine's Metropolis test ("best of K, then
  // Metropolis"). The cheapest probe so far stays in cand_; a later probe
  // is drawn into spare_ and swapped in only when strictly cheaper, so a
  // tie keeps the earlier probe. Losing probes count as rejections for the
  // adaptive move mix; the per-class counters see every probe, so
  // `evaluated` measures real evaluator work.
  bool have_cand = false;
  // The uncommitted delta the incremental evaluator holds, if any.
  enum class Staged { kNone, kCand, kLoser } staged = Staged::kNone;
  for (int k = 0; k < batch_; ++k) {
    ProbeBuffers& probe = have_cand ? *spare_ : cand_;
    refresh(probe);
    const MoveOutcome outcome = generate_move_into(rng, probe);
    const auto move_class = static_cast<std::size_t>(outcome.kind);
    MoveClassStats& stats = move_stats_[move_class];
    ++stats.drawn;
    if (outcome.applied) probe.sol_stale = true;
    // m3/m4 mutate the probe's architecture. A failed m4 still leaves a
    // tombstoned slot behind; a failed m3 returns before mutating anything.
    const bool arch_mutated =
        outcome.kind == MoveKind::kCreateResource ||
        (outcome.applied && outcome.kind == MoveKind::kRemoveResource);
    if (arch_mutated) probe.arch_stale = true;
    if (!outcome.applied) {
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
    const std::optional<Metrics> m = evaluate(probe);
    if (!m.has_value()) {
      // §4.3: the realized G' has a cycle — the move "will not be performed".
      ++stats.infeasible;
      if (mix_) mix_->report(move_class, false);
      continue;
    }
    ++stats.evaluated;
    const double cost = cost_of(*m, probe.arch);
    const bool cheaper = !have_cand || cost < cand_cost_;
    if (inc_) staged = cheaper ? Staged::kCand : Staged::kLoser;
    if (!cheaper) {
      if (mix_) mix_->report(move_class, false);
      continue;
    }
    if (have_cand) {
      if (mix_) mix_->report(static_cast<std::size_t>(cand_kind_), false);
      std::swap(cand_, *spare_);  // the touched journal travels too
    }
    cand_metrics_ = *m;
    cand_cost_ = cost;
    cand_kind_ = outcome.kind;
    cand_arch_mutated_ = arch_mutated;
    have_cand = true;
  }

  if (staged == Staged::kLoser) inc_->discard();
  if (inc_ && have_cand && staged != Staged::kCand) {
    // Re-stage the candidate's delta against the committed state so
    // accept() can commit it. The probe already proved feasibility, and
    // replaying the identical (candidate, journal) pair is deterministic.
    const std::optional<Metrics> m = evaluate(cand_);
    RDSE_ASSERT(m.has_value());
  }
  return have_cand;
}

void DseProblem::accept() {
  if (inc_) inc_->commit();
  if (cand_arch_mutated_) {
    arch_ = cand_.arch;  // deep clone, m3/m4 only — see cand_arch_mutated_
    if (spare_) spare_->arch_stale = true;
    cand_arch_mutated_ = false;
  }
  sol_ = cand_.sol;
  if (spare_) spare_->sol_stale = true;
  metrics_ = cand_metrics_;
  cost_ = cand_cost_;
  cand_.arch_stale = false;  // current == candidate again
  cand_.sol_stale = false;
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
