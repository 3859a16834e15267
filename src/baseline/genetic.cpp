#include "baseline/genetic.hpp"

#include <algorithm>

#include "baseline/clustering.hpp"
#include "baseline/list_scheduler.hpp"
#include "util/assert.hpp"

namespace rdse {

GeneticPartitioner::GeneticPartitioner(const TaskGraph& tg,
                                       const Architecture& arch)
    : tg_(&tg), arch_(&arch) {
  const auto procs = arch.processor_ids();
  const auto rcs = arch.reconfigurable_ids();
  RDSE_REQUIRE(!procs.empty(), "GeneticPartitioner: no processor");
  RDSE_REQUIRE(!rcs.empty(), "GeneticPartitioner: no reconfigurable circuit");
  rc_ = rcs.front();
}

Chromosome GeneticPartitioner::random_chromosome(Rng& rng) const {
  Chromosome c(tg_->task_count());
  for (TaskId t = 0; t < tg_->task_count(); ++t) {
    c[t].hw = rng.bernoulli(0.5);
    const auto& impls = tg_->task(t).hw;
    c[t].impl = impls.empty()
                    ? 0
                    : static_cast<std::uint32_t>(rng.index(impls.size()));
  }
  return c;
}

Solution GeneticPartitioner::decode(const Chromosome& chromosome) const {
  RDSE_REQUIRE(chromosome.size() == tg_->task_count(),
               "GeneticPartitioner::decode: chromosome size mismatch");
  const auto& dev = arch_->reconfigurable(rc_);

  std::vector<bool> hw_mask(tg_->task_count(), false);
  std::vector<std::uint32_t> impl(tg_->task_count(), 0);
  for (TaskId t = 0; t < tg_->task_count(); ++t) {
    const auto& impls = tg_->task(t).hw;
    if (!chromosome[t].hw || impls.empty()) continue;
    const auto k = std::min<std::uint32_t>(
        chromosome[t].impl, static_cast<std::uint32_t>(impls.size() - 1));
    if (impls.at(k).clbs > dev.n_clbs()) continue;  // repair: stays software
    hw_mask[t] = true;
    impl[t] = k;
  }

  // Deterministic temporal partitioning + global scheduling through the
  // shared partition back end (clustering, inter-context sequencing edges,
  // priority list order over upward ranks).
  return decode_partition(*tg_, *arch_, hw_mask, impl, upward_ranks(*tg_));
}

MapperResult GeneticPartitioner::run(const GaConfig& config) const {
  RDSE_REQUIRE(config.population >= 2, "GA: population too small");
  RDSE_REQUIRE(config.generations >= 1, "GA: need >= 1 generation");
  RDSE_REQUIRE(config.elites >= 0 && config.elites < config.population,
               "GA: elites out of range");

  Rng rng(config.seed);
  const Evaluator ev(*tg_, *arch_);
  const double mutation =
      config.mutation_rate > 0.0
          ? config.mutation_rate
          : 1.0 / static_cast<double>(tg_->task_count());

  MapperResult result;
  std::vector<double> best_history;  ///< best cost after each generation
  struct Individual {
    Chromosome genes;
    double cost = 0.0;
  };
  auto evaluate = [&](const Chromosome& c) {
    const Solution sol = decode(c);
    const auto m = ev.evaluate(sol);
    RDSE_ASSERT_MSG(m.has_value(), "GA decode produced an infeasible solution");
    ++result.evaluations;
    return std::pair<double, Metrics>(to_ms(m->makespan), *m);
  };

  std::vector<Individual> pop(static_cast<std::size_t>(config.population));
  double best_cost = 0.0;
  Metrics best_metrics;
  Chromosome best_genes;
  bool have_best = false;
  for (auto& ind : pop) {
    throw_if_cancelled(config.cancel);
    ind.genes = random_chromosome(rng);
    const auto [cost, metrics] = evaluate(ind.genes);
    ind.cost = cost;
    if (!have_best || cost < best_cost) {
      best_cost = cost;
      best_metrics = metrics;
      best_genes = ind.genes;
      have_best = true;
    }
  }
  best_history.push_back(best_cost);

  auto tournament = [&]() -> const Individual& {
    const Individual* winner = &pop[rng.index(pop.size())];
    for (int k = 1; k < config.tournament; ++k) {
      const Individual& challenger = pop[rng.index(pop.size())];
      if (challenger.cost < winner->cost) winner = &challenger;
    }
    return *winner;
  };

  for (int gen = 0; gen < config.generations; ++gen) {
    throw_if_cancelled(config.cancel);
    std::vector<Individual> next;
    next.reserve(pop.size());
    // Elitism: carry over the best individuals unchanged.
    std::vector<std::size_t> by_cost(pop.size());
    for (std::size_t i = 0; i < pop.size(); ++i) by_cost[i] = i;
    std::sort(by_cost.begin(), by_cost.end(),
              [&pop](std::size_t a, std::size_t b) {
                return pop[a].cost < pop[b].cost;
              });
    for (int e = 0; e < config.elites; ++e) {
      next.push_back(pop[by_cost[static_cast<std::size_t>(e)]]);
    }

    while (next.size() < pop.size()) {
      Chromosome child = tournament().genes;
      if (rng.bernoulli(config.crossover_rate)) {
        const Chromosome& other = tournament().genes;
        // One-point crossover.
        const std::size_t cut = 1 + rng.index(child.size() - 1);
        for (std::size_t i = cut; i < child.size(); ++i) {
          child[i] = other[i];
        }
      }
      for (TaskId t = 0; t < child.size(); ++t) {
        if (rng.bernoulli(mutation)) {
          child[t].hw = !child[t].hw;
        }
        const auto& impls = tg_->task(t).hw;
        if (!impls.empty() && rng.bernoulli(mutation)) {
          child[t].impl =
              static_cast<std::uint32_t>(rng.index(impls.size()));
        }
      }
      Individual ind;
      ind.genes = std::move(child);
      const auto [cost, metrics] = evaluate(ind.genes);
      ind.cost = cost;
      if (cost < best_cost) {
        best_cost = cost;
        best_metrics = metrics;
        best_genes = ind.genes;
      }
      next.push_back(std::move(ind));
    }
    pop = std::move(next);
    best_history.push_back(best_cost);
  }

  result.best_solution = decode(best_genes);
  result.best_architecture = *arch_;
  result.best_metrics = best_metrics;
  result.best_cost_ms = best_cost;
  result.counters.set("population",
                      static_cast<std::int64_t>(config.population));
  result.counters.set("generations",
                      static_cast<std::int64_t>(config.generations));
  JsonValue history = JsonValue::array();
  for (const double cost : best_history) history.push_back(cost);
  result.counters.set("best_history", std::move(history));
  return result;
}

}  // namespace rdse
