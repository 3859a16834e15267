#include "baseline/mapper.hpp"

#include <algorithm>
#include <chrono>

#include "baseline/clustering.hpp"
#include "baseline/genetic.hpp"
#include "baseline/heft.hpp"
#include "baseline/list_scheduler.hpp"
#include "baseline/peft.hpp"
#include "sched/evaluator.hpp"
#include "util/assert.hpp"

namespace rdse {

namespace {

/// Evaluate a decoded solution with the real evaluator and fill the common
/// result fields of the single-shot (deterministic / list-scheduling)
/// mappers.
MapperResult score_decoded(const TaskGraph& tg, const Architecture& arch,
                           Solution solution) {
  const Evaluator ev(tg, arch);
  const auto metrics = ev.evaluate(solution);
  RDSE_ASSERT_MSG(metrics.has_value(),
                  "mapper decode produced an infeasible solution");
  MapperResult result;
  result.best_solution = std::move(solution);
  result.best_architecture = arch;
  result.best_metrics = *metrics;
  result.best_cost_ms = to_ms(metrics->makespan);
  result.evaluations = 1;
  return result;
}

/// The fields every Explorer-backed mapper (anneal, hill_climb) reports:
/// the run's best design and its acceptance split. Infeasible candidates
/// were rejected before evaluation, so they are not evaluations.
MapperResult explorer_result(const RunResult& run) {
  MapperResult result;
  result.best_solution = run.best_solution;
  result.best_architecture = run.best_architecture;
  result.best_metrics = run.best_metrics;
  result.best_cost_ms = to_ms(run.best_metrics.makespan);
  result.evaluations = run.anneal.accepted + run.anneal.rejected;
  result.wall_seconds = run.wall_seconds;
  result.counters.set("iterations_run", run.anneal.iterations_run);
  result.counters.set("accepted", run.anneal.accepted);
  result.counters.set("rejected", run.anneal.rejected);
  result.counters.set("infeasible", run.anneal.infeasible);
  return result;
}

class AnnealMapper final : public Mapper {
 public:
  const char* name() const override { return "anneal"; }
  MapperResult run(const TaskGraph& tg, const Architecture& arch,
                   const ExplorerConfig& config) const override {
    ExplorerConfig c = config;
    c.record_trace = false;  // a MapperResult has no place for a trace
    const RunResult run = Explorer(tg, arch).run(c);
    MapperResult result = explorer_result(run);
    result.counters.set("best_iteration", run.anneal.best_iteration);
    result.counters.set("schedule", std::string(to_string(c.schedule)));
    return result;
  }
};

class GaMapper final : public Mapper {
 public:
  const char* name() const override { return "ga"; }
  MapperResult run(const TaskGraph& tg, const Architecture& arch,
                   const ExplorerConfig& config) const override {
    const GeneticPartitioner ga(tg, arch);
    GaConfig c;
    c.seed = config.seed;
    // Spend the generic evaluation budget as population * generations,
    // with a bench-friendly population (the paper's 300 needs far larger
    // budgets than a matrix cell gets).
    c.population = 60;
    c.generations = static_cast<int>(std::clamp<std::int64_t>(
        config.iterations / c.population, 1, 100'000));
    c.cancel = config.cancel;
    return ga.run(c);
  }
};

/// Greedy local search: the full §4.2 move set at temperature zero (only
/// improving moves accepted), which isolates the value of the annealing
/// schedule. The counters add the makespan of the random partition the
/// climb started from.
class HillClimbMapper final : public Mapper {
 public:
  const char* name() const override { return "hill_climb"; }
  MapperResult run(const TaskGraph& tg, const Architecture& arch,
                   const ExplorerConfig& config) const override {
    ExplorerConfig c;
    c.seed = config.seed;
    c.iterations = config.iterations;
    c.warmup_iterations = 0;  // greedy search needs no statistics
    c.schedule = ScheduleKind::kGreedy;
    c.record_trace = false;
    c.cancel = config.cancel;
    const RunResult run = Explorer(tg, arch).run(c);
    MapperResult result = explorer_result(run);
    result.counters.set("initial_makespan_ms",
                        to_ms(run.initial_metrics.makespan));
    return result;
  }
};

/// Pure random sampling: draw `iterations` random partitions onto the
/// first processor and first RC (the §5 initial-solution generator),
/// evaluate each and keep the best. The weakest sensible baseline — any
/// guided search must beat it.
class RandomMapper final : public Mapper {
 public:
  const char* name() const override { return "random"; }
  MapperResult run(const TaskGraph& tg, const Architecture& arch,
                   const ExplorerConfig& config) const override {
    const std::int64_t samples = config.iterations;
    RDSE_REQUIRE(samples >= 1, "random mapper: need >= 1 sample");
    const auto procs = arch.processor_ids();
    const auto rcs = arch.reconfigurable_ids();
    RDSE_REQUIRE(!procs.empty() && !rcs.empty(),
                 "random mapper: need a processor and an RC");
    const auto t0 = std::chrono::steady_clock::now();

    Rng rng(config.seed);
    const Evaluator ev(tg, arch);
    MapperResult result;
    bool have_best = false;
    for (std::int64_t i = 0; i < samples; ++i) {
      throw_if_cancelled(config.cancel);
      Solution sol = Solution::random_partition(tg, arch, procs.front(),
                                                rcs.front(), rng);
      const auto m = ev.evaluate(sol);
      RDSE_ASSERT(m.has_value());  // random_partition is feasible by design
      ++result.evaluations;
      const double cost = to_ms(m->makespan);
      if (!have_best || cost < result.best_cost_ms) {
        result.best_cost_ms = cost;
        result.best_metrics = *m;
        result.best_solution = std::move(sol);
        have_best = true;
      }
    }
    result.best_architecture = arch;
    result.counters.set("samples", samples);
    const auto t1 = std::chrono::steady_clock::now();
    result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    return result;
  }
};

class ClusteringMapper final : public Mapper {
 public:
  const char* name() const override { return "clustering"; }
  bool deterministic() const override { return true; }
  MapperResult run(const TaskGraph& tg, const Architecture& arch,
                   const ExplorerConfig& config) const override {
    throw_if_cancelled(config.cancel);
    const auto t0 = std::chrono::steady_clock::now();
    // The staged [6] flow with the trivial all-hardware spatial partition:
    // every task whose fastest fitting implementation exists goes to the
    // RC, then clustering packs the contexts.
    const auto rcs = arch.reconfigurable_ids();
    RDSE_REQUIRE(!rcs.empty(), "clustering mapper: no reconfigurable circuit");
    const ReconfigurableCircuit& dev = arch.reconfigurable(rcs.front());
    std::vector<bool> hw_mask(tg.task_count(), false);
    std::vector<std::uint32_t> impl(tg.task_count(), 0);
    int hw_selected = 0;
    for (TaskId t = 0; t < tg.task_count(); ++t) {
      if (const auto k = tg.task(t).hw.best_under_area(dev.n_clbs())) {
        hw_mask[t] = true;
        impl[t] = static_cast<std::uint32_t>(*k);
        ++hw_selected;
      }
    }
    MapperResult result = score_decoded(
        tg, arch,
        decode_partition(tg, arch, hw_mask, impl, upward_ranks(tg)));
    result.counters.set("hw_selected", static_cast<std::int64_t>(hw_selected));
    const auto t1 = std::chrono::steady_clock::now();
    result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    return result;
  }
};

class ListSchedulerMapper final : public Mapper {
 public:
  const char* name() const override { return "list_scheduler"; }
  bool deterministic() const override { return true; }
  MapperResult run(const TaskGraph& tg, const Architecture& arch,
                   const ExplorerConfig& config) const override {
    throw_if_cancelled(config.cancel);
    const auto t0 = std::chrono::steady_clock::now();
    // All-software priority list schedule — the paper's 76.4 ms software
    // reference point on motion detection.
    const std::vector<bool> hw_mask(tg.task_count(), false);
    const std::vector<std::uint32_t> impl(tg.task_count(), 0);
    MapperResult result = score_decoded(
        tg, arch,
        decode_partition(tg, arch, hw_mask, impl, upward_ranks(tg)));
    const auto t1 = std::chrono::steady_clock::now();
    result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    return result;
  }
};

/// Shared tail of the HEFT and PEFT mappers: decode the EFT decision with
/// the mapper's own rank vector as the software priority, score it with
/// the real evaluator, and record the list scheduler's own estimate so the
/// gap between the static cost model and the §4.4 evaluation is visible.
MapperResult finish_eft(const TaskGraph& tg, const Architecture& arch,
                        const EftDecision& decision,
                        std::span<const double> ranks,
                        std::chrono::steady_clock::time_point t0) {
  MapperResult result = score_decoded(
      tg, arch,
      decode_partition(tg, arch, decision.hw, decision.impl, ranks));
  result.counters.set("estimated_makespan_ms",
                      decision.estimated_makespan_ms);
  result.counters.set("hw_selected",
                      static_cast<std::int64_t>(decision.hw_selected));
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

class HeftMapper final : public Mapper {
 public:
  const char* name() const override { return "heft"; }
  bool deterministic() const override { return true; }
  MapperResult run(const TaskGraph& tg, const Architecture& arch,
                   const ExplorerConfig& config) const override {
    throw_if_cancelled(config.cancel);
    const auto t0 = std::chrono::steady_clock::now();
    const HeftCosts costs = make_heft_costs(tg, arch);
    const std::vector<double> ranks = heft_upward_ranks(tg, costs);
    return finish_eft(tg, arch, eft_select(tg, costs, ranks), ranks, t0);
  }
};

class PeftMapper final : public Mapper {
 public:
  const char* name() const override { return "peft"; }
  bool deterministic() const override { return true; }
  MapperResult run(const TaskGraph& tg, const Architecture& arch,
                   const ExplorerConfig& config) const override {
    throw_if_cancelled(config.cancel);
    const auto t0 = std::chrono::steady_clock::now();
    const HeftCosts costs = make_heft_costs(tg, arch);
    const PeftTables tables = peft_oct(tg, costs);
    return finish_eft(tg, arch,
                      eft_select(tg, costs, tables.rank, tables.oct),
                      tables.rank, t0);
  }
};

}  // namespace

const std::vector<std::string>& mapper_names() {
  static const std::vector<std::string> kNames = {
      "anneal", "heft",       "peft",           "ga",
      "random", "hill_climb", "list_scheduler", "clustering"};
  return kNames;
}

const std::string& known_mapper_names() {
  static const std::string kJoined = [] {
    std::string joined;
    for (const std::string& name : mapper_names()) {
      if (!joined.empty()) joined += ", ";
      joined += name;
    }
    return joined;
  }();
  return kJoined;
}

bool is_known_mapper(const std::string& name) {
  const auto& names = mapper_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::unique_ptr<Mapper> make_mapper(const std::string& name) {
  if (name == "anneal") return std::make_unique<AnnealMapper>();
  if (name == "heft") return std::make_unique<HeftMapper>();
  if (name == "peft") return std::make_unique<PeftMapper>();
  if (name == "ga") return std::make_unique<GaMapper>();
  if (name == "random") return std::make_unique<RandomMapper>();
  if (name == "hill_climb") return std::make_unique<HillClimbMapper>();
  if (name == "list_scheduler") {
    return std::make_unique<ListSchedulerMapper>();
  }
  if (name == "clustering") return std::make_unique<ClusteringMapper>();
  throw Error("unknown mapper '" + name +
              "' (known mappers: " + known_mapper_names() + ")");
}

bool mapper_is_deterministic(const std::string& name) {
  return make_mapper(name)->deterministic();
}

RunAggregate aggregate_mapper_results(std::span<const MapperResult> results,
                                      TimeNs deadline) {
  std::vector<Metrics> metrics;
  std::vector<double> walls;
  metrics.reserve(results.size());
  walls.reserve(results.size());
  for (const MapperResult& r : results) {
    metrics.push_back(r.best_metrics);
    walls.push_back(r.wall_seconds);
  }
  return aggregate_metrics(metrics, walls, deadline);
}

}  // namespace rdse
