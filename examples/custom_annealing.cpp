/// \file custom_annealing.cpp
/// \brief Using the annealing engine on user-defined problems — the §4.1
/// validation domains: balanced graph bipartitioning and continuous
/// function minimization. Demonstrates that the engine is problem-agnostic:
/// plugging a new model of computation in only requires defining moves
/// (paper conclusion).

#include <iostream>

#include "anneal/annealer.hpp"
#include "anneal/problems/bipartition.hpp"
#include "anneal/problems/continuous.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run_example(int /*argc*/, char** /*argv*/) {
  using namespace rdse;

  Table table({"problem", "schedule", "initial", "best", "accept %"});
  const ScheduleKind kinds[] = {ScheduleKind::kModifiedLam,
                                ScheduleKind::kLamDelosme,
                                ScheduleKind::kGeometric};

  // 1. Balanced bipartitioning of a random layered graph.
  Rng gen(2024);
  LayeredDagParams params;
  params.node_count = 120;
  params.max_width = 6;
  params.edge_probability = 0.5;
  const Digraph graph = random_layered_dag(params, gen);

  for (const ScheduleKind kind : kinds) {
    BipartitionProblem problem(graph, /*balance_weight=*/1.0, /*seed=*/5);
    AnnealConfig config;
    config.seed = 11;
    config.warmup_iterations = 500;
    config.iterations = 30'000;
    config.schedule = kind;
    const AnnealResult r = anneal(problem, config);
    table.row()
        .cell(std::string("bipartition(120)"))
        .cell(std::string(to_string(kind)))
        .cell(r.initial_cost, 1)
        .cell(r.best_cost, 1)
        .cell(100.0 * static_cast<double>(r.accepted) /
                  static_cast<double>(r.iterations_run),
              1);
  }

  // 2. Rosenbrock in 8 dimensions (global minimum 0 at x = 1).
  for (const ScheduleKind kind : kinds) {
    ContinuousProblem problem(rosenbrock_objective(), 8, /*seed=*/5);
    AnnealConfig config;
    config.seed = 13;
    config.warmup_iterations = 500;
    config.iterations = 60'000;
    config.schedule = kind;
    const AnnealResult r = anneal(problem, config);
    table.row()
        .cell(std::string("rosenbrock(8)"))
        .cell(std::string(to_string(kind)))
        .cell(r.initial_cost, 2)
        .cell(r.best_cost, 4)
        .cell(100.0 * static_cast<double>(r.accepted) /
                  static_cast<double>(r.iterations_run),
              1);
  }

  table.print(std::cout, "generic annealing engine on validation problems");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rdse::run_main(argc, argv, run_example);
}
