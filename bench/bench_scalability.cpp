/// \file bench_scalability.cpp
/// \brief EXP-S1 (extension) — scalability on synthetic layered task
/// graphs: exploration quality (vs random search and hill climbing at equal
/// budget) and evaluation throughput as the application grows from 20 to
/// 200 tasks. The paper evaluates a single 28-task application; this
/// experiment characterizes how the method behaves beyond it.

#include "baseline/mapper.hpp"
#include "bench_common.hpp"
#include "model/generators.hpp"
#include "util/statistics.hpp"
#include "util/table.hpp"

using namespace rdse;

static int run_bench(int argc, char** argv) {
  const bench::Scale scale = bench::parse_scale(argc, argv, 3, 8'000);
  bench::print_header("EXP-S1", "scalability on synthetic task graphs",
                      scale);

  Table table({"tasks", "sw-only ms", "SA ms", "HC ms", "RS ms",
               "SA/sw ratio", "us/iteration"});

  const auto anneal = make_mapper("anneal");
  const auto hill_climb = make_mapper("hill_climb");
  const auto random = make_mapper("random");
  for (const std::size_t n : {20u, 50u, 100u, 200u}) {
    AppGenParams params;
    params.dag.node_count = n;
    params.dag.max_width = std::max<std::size_t>(3, n / 8);
    params.hw_capable_fraction = 0.9;
    Rng gen(scale.seed + n);
    const Application app = random_application(params, gen);
    Architecture arch =
        make_cpu_fpga_architecture(2'000, from_us(22.5), 50'000'000);

    std::vector<double> sa, hc, rs, wall;
    std::int64_t iters_run = 0;
    for (int i = 0; i < scale.runs; ++i) {
      ExplorerConfig config;
      config.seed = scale.seed + static_cast<std::uint64_t>(i);
      config.iterations = scale.iters;
      config.warmup_iterations = scale.warmup / 2;
      const MapperResult r = anneal->run(app.graph, arch, config);
      sa.push_back(r.best_cost_ms);
      wall.push_back(r.wall_seconds);
      iters_run = r.counters.at("iterations_run").as_int();
      hc.push_back(hill_climb->run(app.graph, arch, config).best_cost_ms);
      rs.push_back(random->run(app.graph, arch, config).best_cost_ms);
    }
    const double sw_ms = to_ms(app.graph.total_sw_time());
    table.row()
        .cell(static_cast<std::uint64_t>(n))
        .cell(sw_ms, 1)
        .cell(mean_of(sa), 2)
        .cell(mean_of(hc), 2)
        .cell(mean_of(rs), 2)
        .cell(mean_of(sa) / sw_ms, 3)
        .cell(mean_of(wall) * 1e6 / static_cast<double>(iters_run), 2);
  }

  table.print(std::cout, "EXP-S1 synthetic layered DAGs (" +
                             std::to_string(scale.runs) + " runs, " +
                             std::to_string(scale.iters) +
                             " iterations per method)");
  std::cout << "\nreading: SA must dominate random search at every size. "
               "At tight iteration\nbudgets greedy hill climbing can match "
               "or edge out SA on large instances\n(annealing spends budget "
               "exploring); the gap closes as --iters grows.\nPer-iteration "
               "cost grows roughly linearly with graph size (O(V+E)\n"
               "evaluation).\n";
  return 0;
}

int main(int argc, char** argv) {
  return run_main(argc, argv, run_bench);
}
