/// Tests for the baselines: list scheduler, clustering, GA of [6], random
/// search and hill climbing.

#include <gtest/gtest.h>

#include "baseline/clustering.hpp"
#include "baseline/genetic.hpp"
#include "baseline/list_scheduler.hpp"
#include "baseline/mapper.hpp"
#include "mapping/validation.hpp"
#include "model/motion_detection.hpp"

namespace rdse {
namespace {

class BaselineFixture : public ::testing::Test {
 protected:
  BaselineFixture()
      : app(make_motion_detection_app()),
        arch(make_cpu_fpga_architecture(2000, kMotionDetectionTrPerClb,
                                        kMotionDetectionBusRate)) {}
  Application app;
  Architecture arch;
};

TEST_F(BaselineFixture, UpwardRanksDecreaseAlongChains) {
  const auto ranks = upward_ranks(app.graph);
  const Digraph& g = app.graph.digraph();
  for (EdgeId e = 0; e < g.edge_capacity(); ++e) {
    if (!g.edge_alive(e)) continue;
    EXPECT_GT(ranks[g.edge(e).src], ranks[g.edge(e).dst]);
  }
  // Source rank bounds every rank.
  for (TaskId t = 0; t < app.graph.task_count(); ++t) {
    EXPECT_LE(ranks[t], ranks[0]);
  }
}

TEST_F(BaselineFixture, PriorityOrderIsLinearExtension) {
  const auto ranks = upward_ranks(app.graph);
  const auto order = priority_topological_order(app.graph, ranks);
  ASSERT_EQ(order.size(), app.graph.task_count());
  std::vector<std::size_t> pos(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  const Digraph& g = app.graph.digraph();
  for (EdgeId e = 0; e < g.edge_capacity(); ++e) {
    if (!g.edge_alive(e)) continue;
    EXPECT_LT(pos[g.edge(e).src], pos[g.edge(e).dst]);
  }
}

TEST_F(BaselineFixture, PriorityOrderCyclicGraphThrows) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const std::vector<double> pr{1.0, 2.0};
  EXPECT_THROW((void)priority_topological_order(g, pr), Error);
}

TEST_F(BaselineFixture, ClusteringRespectsCapacityAndLevels) {
  const auto& dev = arch.reconfigurable(1);
  std::vector<bool> mask(app.graph.task_count(), true);
  std::vector<std::uint32_t> impl(app.graph.task_count(), 0);
  const auto contexts = cluster_into_contexts(app.graph, dev, mask, impl);
  ASSERT_FALSE(contexts.empty());
  // Capacity per context.
  for (const auto& ctx : contexts) {
    std::int32_t used = 0;
    for (TaskId t : ctx) used += app.graph.task(t).hw.at(0).clbs;
    EXPECT_LE(used, dev.n_clbs());
    EXPECT_FALSE(ctx.empty());
  }
  // Precedence: a task never lands before a predecessor's context.
  std::vector<int> ctx_of(app.graph.task_count(), -1);
  for (std::size_t c = 0; c < contexts.size(); ++c) {
    for (TaskId t : contexts[c]) ctx_of[t] = static_cast<int>(c);
  }
  const Digraph& g = app.graph.digraph();
  for (EdgeId e = 0; e < g.edge_capacity(); ++e) {
    if (!g.edge_alive(e)) continue;
    EXPECT_LE(ctx_of[g.edge(e).src], ctx_of[g.edge(e).dst]);
  }
}

TEST_F(BaselineFixture, ClusteringSmallDeviceMakesManyContexts) {
  Architecture small = make_cpu_fpga_architecture(
      150, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  std::vector<bool> mask(app.graph.task_count(), false);
  std::vector<std::uint32_t> impl(app.graph.task_count(), 0);
  for (TaskId t = 0; t < app.graph.task_count(); ++t) {
    mask[t] = app.graph.task(t).hw.min_clbs() <= 150;
  }
  const auto big_ctx =
      cluster_into_contexts(app.graph, arch.reconfigurable(1), mask, impl);
  const auto small_ctx =
      cluster_into_contexts(app.graph, small.reconfigurable(1), mask, impl);
  EXPECT_GT(small_ctx.size(), big_ctx.size());
}

TEST_F(BaselineFixture, ClusteringRejectsNonFittingSelection) {
  Architecture tiny = make_cpu_fpga_architecture(
      10, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  std::vector<bool> mask(app.graph.task_count(), false);
  mask[7] = true;  // labeling_pass1: min 120 CLBs > 10
  std::vector<std::uint32_t> impl(app.graph.task_count(), 0);
  EXPECT_THROW((void)cluster_into_contexts(app.graph, tiny.reconfigurable(1),
                                           mask, impl),
               Error);
}

TEST_F(BaselineFixture, GaDecodeProducesValidSolutions) {
  GeneticPartitioner ga(app.graph, arch);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Chromosome c = ga.random_chromosome(rng);
    const Solution sol = ga.decode(c);
    require_valid(app.graph, arch, sol);
  }
}

TEST_F(BaselineFixture, GaDecodeIsDeterministic) {
  GeneticPartitioner ga(app.graph, arch);
  Rng rng(5);
  const Chromosome c = ga.random_chromosome(rng);
  EXPECT_EQ(ga.decode(c), ga.decode(c));
}

TEST_F(BaselineFixture, GaDecodeRepairsNonFittingGenes) {
  Architecture small = make_cpu_fpga_architecture(
      100, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  GeneticPartitioner ga(app.graph, small);
  Chromosome c(app.graph.task_count());
  for (auto& g : c) {
    g.hw = true;
    g.impl = 5;  // out of range for 5-impl tasks; clamped
  }
  const Solution sol = ga.decode(c);
  require_valid(app.graph, small, sol);
  // labeling_pass1 (min 120 CLBs) cannot fit: repaired to software.
  EXPECT_EQ(sol.placement(7).resource, 0u);
}

TEST_F(BaselineFixture, GaImprovesOverItsOwnFirstGeneration) {
  GeneticPartitioner ga(app.graph, arch);
  GaConfig config;
  config.seed = 7;
  config.population = 40;
  config.generations = 15;
  const MapperResult r = ga.run(config);
  const auto& history = r.counters.at("best_history").items();
  ASSERT_EQ(history.size(), 16u);
  EXPECT_LE(history.back().as_number(), history.front().as_number());
  EXPECT_LT(r.best_cost_ms, 76.4);
  require_valid(app.graph, arch, r.best_solution);
  EXPECT_EQ(r.evaluations, 40 + 15 * (40 - config.elites));
}

TEST_F(BaselineFixture, GaHistoryIsMonotone) {
  GeneticPartitioner ga(app.graph, arch);
  GaConfig config;
  config.seed = 9;
  config.population = 30;
  config.generations = 10;
  const MapperResult r = ga.run(config);
  const auto& history = r.counters.at("best_history").items();
  for (std::size_t i = 1; i < history.size(); ++i) {
    EXPECT_LE(history[i].as_number(), history[i - 1].as_number());
  }
}

TEST_F(BaselineFixture, GaRejectsBadConfig) {
  GeneticPartitioner ga(app.graph, arch);
  GaConfig config;
  config.population = 1;
  EXPECT_THROW((void)ga.run(config), Error);
  config.population = 10;
  config.elites = 10;
  EXPECT_THROW((void)ga.run(config), Error);
}

TEST_F(BaselineFixture, GaRequiresCpuAndRc) {
  Architecture no_rc{Bus(1'000)};
  no_rc.add_processor("cpu0");
  EXPECT_THROW(GeneticPartitioner(app.graph, no_rc), Error);
}

/// Run a registered mapper with only a seed and a budget set.
MapperResult run_mapper(const char* name, const TaskGraph& tg,
                        const Architecture& arch, std::int64_t iterations,
                        std::uint64_t seed) {
  ExplorerConfig config;
  config.seed = seed;
  config.iterations = iterations;
  return make_mapper(name)->run(tg, arch, config);
}

TEST_F(BaselineFixture, RandomSearchFindsFeasibleBest) {
  const MapperResult r = run_mapper("random", app.graph, arch, 300, 11);
  EXPECT_EQ(r.evaluations, 300);
  EXPECT_GT(r.best_cost_ms, 0.0);
  EXPECT_LE(r.best_cost_ms, 76.4 + 1e-9);
  require_valid(app.graph, arch, r.best_solution);
}

TEST_F(BaselineFixture, RandomSearchMoreSamplesNeverWorse) {
  const MapperResult small = run_mapper("random", app.graph, arch, 50, 13);
  const MapperResult large = run_mapper("random", app.graph, arch, 500, 13);
  EXPECT_LE(large.best_cost_ms, small.best_cost_ms);
}

TEST_F(BaselineFixture, HillClimbImprovesAndStaysValid) {
  const MapperResult r = run_mapper("hill_climb", app.graph, arch, 4'000, 17);
  require_valid(app.graph, r.best_architecture, r.best_solution);
  EXPECT_LT(to_ms(r.best_metrics.makespan),
            r.counters.at("initial_makespan_ms").as_number());
}

TEST_F(BaselineFixture, AnnealingBeatsRandomSearchOnEqualEvaluations) {
  // Guided search must dominate blind sampling at equal evaluation budget.
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 19;
  config.iterations = 3'000;
  config.warmup_iterations = 300;
  config.record_trace = false;
  const RunResult sa = explorer.run(config);
  const MapperResult rs = run_mapper("random", app.graph, arch, 3'300, 19);
  EXPECT_LT(to_ms(sa.best_metrics.makespan), rs.best_cost_ms);
}

}  // namespace
}  // namespace rdse
