/// End-to-end integration tests: full pipeline on the paper benchmark and
/// on synthetic applications, cross-checking explorer, baselines, timeline
/// and reports against each other.

#include <gtest/gtest.h>

#include "baseline/genetic.hpp"
#include "core/explorer.hpp"
#include "core/sweep_engine.hpp"
#include "graph/dot.hpp"
#include "mapping/validation.hpp"
#include "model/generators.hpp"
#include "model/motion_detection.hpp"
#include "sched/timeline.hpp"

namespace rdse {
namespace {

TEST(Integration, PaperPipelineEndToEnd) {
  const Application app = make_motion_detection_app();
  Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);

  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 2;
  config.iterations = 12'000;
  config.warmup_iterations = 1'200;
  const RunResult r = explorer.run(config);

  // The solution is structurally valid ...
  require_valid(app.graph, r.best_architecture, r.best_solution);
  // ... meets the paper's real-time constraint ...
  EXPECT_LE(r.best_metrics.makespan, app.deadline);
  // ... has a consistent timeline (bus serialization only adds time) ...
  const Timeline tl =
      build_timeline(app.graph, r.best_architecture, r.best_solution);
  EXPECT_GE(tl.makespan, r.best_metrics.makespan);
  EXPECT_LE(tl.makespan, r.best_metrics.makespan * 2);
  // ... and the warm-up phase shows no systematic improvement while the
  // cooled phase ends far below the warm-up average (Fig. 2 behaviour).
  double warm_sum = 0.0;
  int warm_n = 0;
  for (const TraceRow& row : r.trace.rows()) {
    if (row.warmup) {
      warm_sum += row.cost;
      ++warm_n;
    }
  }
  ASSERT_GT(warm_n, 0);
  const double warm_avg = warm_sum / warm_n;
  EXPECT_GT(warm_avg, 40.0);  // random region
  EXPECT_LT(to_ms(r.best_metrics.makespan), warm_avg * 0.6);
}

TEST(Integration, SaBeatsOrMatchesGaAndIsFasterPerEvaluation) {
  const Application app = make_motion_detection_app();
  Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);

  Explorer explorer(app.graph, arch);
  ExplorerConfig sa_config;
  sa_config.seed = 3;
  sa_config.iterations = 15'000;
  sa_config.warmup_iterations = 1'000;
  sa_config.record_trace = false;
  const RunResult sa = explorer.run(sa_config);

  GeneticPartitioner ga(app.graph, arch);
  GaConfig ga_config;
  ga_config.seed = 3;
  ga_config.population = 100;
  ga_config.generations = 40;
  const MapperResult gr = ga.run(ga_config);

  // §5 comparison direction: concurrent exploration >= staged exploration.
  EXPECT_LE(to_ms(sa.best_metrics.makespan), gr.best_cost_ms * 1.05);
  // Both massively beat software-only execution.
  EXPECT_LT(gr.best_cost_ms, 40.0);
  EXPECT_LT(to_ms(sa.best_metrics.makespan), 40.0);
}

TEST(Integration, DeviceSweepHasPaperShape) {
  // Fig. 3 qualitative shape on a compressed sweep: the mid-range device
  // is at least as good as both the tiny and the huge device, and context
  // counts decrease with size.
  const Application app = make_motion_detection_app();
  ExplorerConfig config;
  config.seed = 5;
  config.iterations = 6'000;
  config.warmup_iterations = 600;
  const std::int32_t sizes[] = {150, 800, 10'000};
  const SweepSpec spec =
      device_size_sweep(sizes, kMotionDetectionTrPerClb,
                        kMotionDetectionBusRate, config, 3, app.deadline);
  const SweepResult sweep = SweepEngine(1).run(app.graph, spec);
  const RunAggregate& tiny = sweep.points[0].aggregate;
  const RunAggregate& mid = sweep.points[1].aggregate;
  const RunAggregate& huge = sweep.points[2].aggregate;
  EXPECT_LE(mid.mean_makespan_ms, tiny.mean_makespan_ms + 1e-9);
  // The plateau may sit slightly above.
  EXPECT_LE(mid.mean_makespan_ms, huge.mean_makespan_ms + 5.0);
  EXPECT_GT(tiny.mean_contexts, huge.mean_contexts);
}

TEST(Integration, SyntheticApplicationsExploreCleanly) {
  AppGenParams params;
  params.dag.node_count = 30;
  params.dag.max_width = 4;
  params.hw_capable_fraction = 0.8;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    const Application app = random_application(params, rng);
    Architecture arch =
        make_cpu_fpga_architecture(1'000, from_us(20.0), 50'000'000);
    Explorer explorer(app.graph, arch);
    ExplorerConfig config;
    config.seed = seed;
    config.iterations = 4'000;
    config.warmup_iterations = 400;
    config.record_trace = false;
    const RunResult r = explorer.run(config);
    require_valid(app.graph, r.best_architecture, r.best_solution);
    EXPECT_LE(r.best_metrics.makespan, app.graph.total_sw_time());
  }
}

TEST(Integration, DotExportRendersPartitionedSolution) {
  const Application app = make_motion_detection_app();
  Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  Rng rng(9);
  const Solution sol = Solution::random_partition(app.graph, arch, 0, 1, rng);

  DotStyle style;
  style.graph_name = "motion_detection";
  for (TaskId t = 0; t < app.graph.task_count(); ++t) {
    style.node_label.push_back(app.graph.task(t).name);
    const Placement& p = sol.placement(t);
    style.node_group.push_back(
        p.context >= 0 ? "C" + std::to_string(p.context + 1) : "");
  }
  const std::string dot = to_dot(app.graph.digraph(), style);
  EXPECT_NE(dot.find("digraph \"motion_detection\""), std::string::npos);
  EXPECT_NE(dot.find("erosion"), std::string::npos);
  if (sol.context_count(1) > 0) {
    EXPECT_NE(dot.find("cluster_"), std::string::npos);
  }
}

TEST(Integration, QualityImprovesWithIterationBudget) {
  // The designer-facing knob of the abstract: more optimization time,
  // better (or equal) solutions — averaged over seeds.
  const Application app = make_motion_detection_app();
  Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  auto mean_at = [&](std::int64_t iters) {
    ExplorerConfig config;
    config.seed = 100;
    config.iterations = iters;
    config.warmup_iterations = 300;
    const std::string anneal[] = {"anneal"};
    const SweepSpec spec = mapper_sweep(anneal, arch, config, 4, 0, "", 2000.0);
    const SweepResult batch = SweepEngine(1).run(app.graph, spec);
    return batch.points[0].aggregate.mean_makespan_ms;
  };
  const double lo = mean_at(300);
  const double hi = mean_at(8'000);
  EXPECT_LE(hi, lo + 1e-9);
}

}  // namespace
}  // namespace rdse
