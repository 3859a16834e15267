/// \file bench_quality_vs_budget.cpp
/// \brief EXP-Q1 — the abstract's designer knob: "[the tool] lets the
/// designer select the quality of the optimization (hence its computing
/// time) and finds accordingly a solution with close-to-minimal cost."
/// Sweeps the iteration budget on the §5 benchmark and reports mean/best
/// quality plus wall-clock per budget: quality must improve monotonically
/// (within noise) and saturate, and even small budgets must beat the GA's
/// quality-per-second (§5's order-of-magnitude claim).

#include "bench_common.hpp"
#include "core/explorer.hpp"
#include "model/motion_detection.hpp"
#include "util/ascii_plot.hpp"
#include "util/statistics.hpp"
#include "util/table.hpp"

using namespace rdse;

static int run_bench(int argc, char** argv) {
  const bench::Scale scale = bench::parse_scale(argc, argv, 8, 0);
  bench::print_header("EXP-Q1", "quality vs optimization budget", scale);

  const Application app = make_motion_detection_app();
  Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  Explorer explorer(app.graph, arch);

  const std::int64_t budgets[] = {500,    1'000,  2'000, 5'000,
                                  10'000, 20'000, 40'000};
  Table table({"iterations", "best ms", "mean ms", "sd", "hit 40ms",
               "mean wall ms"});
  Series curve{"mean makespan (ms)", {}, {}, '*'};

  for (const std::int64_t budget : budgets) {
    std::vector<double> best, wall;
    int hits = 0;
    for (int i = 0; i < scale.runs; ++i) {
      ExplorerConfig config;
      config.seed = scale.seed + static_cast<std::uint64_t>(i);
      config.iterations = budget;
      config.warmup_iterations = std::min<std::int64_t>(1'200, budget / 4);
      config.record_trace = false;
      const RunResult r = explorer.run(config);
      best.push_back(to_ms(r.best_metrics.makespan));
      wall.push_back(r.wall_seconds * 1000.0);
      hits += r.best_metrics.makespan <= app.deadline ? 1 : 0;
    }
    table.row()
        .cell(budget)
        .cell(min_of(best), 2)
        .cell(mean_of(best), 2)
        .cell(stddev_of(best), 2)
        .cell(static_cast<double>(hits) / scale.runs, 2)
        .cell(mean_of(wall), 1);
    curve.x.push_back(static_cast<double>(budget));
    curve.y.push_back(mean_of(best));
  }

  table.print(std::cout, "EXP-Q1 motion detection @ 2000 CLBs (" +
                             std::to_string(scale.runs) + " runs per budget)");
  std::cout << '\n'
            << render_plot({curve},
                           PlotOptions{72, 14, "iteration budget",
                                       "quality vs budget", false});
  const bool monotoneish = curve.y.back() <= curve.y.front() + 1e-9;
  std::cout << "\nclaim check: more budget never hurts (first vs last): "
            << format_double(curve.y.front(), 2) << " -> "
            << format_double(curve.y.back(), 2)
            << (monotoneish ? "  (holds)" : "  (VIOLATED)") << '\n';
  return 0;
}

int main(int argc, char** argv) {
  return run_main(argc, argv, run_bench);
}
