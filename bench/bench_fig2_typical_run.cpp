/// \file bench_fig2_typical_run.cpp
/// \brief EXP-F2 — regenerates Figure 2: "Evolution of execution time and
/// number of contexts in a typical run" (28-task motion detection, 2000-CLB
/// FPGA, first 1200 iterations at infinite temperature).
///
/// Paper anchors: the initial random partition lands in the 60-76 ms
/// region (their run: 67.9 ms, 9 HW tasks, 995 CLBs, 1 context); during the
/// infinite-temperature phase the execution time wanders broadly with no
/// systematic improvement; once adaptive cooling starts it falls quickly
/// below the 40 ms constraint and freezes well below it (their run:
/// 18.1 ms, 3 contexts; context counts explore ~1-8 along the way).

#include "bench_common.hpp"
#include "core/explorer.hpp"
#include "core/report.hpp"
#include "model/motion_detection.hpp"
#include "util/ascii_plot.hpp"
#include "util/statistics.hpp"
#include "util/table.hpp"

using namespace rdse;

static int run_bench(int argc, char** argv) {
  const bench::Scale scale = bench::parse_scale(argc, argv, 1, 20'000);
  bench::print_header("EXP-F2", "Figure 2: typical run at 2000 CLBs", scale);

  const Application app = make_motion_detection_app();
  Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);

  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = scale.seed;
  config.iterations = scale.iters;
  config.warmup_iterations = scale.warmup;
  const RunResult r = explorer.run(config);

  // --- the two Fig. 2 series --------------------------------------------
  const Trace plot = r.trace.downsample(500);
  std::cout << render_plot(
      {Series{"execution time (ms)", plot.iterations(), plot.costs(), '*'},
       Series{"number of contexts", plot.iterations(), plot.contexts(), 'o'}},
      PlotOptions{72, 18, "iteration",
                  "Fig. 2 — execution time and contexts vs iteration", true});

  // --- phase statistics ----------------------------------------------------
  RunningStats warm_cost, cool_cost;
  int warm_ctx_min = 1 << 30, warm_ctx_max = 0;
  for (const TraceRow& row : r.trace.rows()) {
    if (row.warmup) {
      warm_cost.add(row.cost);
      warm_ctx_min = std::min(warm_ctx_min, row.n_contexts);
      warm_ctx_max = std::max(warm_ctx_max, row.n_contexts);
    } else {
      cool_cost.add(row.cost);
    }
  }

  Table table({"quantity", "paper", "measured"});
  table.row()
      .cell(std::string("software-only execution time (ms)"))
      .cell(std::string("76.4"))
      .cell(to_ms(app.graph.total_sw_time()), 2);
  table.row()
      .cell(std::string("initial random solution (ms)"))
      .cell(std::string("67.9"))
      .cell(to_ms(r.initial_metrics.makespan), 2);
  table.row()
      .cell(std::string("initial hw tasks / CLBs / contexts"))
      .cell(std::string("9 / 995 / 1"))
      .cell(std::to_string(r.initial_metrics.hw_tasks) + " / " +
            std::to_string(r.initial_metrics.clbs_loaded) + " / " +
            std::to_string(r.initial_metrics.n_contexts));
  table.row()
      .cell(std::string("infinite-T phase cost range (ms)"))
      .cell(std::string("~35-70, no trend"))
      .cell(format_double(warm_cost.min(), 1) + " - " +
            format_double(warm_cost.max(), 1));
  table.row()
      .cell(std::string("contexts explored"))
      .cell(std::string("1 - 8"))
      .cell(std::to_string(warm_ctx_min) + " - " +
            std::to_string(warm_ctx_max));
  table.row()
      .cell(std::string("final (frozen) execution time (ms)"))
      .cell(std::string("18.1"))
      .cell(to_ms(r.best_metrics.makespan), 2);
  table.row()
      .cell(std::string("final number of contexts"))
      .cell(std::string("3"))
      .cell(r.best_metrics.n_contexts);
  table.row()
      .cell(std::string("40 ms constraint met"))
      .cell(std::string("yes"))
      .cell(std::string(r.best_metrics.makespan <= app.deadline ? "yes"
                                                                : "NO"));
  table.row()
      .cell(std::string("run wall-clock (s)"))
      .cell(std::string("< 10"))
      .cell(r.wall_seconds, 3);
  table.print(std::cout, "EXP-F2 paper vs measured");

  std::cout << "\nbest " << describe_metrics(r.best_metrics) << "\n\n"
            << describe_solution(app.graph, r.best_architecture,
                                 r.best_solution)
            << "\nmove statistics:\n"
            << describe_move_stats(r.move_stats);
  return 0;
}

int main(int argc, char** argv) {
  return run_main(argc, argv, run_bench);
}
