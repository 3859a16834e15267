/// \file bench_ablation_schedule.cpp
/// \brief EXP-A1 — cooling-schedule ablation. The paper's central algorithmic
/// claim (§4.1) is that the *adaptive* Lam-style schedule reaches near-optimal
/// solutions without per-problem tuning. This harness compares, on the §5
/// benchmark at equal iteration budgets:
///   - modified Lam (default; target-acceptance tracking, [15]),
///   - statistical Lam–Delosme (inverse-temperature update from cost stats),
///   - classic geometric cooling (requires a tuned alpha/plateau),
///   - hill climbing (T = 0): what the annealing actually buys.
/// Reported per schedule: solution quality distribution and how many
/// iterations the search needed to first meet the 40 ms constraint.

#include "bench_common.hpp"
#include "core/explorer.hpp"
#include "model/motion_detection.hpp"
#include "util/statistics.hpp"
#include "util/table.hpp"

using namespace rdse;

static int run_bench(int argc, char** argv) {
  const bench::Scale scale = bench::parse_scale(argc, argv, 10, 15'000);
  bench::print_header("EXP-A1", "cooling-schedule ablation", scale);

  const Application app = make_motion_detection_app();
  Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  Explorer explorer(app.graph, arch);

  Table table({"schedule", "best ms", "mean ms", "worst ms", "sd",
               "mean iters to <40ms", "hit rate"});

  for (const ScheduleKind kind :
       {ScheduleKind::kModifiedLam, ScheduleKind::kLamDelosme,
        ScheduleKind::kGeometric, ScheduleKind::kGreedy}) {
    std::vector<double> best;
    std::vector<double> to_constraint;
    int hits = 0;
    for (int i = 0; i < scale.runs; ++i) {
      ExplorerConfig config;
      config.seed = scale.seed + static_cast<std::uint64_t>(i);
      config.iterations = scale.iters;
      config.warmup_iterations =
          kind == ScheduleKind::kGreedy ? 0 : scale.warmup;
      config.schedule = kind;
      config.trace_stride = 1;
      const RunResult r = explorer.run(config);
      best.push_back(to_ms(r.best_metrics.makespan));
      if (r.best_metrics.makespan <= app.deadline) ++hits;
      // First iteration whose best dipped below the constraint.
      for (const TraceRow& row : r.trace.rows()) {
        if (row.best <= 40.0) {
          to_constraint.push_back(static_cast<double>(row.iteration));
          break;
        }
      }
    }
    table.row()
        .cell(std::string(to_string(kind)))
        .cell(min_of(best), 2)
        .cell(mean_of(best), 2)
        .cell(max_of(best), 2)
        .cell(stddev_of(best), 2)
        .cell(to_constraint.empty() ? std::string("never")
                                    : format_double(mean_of(to_constraint), 0))
        .cell(static_cast<double>(hits) / scale.runs, 2);
  }

  table.print(std::cout, "EXP-A1 motion detection @ 2000 CLBs, " +
                             std::to_string(scale.runs) + " runs, " +
                             std::to_string(scale.iters) +
                             " iterations each");
  std::cout << "\nreading: the adaptive schedules need no tuning and should "
               "match or beat\nthe tuned geometric schedule; hill climbing "
               "shows the cost of greediness.\n";
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run_bench);
}
