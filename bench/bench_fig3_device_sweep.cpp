/// \file bench_fig3_device_sweep.cpp
/// \brief EXP-F3 — regenerates Figure 3: "Execution time, reconfiguration
/// times, and number of contexts vs. FPGA size" (sizes 100..10000 CLBs,
/// averaged over repeated runs; the paper averages 100 runs per point).
///
/// The whole grid — every (size, run) pair — is sharded over the
/// SweepEngine's worker pool; per-point statistics are bit-identical to the
/// serial loop for any --threads value, so the paper numbers do not depend
/// on the machine running the bench.
///
/// Shape anchors from §5: execution time drops quickly once a context can
/// hold more than one task, reaches its minimum at a moderate size (~800
/// CLBs in the paper), then grows slowly to a plateau once every hardware
/// task fits a single context (~5000 CLBs); small devices allocate many
/// contexts, large ones a single context; because context count and context
/// size compensate, total reconfiguration time stays roughly constant.

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/sweep_engine.hpp"
#include "model/motion_detection.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"

using namespace rdse;

static int run_bench(int argc, char** argv) {
  const bench::Scale scale = bench::parse_scale(argc, argv, 20, 12'000);
  bench::print_header("EXP-F3", "Figure 3: device-size sweep", scale);

  const Application app = make_motion_detection_app();
  const std::int32_t sizes[] = {100,  200,  400,  600,  800,  1000, 1500,
                                2000, 3000, 4000, 5000, 7000, 10000};

  ExplorerConfig config;
  config.seed = scale.seed;
  config.iterations = scale.iters;
  config.warmup_iterations = scale.warmup;
  config.record_trace = false;

  const SweepSpec spec =
      device_size_sweep(sizes, kMotionDetectionTrPerClb,
                        kMotionDetectionBusRate, config, scale.runs,
                        app.deadline);
  const SweepEngine engine(scale.threads);
  const SweepResult sweep = engine.run(app.graph, spec);

  Table table({"CLBs", "exec ms", "sd", "init rcf ms", "dyn rcf ms",
               "total rcf ms", "contexts", "hw tasks", "hit 40ms"});
  Series contexts{"number of contexts", {}, {}, 'o'};
  Series init_rcf{"initial reconfiguration (ms)", {}, {}, 'i'};
  Series dyn_rcf{"dynamic reconfiguration (ms)", {}, {}, 'd'};

  std::int32_t best_size = -1;
  double best_ms = 1e100;
  std::int32_t smallest_meeting = -1;

  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const std::int32_t clbs = sizes[i];
    const RunAggregate& agg = sweep.points[i].aggregate;

    table.row()
        .cell(static_cast<std::int64_t>(clbs))
        .cell(agg.mean_makespan_ms, 2)
        .cell(agg.stddev_makespan_ms, 2)
        .cell(agg.mean_init_reconfig_ms, 2)
        .cell(agg.mean_dyn_reconfig_ms, 2)
        .cell(agg.mean_init_reconfig_ms + agg.mean_dyn_reconfig_ms, 2)
        .cell(agg.mean_contexts, 2)
        .cell(agg.mean_hw_tasks, 1)
        .cell(agg.deadline_hit_rate, 2);

    const auto x = static_cast<double>(clbs);
    init_rcf.x.push_back(x);
    init_rcf.y.push_back(agg.mean_init_reconfig_ms);
    dyn_rcf.x.push_back(x);
    dyn_rcf.y.push_back(agg.mean_dyn_reconfig_ms);
    contexts.x.push_back(x);
    contexts.y.push_back(agg.mean_contexts);

    if (agg.mean_makespan_ms < best_ms) {
      best_ms = agg.mean_makespan_ms;
      best_size = clbs;
    }
    if (smallest_meeting < 0 && agg.deadline_hit_rate >= 0.99) {
      smallest_meeting = clbs;
    }
  }

  table.print(std::cout, "EXP-F3 sweep (mean over " +
                             std::to_string(scale.runs) +
                             " runs per size, " +
                             std::to_string(sweep.threads_used) +
                             " threads, " +
                             format_double(sweep.wall_seconds, 1) + " s)");
  std::cout << '\n' << plot_sweep(sweep);

  Table anchors({"shape anchor", "paper", "measured"});
  anchors.row()
      .cell(std::string("best device size (ms minimum)"))
      .cell(std::string("~800 CLBs"))
      .cell(std::to_string(best_size) + " CLBs (" +
            format_double(best_ms, 2) + " ms)");
  anchors.row()
      .cell(std::string("smallest device meeting 40 ms in all runs"))
      .cell(std::string("(byproduct of the study)"))
      .cell(smallest_meeting > 0 ? std::to_string(smallest_meeting) + " CLBs"
                                 : std::string("none"));
  anchors.row()
      .cell(std::string("contexts at small vs large devices"))
      .cell(std::string("up to ~10 vs 1"))
      .cell(format_double(contexts.y.front(), 1) + " vs " +
            format_double(contexts.y.back(), 1));
  anchors.row()
      .cell(std::string("total reconfiguration across sizes (ms)"))
      .cell(std::string("roughly constant"))
      .cell(format_double(init_rcf.y.front() + dyn_rcf.y.front(), 1) + " .. " +
            format_double(init_rcf.y.back() + dyn_rcf.y.back(), 1));
  anchors.print(std::cout, "EXP-F3 paper vs measured");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run_bench);
}
