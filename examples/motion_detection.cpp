/// \file motion_detection.cpp
/// \brief The paper's §5 experiment on one run: map the 28-task motion
/// detection application (40 ms real-time constraint, 76.4 ms software-only)
/// onto an ARM-class processor + 2000-CLB Virtex-E-class FPGA and print the
/// Fig. 2-style iteration trace plus the final mapping and schedule.
///
/// Usage: motion_detection [--seed N] [--iters N] [--clbs N] [--csv]

#include <iostream>
#include <limits>

#include "core/explorer.hpp"
#include "core/report.hpp"
#include "model/motion_detection.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"

namespace {

int run_example(int argc, char** argv) {
  using namespace rdse;
  static constexpr std::string_view kBoolFlags[] = {"csv"};
  const Options opts = Options::parse(argc, argv, kBoolFlags);
  const auto seed = static_cast<std::uint64_t>(
      opts.get_int_in("seed", 3, 0, std::numeric_limits<std::int64_t>::max()));
  const std::int64_t iters = opts.get_int_in(
      "iters", 20'000, 0, std::numeric_limits<std::int64_t>::max());
  const auto clbs = static_cast<std::int32_t>(opts.get_int_in(
      "clbs", 2000, 1, std::numeric_limits<std::int32_t>::max()));

  const Application app = make_motion_detection_app();
  Architecture arch = make_cpu_fpga_architecture(
      clbs, kMotionDetectionTrPerClb, kMotionDetectionBusRate);

  std::cout << "application: " << app.name << " (" << app.graph.task_count()
            << " tasks, software-only " << format_ms(app.graph.total_sw_time())
            << ", deadline " << format_ms(app.deadline) << ")\n"
            << "device: " << clbs << " CLBs, tR = "
            << to_us(kMotionDetectionTrPerClb) << " us/CLB\n\n";

  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = seed;
  config.iterations = iters;
  config.warmup_iterations = 1200;  // §5: first 1200 iterations at infinite T
  const RunResult result = explorer.run(config);

  if (opts.get_flag("csv")) {
    std::cout << result.trace.downsample(2000).to_csv();
    return 0;
  }

  const Trace plot_trace = result.trace.downsample(400);
  std::cout << render_plot(
      {Series{"execution time (ms)", plot_trace.iterations(),
              plot_trace.costs(), '*'},
       Series{"contexts (count)", plot_trace.iterations(),
              plot_trace.contexts(), 'o'}},
      PlotOptions{72, 16, "iteration", "cost trace (cf. paper Fig. 2)",
                  true});
  std::cout << '\n';
  print_run_report(std::cout, app.graph, result);

  const bool met = result.best_metrics.makespan <= app.deadline;
  std::cout << "constraint: " << format_ms(result.best_metrics.makespan)
            << (met ? " <= " : " > ") << format_ms(app.deadline)
            << (met ? "  (met)" : "  (MISSED)") << '\n';
  return met ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return rdse::run_main(argc, argv, run_example);
}
