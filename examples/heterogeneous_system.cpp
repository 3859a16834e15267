/// \file heterogeneous_system.cpp
/// \brief Beyond the paper's fixed CPU+FPGA platform: map the motion
/// detection application onto a richer system — a fast and a slow
/// processor plus two small FPGAs — and compare against the single-FPGA
/// reference. Demonstrates that the §3.2 architecture model (and the §4.2
/// moves) generalize to arbitrary resource mixes, the point of the
/// object-oriented Resource design the paper emphasizes.
///
/// The three candidate systems form a SweepSpec with one architecture per
/// point (each carrying its own init policy), explored in parallel by the
/// SweepEngine.
///
/// Usage: heterogeneous_system [--seed N] [--iters N] [--threads N]

#include <iostream>
#include <limits>

#include "core/report.hpp"
#include "core/sweep_engine.hpp"
#include "model/motion_detection.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run_example(int argc, char** argv) {
  using namespace rdse;
  const Options opts = Options::parse(argc, argv);
  const auto seed = static_cast<std::uint64_t>(
      opts.get_int_in("seed", 5, 0, std::numeric_limits<std::int64_t>::max()));
  const std::int64_t iters = opts.get_int_in(
      "iters", 15'000, 0, std::numeric_limits<std::int64_t>::max());
  const auto threads = static_cast<unsigned>(
      opts.get_int_in("threads", 0, 0, std::numeric_limits<unsigned>::max()));

  const Application app = make_motion_detection_app();

  ExplorerConfig config;
  config.seed = seed;
  config.iterations = iters;
  config.warmup_iterations = 1'000;
  config.record_trace = false;

  SweepSpec spec;
  spec.name = "heterogeneous-systems";
  spec.axis_label = "system (index)";
  spec.runs_per_point = 1;
  spec.deadline = app.deadline;

  spec.points.emplace_back(
      "reference: 1 CPU + 2000-CLB FPGA", 0.0,
      make_cpu_fpga_architecture(2000, kMotionDetectionTrPerClb,
                                 kMotionDetectionBusRate),
      config);
  {
    Architecture arch{Bus(kMotionDetectionBusRate)};
    arch.add_processor("cpu_fast", 150.0, /*speed_factor=*/1.5);
    arch.add_processor("cpu_slow", 60.0, /*speed_factor=*/0.7);
    arch.add_reconfigurable("fpga0", 400, kMotionDetectionTrPerClb);
    arch.add_reconfigurable("fpga1", 400, kMotionDetectionTrPerClb);
    spec.points.emplace_back("2 CPUs (1.5x / 0.7x) + 2 x 400-CLB FPGAs", 1.0,
                             std::move(arch), config);
  }
  {
    Architecture arch{Bus(kMotionDetectionBusRate)};
    arch.add_processor("cpu0");
    arch.add_asic("asic0");
    // Random-partition init requires an RC; this point overrides the init.
    ExplorerConfig asic_config = config;
    asic_config.init = InitKind::kAllSoftware;
    spec.points.emplace_back("1 CPU + ASIC (no reconfiguration)", 2.0,
                             std::move(arch), asic_config);
  }

  const SweepEngine engine(threads);
  const SweepResult result = engine.run(app.graph, spec);

  Table table({"system", "price", "best ms", "meets 40 ms"});
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const SweepPointResult& point = result.points[i];
    const MapperResult& r = point.runs.front();
    table.row()
        .cell(std::string(point.label))
        .cell(spec.points[i].arch.total_price(), 0)
        .cell(to_ms(r.best_metrics.makespan), 2)
        .cell(std::string(r.best_metrics.makespan <= app.deadline ? "yes"
                                                                  : "no"));
    std::cout << "\n--- " << point.label << " ---\n"
              << describe_metrics(r.best_metrics) << '\n'
              << describe_solution(app.graph, r.best_architecture,
                                   r.best_solution);
  }
  table.print(std::cout, "heterogeneous systems on " + app.name);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rdse::run_main(argc, argv, run_example);
}
