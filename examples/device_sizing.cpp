/// \file device_sizing.cpp
/// \brief The Fig. 3 "byproduct" study as a designer-facing tool: find the
/// smallest FPGA for which the application's real-time constraint is met.
///
/// Builds the device-size axis as a SweepSpec and shards every (size, run)
/// pair over the SweepEngine's worker pool — results are bit-identical to
/// the serial loop this example used to be, for any --threads value.
///
/// Usage: device_sizing [--runs N] [--iters N] [--threads N]

#include <iostream>
#include <limits>

#include "core/report.hpp"
#include "core/sweep_engine.hpp"
#include "model/motion_detection.hpp"
#include "util/cli.hpp"

namespace {

int run_example(int argc, char** argv) {
  using namespace rdse;
  const Options opts = Options::parse(argc, argv);
  const int runs = static_cast<int>(
      opts.get_int_in("runs", 5, 1, std::numeric_limits<int>::max()));
  const std::int64_t iters = opts.get_int_in(
      "iters", 8'000, 0, std::numeric_limits<std::int64_t>::max());
  const auto threads = static_cast<unsigned>(
      opts.get_int_in("threads", 0, 0, std::numeric_limits<unsigned>::max()));

  const Application app = make_motion_detection_app();
  const std::int32_t sizes[] = {200, 400, 600, 800, 1200, 2000, 4000};

  ExplorerConfig config;
  config.seed = 1;
  config.iterations = iters;
  config.record_trace = false;

  const SweepSpec spec =
      device_size_sweep(sizes, kMotionDetectionTrPerClb,
                        kMotionDetectionBusRate, config, runs, app.deadline);
  const SweepEngine engine(threads);
  const SweepResult result = engine.run(app.graph, spec);

  std::cout << describe_sweep(result);

  std::int32_t smallest_ok = -1;
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    if (result.points[i].aggregate.deadline_hit_rate >= 0.99) {
      smallest_ok = sizes[i];
      break;
    }
  }
  if (smallest_ok > 0) {
    std::cout << "\nsmallest device meeting the constraint in every run: "
              << smallest_ok << " CLBs\n";
  } else {
    std::cout << "\nno swept device met the constraint in every run\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rdse::run_main(argc, argv, run_example);
}
