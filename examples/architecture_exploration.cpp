/// \file architecture_exploration.cpp
/// \brief The general mode of the method ([11], §4.2 moves m3/m4): the
/// architecture itself is explored. Starting from a single processor, the
/// annealer may create/remove resources (processors, FPGAs, ASICs); the
/// cost blends system price with a penalty for missing the deadline, so the
/// search settles on the cheapest system that meets the constraint.
///
/// Usage: architecture_exploration [--seed N] [--iters N]

#include <iostream>
#include <limits>

#include "core/explorer.hpp"
#include "core/report.hpp"
#include "model/motion_detection.hpp"
#include "util/cli.hpp"

namespace {

int run_example(int argc, char** argv) {
  using namespace rdse;
  const Options opts = Options::parse(argc, argv);
  const auto seed = static_cast<std::uint64_t>(
      opts.get_int_in("seed", 7, 0, std::numeric_limits<std::int64_t>::max()));
  const std::int64_t iters = opts.get_int_in(
      "iters", 25'000, 0, std::numeric_limits<std::int64_t>::max());

  const Application app = make_motion_detection_app();

  // Start from the minimal system: one processor, nothing else.
  Architecture arch{Bus(kMotionDetectionBusRate)};
  arch.add_processor("cpu0");

  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = seed;
  config.iterations = iters;
  config.warmup_iterations = 2000;
  config.init = InitKind::kAllSoftware;
  config.record_trace = false;
  // Enable the architecture moves (§4.2: "the probability of generating a
  // 0" — zero for fixed platforms, positive here).
  config.moves.p_zero = 0.05;
  // Cost = system price + steep penalty per ms over the deadline.
  config.cost.time_weight = 0.0;
  config.cost.price_weight = 1.0;
  config.cost.deadline = app.deadline;
  config.cost.deadline_penalty_per_ms = 100.0;

  const RunResult result = explorer.run(config);

  std::cout << "explored system for " << app.name << " (deadline "
            << format_ms(app.deadline) << "):\n\n";
  for (ResourceId id : result.best_architecture.live_ids()) {
    const Resource& r = result.best_architecture.resource(id);
    std::cout << "  " << r.name() << " (" << to_string(r.kind())
              << ", price " << r.price() << ")\n";
  }
  std::cout << "  total price: " << result.best_architecture.total_price()
            << "\n\n";
  print_run_report(std::cout, app.graph, result);

  const bool met = result.best_metrics.makespan <= app.deadline;
  std::cout << (met ? "deadline met\n" : "deadline MISSED\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rdse::run_main(argc, argv, run_example);
}
