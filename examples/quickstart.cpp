/// \file quickstart.cpp
/// \brief Minimal end-to-end use of the rdse public API:
///  1. describe an application as a precedence graph with per-task
///     software times and hardware implementation variants;
///  2. describe the target architecture (CPU + dynamically reconfigurable
///     FPGA joined by a shared bus);
///  3. run the simulated-annealing design-space exploration;
///  4. inspect the resulting mapping, contexts and schedule.

#include <iostream>

#include "core/explorer.hpp"
#include "core/report.hpp"
#include "model/task_graph.hpp"
#include "util/cli.hpp"

namespace {

int run_example(int /*argc*/, char** /*argv*/) {
  using namespace rdse;

  // 1. A small video pipeline: grab -> filter -> {edges, histogram} -> fuse.
  TaskGraph app;
  auto add = [&](const char* name, double sw_ms, std::int32_t base_clbs,
                 double speedup) {
    Task t;
    t.name = name;
    t.functionality = name;
    t.sw_time = from_ms(sw_ms);
    if (base_clbs > 0) {
      t.hw = make_pareto_impls(t.sw_time, base_clbs, speedup, 5);
    }
    return app.add_task(std::move(t));
  };
  const TaskId grab = add("grab", 1.0, 0, 1.0);  // software-only I/O
  const TaskId filter = add("filter", 6.0, 60, 10.0);
  const TaskId edges = add("edges", 5.0, 80, 12.0);
  const TaskId histogram = add("histogram", 3.0, 40, 8.0);
  const TaskId fuse = add("fuse", 2.0, 30, 4.0);
  app.add_comm(grab, filter, 16384);
  app.add_comm(filter, edges, 16384);
  app.add_comm(filter, histogram, 8192);
  app.add_comm(edges, fuse, 4096);
  app.add_comm(histogram, fuse, 2048);

  // 2. CPU + 500-CLB FPGA (22.5 us/CLB reconfiguration), 50 MB/s bus.
  Architecture arch =
      make_cpu_fpga_architecture(500, from_us(22.5), 50'000'000);

  // 3. Explore.
  Explorer explorer(app, arch);
  ExplorerConfig config;
  config.seed = 42;
  config.iterations = 4000;
  config.warmup_iterations = 300;
  const RunResult result = explorer.run(config);

  // 4. Report.
  std::cout << "software-only time: " << format_ms(app.total_sw_time())
            << "\n";
  print_run_report(std::cout, app, result);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rdse::run_main(argc, argv, run_example);
}
