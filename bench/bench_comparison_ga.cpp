/// \file bench_comparison_ga.cpp
/// \brief EXP-T1 — the §5 comparison: software-only reference, the genetic
/// flow of Ben Chehida & Auguin [6] (GA over spatial partitioning +
/// deterministic clustering + deterministic list scheduling, population
/// 300), this paper's concurrent simulated-annealing exploration, plus
/// random search and hill climbing as calibration baselines.
///
/// Paper anchors: SW-only 76.4 ms; GA best 28 ms in ~4 minutes; SA ~18.1 ms
/// in < 10 s ("an order of magnitude faster" even at equal population).
/// Absolute times differ on a reimplemented substrate; the claims under
/// test are the *directions*: SA quality >= GA quality, both far below the
/// constraint, SA cheaper per unit of quality, both beat random search.

#include "baseline/genetic.hpp"
#include "baseline/hill_climb.hpp"
#include "baseline/random_search.hpp"
#include "bench_common.hpp"
#include "core/explorer.hpp"
#include "model/motion_detection.hpp"
#include "util/statistics.hpp"
#include "util/table.hpp"

using namespace rdse;

static int run_bench(int argc, char** argv) {
  const bench::Scale scale = bench::parse_scale(argc, argv, 5, 15'000);
  bench::print_header("EXP-T1", "§5 comparison: SA vs GA [6] vs baselines",
                      scale);

  const Application app = make_motion_detection_app();
  Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);

  // --- this paper: adaptive simulated annealing ---------------------------
  Explorer explorer(app.graph, arch);
  ExplorerConfig sa_config;
  sa_config.seed = scale.seed;
  sa_config.iterations = scale.iters;
  sa_config.warmup_iterations = scale.warmup;
  sa_config.record_trace = false;
  std::vector<double> sa_best, sa_wall;
  std::int64_t sa_evals = 0;
  for (int i = 0; i < scale.runs; ++i) {
    ExplorerConfig c = sa_config;
    c.seed = scale.seed + static_cast<std::uint64_t>(i);
    const RunResult r = explorer.run(c);
    sa_best.push_back(to_ms(r.best_metrics.makespan));
    sa_wall.push_back(r.wall_seconds);
    sa_evals = r.anneal.accepted + r.anneal.rejected;
  }

  // --- [6]: genetic algorithm, population 300 ----------------------------
  GeneticPartitioner ga(app.graph, arch);
  GaConfig ga_config;
  ga_config.seed = scale.seed;
  ga_config.population = 300;  // §5: "the population size is 300"
  ga_config.generations = scale.full ? 120 : 50;
  std::vector<double> ga_best, ga_wall;
  std::int64_t ga_evals = 0;
  for (int i = 0; i < scale.runs; ++i) {
    GaConfig c = ga_config;
    c.seed = scale.seed + static_cast<std::uint64_t>(i);
    const MapperResult r = ga.run(c);
    ga_best.push_back(r.best_cost_ms);
    ga_wall.push_back(r.wall_seconds);
    ga_evals = r.evaluations;
  }

  // --- calibration baselines ----------------------------------------------
  std::vector<double> rs_best, hc_best;
  for (int i = 0; i < scale.runs; ++i) {
    rs_best.push_back(
        run_random_search(app.graph, arch, scale.iters,
                          scale.seed + static_cast<std::uint64_t>(i))
            .best_cost_ms);
    hc_best.push_back(to_ms(
        run_hill_climb(app.graph, arch, scale.iters,
                       scale.seed + static_cast<std::uint64_t>(i))
            .best_metrics.makespan));
  }

  Table table({"method", "best ms", "mean ms", "sd", "evals/run",
               "mean wall s"});
  table.row()
      .cell(std::string("software only (ARM-class)"))
      .cell(76.4, 2)
      .cell(76.4, 2)
      .cell(0.0, 2)
      .cell(std::int64_t{0})
      .cell(0.0, 3);
  table.row()
      .cell(std::string("random search"))
      .cell(min_of(rs_best), 2)
      .cell(mean_of(rs_best), 2)
      .cell(stddev_of(rs_best), 2)
      .cell(scale.iters)
      .cell(0.0, 3);
  table.row()
      .cell(std::string("hill climbing (T=0)"))
      .cell(min_of(hc_best), 2)
      .cell(mean_of(hc_best), 2)
      .cell(stddev_of(hc_best), 2)
      .cell(scale.iters)
      .cell(0.0, 3);
  table.row()
      .cell(std::string("GA of [6] (pop 300)"))
      .cell(min_of(ga_best), 2)
      .cell(mean_of(ga_best), 2)
      .cell(stddev_of(ga_best), 2)
      .cell(ga_evals)
      .cell(mean_of(ga_wall), 3);
  table.row()
      .cell(std::string("adaptive SA (this paper)"))
      .cell(min_of(sa_best), 2)
      .cell(mean_of(sa_best), 2)
      .cell(stddev_of(sa_best), 2)
      .cell(sa_evals)
      .cell(mean_of(sa_wall), 3);
  table.print(std::cout,
              "EXP-T1 motion detection @ 2000 CLBs (" +
                  std::to_string(scale.runs) + " runs each)");

  Table anchors({"claim (§5)", "paper", "measured"});
  anchors.row()
      .cell(std::string("SA result vs GA result (ms)"))
      .cell(std::string("18.1 vs 28"))
      .cell(format_double(mean_of(sa_best), 2) + " vs " +
            format_double(mean_of(ga_best), 2));
  anchors.row()
      .cell(std::string("SA quality <= GA quality"))
      .cell(std::string("yes"))
      .cell(std::string(mean_of(sa_best) <= mean_of(ga_best) + 0.5 ? "yes"
                                                                   : "NO"));
  anchors.row()
      .cell(std::string("both beat the 40 ms constraint"))
      .cell(std::string("yes"))
      .cell(std::string(
          mean_of(sa_best) < 40.0 && mean_of(ga_best) < 40.0 ? "yes" : "NO"));
  anchors.row()
      .cell(std::string("SA wall time vs GA wall time"))
      .cell(std::string("<10 s vs ~4 min"))
      .cell(format_double(mean_of(sa_wall), 3) + " s vs " +
            format_double(mean_of(ga_wall), 3) + " s");
  anchors.row()
      .cell(std::string("guided search beats random sampling"))
      .cell(std::string("(implied)"))
      .cell(std::string(mean_of(sa_best) < mean_of(rs_best) ? "yes" : "NO"));
  anchors.print(std::cout, "EXP-T1 paper vs measured");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run_bench);
}
