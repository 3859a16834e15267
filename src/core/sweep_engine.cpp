#include "core/sweep_engine.hpp"

#include <algorithm>
#include <memory>
#include <thread>

#include "util/assert.hpp"
#include "util/statistics.hpp"
#include "util/thread_pool.hpp"

namespace rdse {

RunAggregate aggregate_runs(std::span<const MapperResult> runs,
                            TimeNs deadline) {
  RDSE_REQUIRE(!runs.empty(), "aggregate_runs: no runs");
  RunAggregate agg;
  agg.runs = static_cast<int>(runs.size());
  std::vector<double> makespans;
  makespans.reserve(runs.size());
  int hits = 0;
  for (const MapperResult& run : runs) {
    const Metrics& m = run.best_metrics;
    makespans.push_back(to_ms(m.makespan));
    agg.mean_init_reconfig_ms += to_ms(m.init_reconfig);
    agg.mean_dyn_reconfig_ms += to_ms(m.dyn_reconfig);
    agg.mean_contexts += m.n_contexts;
    agg.mean_hw_tasks += m.hw_tasks;
    agg.mean_wall_seconds += run.wall_seconds;
    if (deadline > 0 && m.makespan <= deadline) ++hits;
  }
  const auto n = static_cast<double>(runs.size());
  agg.mean_makespan_ms = mean_of(makespans);
  agg.stddev_makespan_ms = stddev_of(makespans);
  agg.best_makespan_ms = min_of(makespans);
  agg.worst_makespan_ms = max_of(makespans);
  agg.mean_init_reconfig_ms /= n;
  agg.mean_dyn_reconfig_ms /= n;
  agg.mean_contexts /= n;
  agg.mean_hw_tasks /= n;
  agg.mean_wall_seconds /= n;
  agg.deadline_hit_rate = deadline > 0 ? static_cast<double>(hits) / n : 0.0;
  return agg;
}

unsigned SweepEngine::resolved_threads(std::size_t jobs) const {
  unsigned threads = threads_;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Never spawn more workers than there are jobs (but always at least one,
  // so an empty batch still reports a sane worker count).
  if (jobs < threads) {
    threads = static_cast<unsigned>(jobs);
  }
  return std::max(threads, 1u);
}

SweepResult SweepEngine::run(const TaskGraph& tg,
                             const SweepSpec& spec) const {
  RDSE_REQUIRE(spec.runs_per_point >= 0,
               "SweepEngine::run: negative runs_per_point");

  // Resolve every mapper up front: an unknown name fails the sweep before
  // any other point has spent its budget.
  std::vector<std::unique_ptr<Mapper>> mappers;
  mappers.reserve(spec.points.size());
  for (const SweepPoint& point : spec.points) {
    mappers.push_back(make_mapper(point.mapper));
  }

  const std::size_t runs = static_cast<std::size_t>(spec.runs_per_point);
  const std::size_t jobs = spec.points.size() * runs;

  SweepResult out;
  out.name = spec.name;
  out.axis_label = spec.axis_label;
  out.deadline = spec.deadline;
  out.points.resize(spec.points.size());
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    out.points[p].label = spec.points[p].label;
    out.points[p].x = spec.points[p].x;
    out.points[p].mapper = spec.points[p].mapper;
    out.points[p].runs.resize(runs);
  }

  if (jobs > 0) {
    // One job per (point, run): coarse enough that queue contention is
    // irrelevant, fine enough that a sweep with few points still saturates
    // the pool. Result slots are pre-sized, so workers never touch shared
    // containers; the seed of run r at point p is point.config.seed + r —
    // exactly what the serial Explorer::run_many loop would use.
    ThreadPool pool(resolved_threads(jobs));
    pool.parallel_for_index(
        jobs, [&spec, &tg, &mappers, runs, &out](std::size_t j) {
          const std::size_t p = j / runs;
          const std::size_t r = j % runs;
          const SweepPoint& point = spec.points[p];
          ExplorerConfig c = point.config;
          c.seed = point.config.seed + static_cast<std::uint64_t>(r);
          out.points[p].runs[r] = mappers[p]->run(tg, point.arch, c);
        });
  }

  if (runs > 0) {
    for (SweepPointResult& point : out.points) {
      point.aggregate = aggregate_runs(point.runs, spec.deadline);
    }
  }
  return out;
}

SweepSpec device_size_sweep(std::span<const std::int32_t> sizes,
                            TimeNs tr_per_clb,
                            std::int64_t bus_bytes_per_second,
                            const ExplorerConfig& config, int runs_per_point,
                            TimeNs deadline) {
  SweepSpec spec;
  spec.name = "device-size";
  spec.axis_label = "FPGA size (CLBs)";
  spec.runs_per_point = runs_per_point;
  spec.deadline = deadline;
  spec.points.reserve(sizes.size());
  for (const std::int32_t clbs : sizes) {
    RDSE_REQUIRE(clbs > 0, "device_size_sweep: device size must be positive");
    spec.points.emplace_back(
        std::to_string(clbs) + " CLBs", static_cast<double>(clbs),
        make_cpu_fpga_architecture(clbs, tr_per_clb, bus_bytes_per_second),
        config);
  }
  return spec;
}

SweepSpec schedule_sweep(std::span<const ScheduleKind> kinds,
                         const Architecture& arch,
                         const ExplorerConfig& config, int runs_per_point,
                         TimeNs deadline) {
  SweepSpec spec;
  spec.name = "schedule";
  spec.axis_label = "cooling schedule (index)";
  spec.runs_per_point = runs_per_point;
  spec.deadline = deadline;
  spec.points.reserve(kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    ExplorerConfig c = config;
    c.schedule = kinds[i];
    spec.points.emplace_back(std::string(to_string(kinds[i])),
                             static_cast<double>(i), arch, std::move(c));
  }
  return spec;
}

SweepSpec mapper_sweep(std::span<const std::string> mappers,
                       const Architecture& arch, const ExplorerConfig& config,
                       int runs_per_point, TimeNs deadline,
                       const std::string& label, double x) {
  SweepSpec spec;
  spec.name = "mapper-bench";
  spec.axis_label = "FPGA size (CLBs)";
  spec.runs_per_point = runs_per_point;
  spec.deadline = deadline;
  spec.points.reserve(mappers.size());
  for (const std::string& mapper : mappers) {
    spec.points.emplace_back(label, x, arch, config, mapper);
  }
  return spec;
}

}  // namespace rdse
