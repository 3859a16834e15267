#include "core/sweep_engine.hpp"

#include <algorithm>
#include <thread>

#include "baseline/mapper.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace rdse {

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

std::vector<MapperResult> SweepEngine::run_mapper_many(
    const Mapper& mapper, const TaskGraph& tg, const Architecture& arch,
    const ExplorerConfig& config, int n) const {
  RDSE_REQUIRE(n >= 0, "SweepEngine::run_mapper_many: negative run count");
  std::vector<MapperResult> out(static_cast<std::size_t>(n));
  if (n == 0) return out;

  ThreadPool pool(resolved_threads(static_cast<std::size_t>(n)));
  pool.parallel_for_index(static_cast<std::size_t>(n),
                          [&mapper, &tg, &arch, &config, &out](std::size_t i) {
                            ExplorerConfig c = config;
                            c.seed = config.seed +
                                     static_cast<std::uint64_t>(i);
                            out[i] = mapper.run(tg, arch, c);
                          });
  return out;
}

SweepResult SweepEngine::run(const TaskGraph& tg,
                             const SweepSpec& spec) const {
  RDSE_REQUIRE(spec.runs_per_point >= 0,
               "SweepEngine::run: negative runs_per_point");

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
    out.points[p].runs.resize(runs);
  }

  if (jobs > 0) {
    // One job per (point, run): coarse enough that queue contention is
    // irrelevant, fine enough that a sweep with few points still saturates
    // the pool. Result slots are pre-sized, so workers never touch shared
    // containers; the seed of run r at point p is point.config.seed + r —
    // exactly what the serial Explorer::run_many loop would use.
    ThreadPool pool(resolved_threads(jobs));
    pool.parallel_for_index(jobs, [&spec, &tg, runs, &out](std::size_t j) {
      const std::size_t p = j / runs;
      const std::size_t r = j % runs;
      const SweepPoint& point = spec.points[p];
      const Explorer explorer(tg, point.arch);
      ExplorerConfig c = point.config;
      c.seed = point.config.seed + static_cast<std::uint64_t>(r);
      out.points[p].runs[r] = explorer.run(c);
    });
  }

  if (runs > 0) {
    for (SweepPointResult& point : out.points) {
      point.aggregate = Explorer::aggregate(point.runs, spec.deadline);
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

}  // namespace rdse
