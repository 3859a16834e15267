#include "core/explorer.hpp"

#include <chrono>
#include <limits>

#include "core/checkpoint.hpp"
#include "util/assert.hpp"
#include "util/statistics.hpp"

namespace rdse {

Explorer::Explorer(const TaskGraph& tg, Architecture arch)
    : tg_(&tg), arch_(std::move(arch)) {
  tg.validate();
  RDSE_REQUIRE(!arch_.processor_ids().empty(),
               "Explorer: architecture needs at least one processor");
}

Solution Explorer::initial_solution(InitKind kind, Rng& rng) const {
  const ResourceId proc = arch_.processor_ids().front();
  switch (kind) {
    case InitKind::kAllSoftware:
      return Solution::all_software(*tg_, proc);
    case InitKind::kRandomPartition: {
      const auto rcs = arch_.reconfigurable_ids();
      if (rcs.empty()) {
        return Solution::all_software(*tg_, proc);
      }
      return Solution::random_partition(*tg_, arch_, proc, rcs.front(), rng);
    }
  }
  RDSE_ASSERT_MSG(false, "initial_solution: unknown init kind");
  return Solution(0);
}

RunResult Explorer::run(const ExplorerConfig& config) const {
  const auto t0 = std::chrono::steady_clock::now();
  CheckpointableExplorer session(*this, config);
  while (!session.finished()) {
    (void)session.step(std::numeric_limits<std::int64_t>::max());
  }
  RunResult result = session.result();
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

std::vector<RunResult> Explorer::run_many(const ExplorerConfig& config,
                                          int n) const {
  RDSE_REQUIRE(n >= 0, "run_many: negative run count");
  std::vector<RunResult> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ExplorerConfig c = config;
    c.seed = config.seed + static_cast<std::uint64_t>(i);
    out.push_back(run(c));
  }
  return out;
}

RunAggregate aggregate_metrics(std::span<const Metrics> metrics,
                               std::span<const double> wall_seconds,
                               TimeNs deadline) {
  RDSE_REQUIRE(!metrics.empty(), "aggregate: no results");
  RDSE_REQUIRE(metrics.size() == wall_seconds.size(),
               "aggregate: metrics/wall size mismatch");
  RunAggregate agg;
  agg.runs = static_cast<int>(metrics.size());
  std::vector<double> makespans;
  makespans.reserve(metrics.size());
  int hits = 0;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metrics& m = metrics[i];
    makespans.push_back(to_ms(m.makespan));
    agg.mean_init_reconfig_ms += to_ms(m.init_reconfig);
    agg.mean_dyn_reconfig_ms += to_ms(m.dyn_reconfig);
    agg.mean_contexts += m.n_contexts;
    agg.mean_hw_tasks += m.hw_tasks;
    agg.mean_wall_seconds += wall_seconds[i];
    if (deadline > 0 && m.makespan <= deadline) ++hits;
  }
  const auto n = static_cast<double>(metrics.size());
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

RunAggregate Explorer::aggregate(const std::vector<RunResult>& results,
                                 TimeNs deadline) {
  std::vector<Metrics> metrics;
  std::vector<double> walls;
  metrics.reserve(results.size());
  walls.reserve(results.size());
  for (const RunResult& r : results) {
    metrics.push_back(r.best_metrics);
    walls.push_back(r.wall_seconds);
  }
  return aggregate_metrics(metrics, walls, deadline);
}

}  // namespace rdse
