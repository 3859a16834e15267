#include "core/explorer.hpp"

#include <chrono>
#include <limits>

#include "core/checkpoint.hpp"
#include "util/assert.hpp"

namespace rdse {

Explorer::Explorer(const TaskGraph& tg, Architecture arch)
    : tg_(&tg), arch_(std::move(arch)) {
  tg.validate();
  RDSE_REQUIRE(!arch_.processor_ids().empty(),
               "Explorer: architecture needs at least one processor");
  all_software_ = Solution::all_software(tg, arch_.processor_ids().front());
}

Solution Explorer::initial_solution(InitKind kind, Rng& rng) const {
  const ResourceId proc = arch_.processor_ids().front();
  switch (kind) {
    case InitKind::kAllSoftware:
      return all_software_;
    case InitKind::kRandomPartition: {
      const auto rcs = arch_.reconfigurable_ids();
      if (rcs.empty()) {
        return all_software_;
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

}  // namespace rdse
