#include "baseline/clustering.hpp"

#include <algorithm>

#include "baseline/list_scheduler.hpp"
#include "graph/topo.hpp"
#include "util/assert.hpp"

namespace rdse {

std::vector<std::vector<TaskId>> cluster_into_contexts(
    const TaskGraph& tg, const Resource& dev,
    const std::vector<bool>& hw_mask,
    const std::vector<std::uint32_t>& impl_choice) {
  RDSE_REQUIRE(hw_mask.size() == tg.task_count(),
               "cluster_into_contexts: mask size mismatch");
  RDSE_REQUIRE(impl_choice.size() == tg.task_count(),
               "cluster_into_contexts: impl size mismatch");

  const auto level = asap_levels(tg.digraph());
  std::vector<TaskId> selected;
  for (TaskId t = 0; t < tg.task_count(); ++t) {
    if (!hw_mask[t]) continue;
    const Task& task = tg.task(t);
    RDSE_REQUIRE(task.hw_capable(), "cluster_into_contexts: task '" +
                                        task.name + "' has no hw variant");
    RDSE_REQUIRE(impl_choice[t] < task.hw.size(),
                 "cluster_into_contexts: impl index out of range");
    RDSE_REQUIRE(task.hw.at(impl_choice[t]).clbs <= dev.n_clbs(),
                 "cluster_into_contexts: task '" + task.name +
                     "' does not fit the device");
    selected.push_back(t);
  }
  std::sort(selected.begin(), selected.end(), [&level](TaskId a, TaskId b) {
    return level[a] != level[b] ? level[a] < level[b] : a < b;
  });

  std::vector<std::vector<TaskId>> contexts;
  std::int32_t used = 0;
  for (TaskId t : selected) {
    const std::int32_t area = tg.task(t).hw.at(impl_choice[t]).clbs;
    if (contexts.empty() || used + area > dev.n_clbs()) {
      contexts.emplace_back();
      used = 0;
    }
    contexts.back().push_back(t);
    used += area;
  }
  return contexts;
}

Solution decode_partition(const TaskGraph& tg, const Architecture& arch,
                          const std::vector<bool>& hw_mask,
                          const std::vector<std::uint32_t>& impl_choice,
                          std::span<const double> priority) {
  RDSE_REQUIRE(priority.size() == tg.task_count(),
               "decode_partition: priority size mismatch");
  const auto procs = arch.processor_ids();
  const auto rcs = arch.reconfigurable_ids();
  RDSE_REQUIRE(!procs.empty(), "decode_partition: no processor");
  RDSE_REQUIRE(!rcs.empty(), "decode_partition: no reconfigurable circuit");
  const ResourceId proc = procs.front();
  const ResourceId rc = rcs.front();

  // Deterministic temporal partitioning (clustering) ...
  const auto contexts =
      cluster_into_contexts(tg, arch.reconfigurable(rc), hw_mask, impl_choice);
  // ... and deterministic global scheduling (priority list order) over the
  // precedence graph extended with inter-context sequencing edges.
  Digraph constraints = tg.digraph();
  for (std::size_t c = 0; c + 1 < contexts.size(); ++c) {
    for (TaskId u : contexts[c]) {
      for (TaskId v : contexts[c + 1]) {
        constraints.add_edge(u, v);
      }
    }
  }
  const auto order = priority_topological_order(constraints, priority);

  Solution sol(tg.task_count());
  for (TaskId t : order) {
    if (!hw_mask[t]) {
      sol.insert_on_processor(t, proc, sol.processor_order(proc).size());
    }
  }
  for (std::size_t c = 0; c < contexts.size(); ++c) {
    const std::size_t ctx =
        sol.spawn_context_after(rc, c == 0 ? Solution::kFront : c - 1);
    RDSE_ASSERT(ctx == c);
    for (TaskId t : contexts[c]) {
      sol.insert_in_context(t, rc, ctx, impl_choice[t],
                            tg.task(t).hw.at(impl_choice[t]).clbs);
    }
  }
  return sol;
}

}  // namespace rdse
