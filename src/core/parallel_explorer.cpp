#include "core/parallel_explorer.hpp"

#include <algorithm>
#include <chrono>

#include "core/checkpoint.hpp"

namespace rdse {

ParallelExplorer::ParallelExplorer(const TaskGraph& tg, Architecture arch)
    : explorer_(tg, std::move(arch)) {}

std::uint64_t ParallelExplorer::replica_seed(std::uint64_t master_seed,
                                             int replica) {
  return split_stream_seed(master_seed,
                           static_cast<std::uint64_t>(replica));
}

ParallelRunResult ParallelExplorer::run(
    const ParallelExplorerConfig& config) const {
  const auto t0 = std::chrono::steady_clock::now();
  CheckpointableParallelExplorer session(explorer_, config);
  while (session.step()) {
  }
  ParallelRunResult out = session.result();
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.best.wall_seconds = out.wall_seconds;
  return out;
}

Trace ParallelRunResult::merged_trace() const {
  std::vector<TraceRow> rows;
  std::size_t total = 0;
  for (const ReplicaOutcome& rep : replicas) total += rep.trace.size();
  rows.reserve(total);
  for (const ReplicaOutcome& rep : replicas) {
    rows.insert(rows.end(), rep.trace.rows().begin(), rep.trace.rows().end());
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const TraceRow& a, const TraceRow& b) {
                     return a.iteration < b.iteration;
                   });
  Trace merged;
  for (const TraceRow& row : rows) merged.add(row);
  return merged;
}

}  // namespace rdse
