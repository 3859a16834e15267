#pragma once
/// \file longest_path.hpp
/// \brief DAG longest-path (critical-path) computation — the solution
/// evaluator of §4.4.
///
/// The search graph's node weights are task execution times on the assigned
/// resource; edge weights are communication or reconfiguration delays; some
/// nodes additionally carry a *release time* (earliest start), which models
/// the initial reconfiguration of the first FPGA context. The makespan of a
/// candidate solution is the largest completion time over all nodes.
///
/// Two evaluation modes are provided and property-tested to agree:
///  - full(): one forward pass in topological order, O(V + E);
///  - Incremental recomputation from a set of "dirty" nodes whose
///    inputs changed (the role the paper assigns to its Woodbury-type
///    update [4]) — see sched/incremental.hpp for the stateful wrapper.

#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "util/time.hpp"

namespace rdse {

/// Result of a longest-path evaluation.
struct LongestPathResult {
  /// Earliest start time of each node.
  std::vector<TimeNs> start;
  /// Earliest completion time of each node (start + node weight).
  std::vector<TimeNs> finish;
  /// Max over finish[] — the schedule makespan.
  TimeNs makespan = 0;
  /// A node attaining the makespan (first in id order).
  NodeId critical_sink = kInvalidNode;
};

/// Inputs to the evaluation: parallel arrays indexed by node / edge id.
/// `edge_weight` must be sized to g.edge_capacity() (dead edge slots are
/// ignored). `release` may be empty (treated as all-zero).
struct WeightedDag {
  const Digraph* graph = nullptr;
  std::span<const TimeNs> node_weight;
  std::span<const TimeNs> edge_weight;
  std::span<const TimeNs> release;
};

/// Full forward evaluation. Throws rdse::Error if the graph is cyclic.
[[nodiscard]] LongestPathResult longest_path(const WeightedDag& dag);

/// The same forward pass in `order`, a topological order of the graph that
/// the caller has already computed (its cycle verdict), so the graph is
/// not sorted twice.
[[nodiscard]] LongestPathResult longest_path(const WeightedDag& dag,
                                             std::span<const NodeId> order);

/// Extract one critical path (node sequence from a source to the critical
/// sink) from a completed evaluation.
[[nodiscard]] std::vector<NodeId> critical_path(const WeightedDag& dag,
                                                const LongestPathResult& r);

}  // namespace rdse
