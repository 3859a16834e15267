#include "graph/longest_path.hpp"

#include <algorithm>

#include "graph/topo.hpp"

namespace rdse {
namespace {

TimeNs release_of(const WeightedDag& dag, NodeId v) {
  return dag.release.empty() ? 0 : dag.release[v];
}

}  // namespace

LongestPathResult longest_path(const WeightedDag& dag) {
  RDSE_REQUIRE(dag.graph != nullptr, "longest_path: null graph");
  const auto order = topological_order(*dag.graph);
  RDSE_REQUIRE(order.has_value(), "longest_path: graph is cyclic");
  return longest_path(dag, *order);
}

LongestPathResult longest_path(const WeightedDag& dag,
                               std::span<const NodeId> order) {
  RDSE_REQUIRE(dag.graph != nullptr, "longest_path: null graph");
  const Digraph& g = *dag.graph;
  RDSE_REQUIRE(dag.node_weight.size() == g.node_count(),
               "longest_path: node_weight size mismatch");
  RDSE_REQUIRE(dag.edge_weight.size() >= g.edge_capacity(),
               "longest_path: edge_weight size mismatch");
  RDSE_REQUIRE(dag.release.empty() || dag.release.size() == g.node_count(),
               "longest_path: release size mismatch");
  RDSE_REQUIRE(order.size() == g.node_count(),
               "longest_path: order size mismatch");

  LongestPathResult r;
  r.start.assign(g.node_count(), 0);
  r.finish.assign(g.node_count(), 0);
  for (NodeId v : order) {
    TimeNs s = release_of(dag, v);
    for (const HalfEdge& h : g.in_half(v)) {
      s = std::max(s, r.finish[h.node] + dag.edge_weight[h.edge]);
    }
    r.start[v] = s;
    r.finish[v] = s + dag.node_weight[v];
  }
  // Critical sink: maximum finish time, smallest node id on ties.
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (r.critical_sink == kInvalidNode || r.finish[v] > r.makespan) {
      r.makespan = r.finish[v];
      r.critical_sink = v;
    }
  }
  return r;
}

std::vector<NodeId> critical_path(const WeightedDag& dag,
                                  const LongestPathResult& r) {
  RDSE_REQUIRE(dag.graph != nullptr, "critical_path: null graph");
  const Digraph& g = *dag.graph;
  if (g.node_count() == 0) return {};
  std::vector<NodeId> path;
  NodeId v = r.critical_sink;
  path.push_back(v);
  // Walk backwards through predecessors that realize the start time.
  while (true) {
    const TimeNs s = r.start[v];
    NodeId best_pred = kInvalidNode;
    for (const HalfEdge& h : g.in_half(v)) {
      const NodeId u = h.node;
      if (r.finish[u] + dag.edge_weight[h.edge] == s) {
        if (best_pred == kInvalidNode || u < best_pred) {
          best_pred = u;
        }
      }
    }
    if (best_pred == kInvalidNode) {
      break;  // start determined by release time or node is a source
    }
    v = best_pred;
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace rdse
