#include "baseline/list_scheduler.hpp"

#include <queue>

#include "graph/topo.hpp"
#include "util/assert.hpp"

namespace rdse {

std::vector<double> upward_ranks(const TaskGraph& tg) {
  const Digraph& g = tg.digraph();
  const auto order = topological_order(g);
  RDSE_REQUIRE(order.has_value(), "upward_ranks: cyclic task graph");
  std::vector<double> rank(tg.task_count(), 0.0);
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const TaskId v = *it;
    double succ_max = 0.0;
    for (const HalfEdge& h : g.out_half(v)) {
      succ_max = std::max(succ_max, rank[h.node]);
    }
    rank[v] = to_ms(tg.task(v).sw_time) + succ_max;
  }
  return rank;
}

std::vector<TaskId> priority_topological_order(
    const TaskGraph& tg, std::span<const double> priority) {
  return priority_topological_order(tg.digraph(), priority);
}

std::vector<NodeId> priority_topological_order(
    const Digraph& g, std::span<const double> priority) {
  RDSE_REQUIRE(priority.size() == g.node_count(),
               "priority_topological_order: priority size mismatch");
  std::vector<std::uint32_t> indeg(g.node_count(), 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    indeg[v] = static_cast<std::uint32_t>(g.in_degree(v));
  }
  // Max-heap on (priority, smaller id wins ties).
  auto cmp = [&priority](NodeId a, NodeId b) {
    if (priority[a] != priority[b]) return priority[a] < priority[b];
    return a > b;
  };
  std::priority_queue<NodeId, std::vector<NodeId>, decltype(cmp)> ready(cmp);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (indeg[v] == 0) ready.push(v);
  }
  std::vector<NodeId> order;
  order.reserve(g.node_count());
  while (!ready.empty()) {
    const NodeId v = ready.top();
    ready.pop();
    order.push_back(v);
    for (const HalfEdge& h : g.out_half(v)) {
      if (--indeg[h.node] == 0) ready.push(h.node);
    }
  }
  RDSE_REQUIRE(order.size() == g.node_count(),
               "priority_topological_order: cyclic constraint graph");
  return order;
}

}  // namespace rdse
