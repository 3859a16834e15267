#include "graph/topo.hpp"

#include <algorithm>
#include <queue>

namespace rdse {

std::optional<std::vector<NodeId>> topological_order(const Digraph& g) {
  const std::size_t n = g.node_count();
  std::vector<std::uint32_t> indeg(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    indeg[v] = static_cast<std::uint32_t>(g.in_degree(v));
  }
  // Min-heap on node id for a deterministic order.
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
  for (NodeId v = 0; v < n; ++v) {
    if (indeg[v] == 0) ready.push(v);
  }
  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const NodeId v = ready.top();
    ready.pop();
    order.push_back(v);
    for (const HalfEdge& h : g.out_half(v)) {
      if (--indeg[h.node] == 0) {
        ready.push(h.node);
      }
    }
  }
  if (order.size() != n) {
    return std::nullopt;
  }
  return order;
}

bool is_acyclic(const Digraph& g) { return topological_order(g).has_value(); }

std::vector<std::uint32_t> asap_levels(const Digraph& g) {
  const auto order = topological_order(g);
  RDSE_REQUIRE(order.has_value(), "asap_levels: graph is cyclic");
  std::vector<std::uint32_t> level(g.node_count(), 0);
  for (NodeId v : *order) {
    for (const HalfEdge& h : g.out_half(v)) {
      level[h.node] = std::max(level[h.node], level[v] + 1);
    }
  }
  return level;
}

std::vector<NodeId> source_nodes(const Digraph& g) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (g.in_degree(v) == 0) out.push_back(v);
  }
  return out;
}

std::vector<NodeId> sink_nodes(const Digraph& g) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (g.out_degree(v) == 0) out.push_back(v);
  }
  return out;
}

bool reaches(const Digraph& g, NodeId from, NodeId to) {
  if (from == to) return true;
  std::vector<bool> seen(g.node_count(), false);
  std::vector<NodeId> stack{from};
  seen[from] = true;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (const HalfEdge& h : g.out_half(v)) {
      const NodeId w = h.node;
      if (w == to) return true;
      if (!seen[w]) {
        seen[w] = true;
        stack.push_back(w);
      }
    }
  }
  return false;
}

}  // namespace rdse
