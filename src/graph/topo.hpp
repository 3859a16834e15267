#pragma once
/// \file topo.hpp
/// \brief Topological analysis of the (search) graph: Kahn ordering, cycle
/// detection, ASAP levels, reachability.

#include <optional>
#include <vector>

#include "graph/digraph.hpp"

namespace rdse {

/// Kahn topological sort. Returns the order, or std::nullopt if the graph
/// contains a cycle. Ties are broken by smallest node id so the order is
/// deterministic.
[[nodiscard]] std::optional<std::vector<NodeId>> topological_order(
    const Digraph& g);

/// True iff the graph is acyclic.
[[nodiscard]] bool is_acyclic(const Digraph& g);

/// ASAP level of each node: 0 for sources, 1 + max(level of predecessors)
/// otherwise. Throws rdse::Error on cyclic input.
[[nodiscard]] std::vector<std::uint32_t> asap_levels(const Digraph& g);

/// Nodes with no incoming / no outgoing live edges.
[[nodiscard]] std::vector<NodeId> source_nodes(const Digraph& g);
[[nodiscard]] std::vector<NodeId> sink_nodes(const Digraph& g);

/// DFS reachability: true iff a path from `from` to `to` exists. O(V + E)
/// per query: TaskGraph::add_comm's cycle check uses it; the annealer's
/// cycle test certifies acyclicity with rank repair instead.
[[nodiscard]] bool reaches(const Digraph& g, NodeId from, NodeId to);

}  // namespace rdse
