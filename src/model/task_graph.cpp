#include "model/task_graph.hpp"

#include <set>

#include "graph/topo.hpp"
#include "util/assert.hpp"

namespace rdse {

TaskId TaskGraph::add_task(Task task) {
  RDSE_REQUIRE(task.sw_time > 0, "TaskGraph: task '" + task.name +
                                     "' must have a positive software time");
  tasks_.push_back(std::move(task));
  const NodeId node = graph_.add_node();
  RDSE_ASSERT(node == tasks_.size() - 1);
  return node;
}

EdgeId TaskGraph::add_comm(TaskId src, TaskId dst, std::int64_t bytes) {
  RDSE_REQUIRE(src < task_count() && dst < task_count(),
               "TaskGraph::add_comm: task id out of range");
  RDSE_REQUIRE(bytes >= 0, "TaskGraph::add_comm: negative byte count");
  RDSE_REQUIRE(!graph_.has_edge(src, dst),
               "TaskGraph::add_comm: duplicate edge");
  RDSE_REQUIRE(!reaches(graph_, dst, src),
               "TaskGraph::add_comm: edge would create a cycle");
  const EdgeId id = graph_.add_edge(src, dst);
  comms_.push_back(CommEdge{src, dst, bytes});
  RDSE_ASSERT(id == comms_.size() - 1);
  return id;
}

void TaskGraph::adopt_comms(Digraph graph,
                            std::span<const std::int64_t> bytes) {
  RDSE_REQUIRE(comms_.empty(),
               "TaskGraph::adopt_comms: communication edges already added");
  RDSE_REQUIRE(graph.edge_count() == graph.edge_capacity() &&
                   bytes.size() == graph.edge_capacity(),
               "TaskGraph::adopt_comms: need dense edge ids and one byte "
               "count per edge");
  for (EdgeId e = 0; e < graph.edge_capacity(); ++e) {
    const Digraph::Edge& ed = graph.edge(e);
    RDSE_REQUIRE(ed.src < task_count() && ed.dst < task_count(),
                 "TaskGraph::add_comm: task id out of range");
    RDSE_REQUIRE(bytes[e] >= 0, "TaskGraph::add_comm: negative byte count");
    RDSE_REQUIRE(graph.edge_weight(e) == 0,
                 "TaskGraph::adopt_comms: edges must carry weight 0");
  }
  RDSE_REQUIRE(graph.node_count() == task_count(),
               "TaskGraph::adopt_comms: graph must have one node per task");
  // Duplicates: stamp each node's successors with the node; meeting a
  // successor already stamped by the same node is a parallel edge.
  std::vector<NodeId> stamp(task_count(), kInvalidNode);
  for (NodeId u = 0; u < task_count(); ++u) {
    for (const HalfEdge& h : graph.out_half(u)) {
      RDSE_REQUIRE(stamp[h.node] != u, "TaskGraph::add_comm: duplicate edge");
      stamp[h.node] = u;
    }
  }
  RDSE_REQUIRE(is_acyclic(graph),
               "TaskGraph::add_comm: edge would create a cycle");

  comms_.reserve(graph.edge_capacity());
  for (EdgeId e = 0; e < graph.edge_capacity(); ++e) {
    const Digraph::Edge& ed = graph.edge(e);
    comms_.push_back(CommEdge{ed.src, ed.dst, bytes[e]});
  }
  graph_ = std::move(graph);
}

TimeNs TaskGraph::total_sw_time() const {
  TimeNs total = 0;
  for (const Task& t : tasks_) {
    total += t.sw_time;
  }
  return total;
}

std::size_t TaskGraph::hw_capable_count() const {
  std::size_t n = 0;
  for (const Task& t : tasks_) {
    n += t.hw_capable() ? 1 : 0;
  }
  return n;
}

void TaskGraph::validate() const {
  RDSE_REQUIRE(task_count() > 0, "TaskGraph: no tasks");
  RDSE_REQUIRE(is_acyclic(graph_), "TaskGraph: precedence graph is cyclic");
  std::set<std::string> names;
  for (const Task& t : tasks_) {
    RDSE_REQUIRE(!t.name.empty(), "TaskGraph: task with empty name");
    RDSE_REQUIRE(names.insert(t.name).second,
                 "TaskGraph: duplicate task name '" + t.name + "'");
    RDSE_REQUIRE(t.sw_time > 0,
                 "TaskGraph: task '" + t.name + "' has non-positive sw time");
  }
  for (const CommEdge& c : comms_) {
    RDSE_REQUIRE(c.src < task_count() && c.dst < task_count(),
                 "TaskGraph: dangling communication edge");
    RDSE_REQUIRE(c.bytes >= 0, "TaskGraph: negative transfer size");
  }
}

}  // namespace rdse
