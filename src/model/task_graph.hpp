#pragma once
/// \file task_graph.hpp
/// \brief The application model of §3.1: an acyclic precedence graph
/// G = <V, E> of coarse-grain tasks.
///
/// Each node carries a functionality name, an estimated software execution
/// time tsw, and a Pareto set of hardware implementations (CLB count C(v) and
/// hardware time thw per implementation). Each edge carries the amount of
/// data transferred q_ij; the actual transfer time depends on the
/// communication link (arch/bus.hpp).
///
/// Hand-built graphs add edges one at a time (add_comm, checked per edge);
/// generated ones hand over the whole edge set at once (adopt_comms, one
/// O(V + E) check), which is what keeps building synthetic:5000's 405 439
/// edges cheap.

#include <span>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "model/implementation.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace rdse {

using TaskId = NodeId;

/// One coarse-grain computation node.
struct Task {
  std::string name;           ///< unique instance name ("erosion")
  std::string functionality;  ///< function kind ("ERO"); F(v) in the paper
  TimeNs sw_time = 0;         ///< execution time estimate on the processor
  ImplementationSet hw;       ///< area/time points; empty = software-only

  [[nodiscard]] bool hw_capable() const { return !hw.empty(); }
};

/// One data dependency; its index equals the EdgeId in digraph().
struct CommEdge {
  TaskId src = kInvalidNode;
  TaskId dst = kInvalidNode;
  std::int64_t bytes = 0;  ///< q_ij, amount of data transferred
};

/// Immutable-after-build application graph with validation.
class TaskGraph {
 public:
  /// Add a task; returns its id (dense, insertion order).
  TaskId add_task(Task task);

  /// Add a data dependency src -> dst carrying `bytes` of data. At most one
  /// communication edge per ordered pair. Throws if it closes a cycle.
  EdgeId add_comm(TaskId src, TaskId dst, std::int64_t bytes);

  /// Bulk insert for generated graphs: adopt `graph` — edges over this
  /// graph's tasks with dense ids 0..E-1, weight 0 — as the precedence
  /// graph, edge e carrying bytes[e] (so comm e is graph edge e). The task
  /// graph must have no communication edges yet. Runs add_comm's checks
  /// with its messages in one O(V + E) pass: a per-node stamp finds
  /// duplicates and one topological sort finds cycles, where add_comm pays
  /// an adjacency scan and a DFS per edge. A rejected batch leaves the task
  /// graph unchanged.
  void adopt_comms(Digraph graph, std::span<const std::int64_t> bytes);

  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  [[nodiscard]] std::size_t comm_count() const { return comms_.size(); }
  // Inner loops of evaluation resolve tasks and transfers per edge; keep
  // these call-free.
  [[nodiscard]] const Task& task(TaskId id) const {
    RDSE_REQUIRE(id < tasks_.size(), "TaskGraph::task: id out of range");
    return tasks_[id];
  }
  [[nodiscard]] const CommEdge& comm(EdgeId id) const {
    RDSE_REQUIRE(id < comms_.size(), "TaskGraph::comm: id out of range");
    return comms_[id];
  }
  [[nodiscard]] const Digraph& digraph() const { return graph_; }

  /// Sum of software times over all tasks: the software-only makespan on a
  /// single processor (ignoring intra-processor communication, which is
  /// free) — the paper's 76.4 ms reference point.
  [[nodiscard]] TimeNs total_sw_time() const;

  /// Number of hardware-capable tasks.
  [[nodiscard]] std::size_t hw_capable_count() const;

  /// Full structural validation (acyclicity, positive times, unique names);
  /// throws rdse::Error with a description on failure.
  void validate() const;

 private:
  std::vector<Task> tasks_;
  std::vector<CommEdge> comms_;
  Digraph graph_;
};

/// A complete benchmark application: graph plus its real-time constraint.
struct Application {
  std::string name;
  TaskGraph graph;
  TimeNs deadline = 0;  ///< performance constraint (0 = none)
};

}  // namespace rdse
