/// Tests for the §3.3/§4.3 search-graph realization: Esw/Ehw edges,
/// context boundaries, reconfiguration weights and release times.

#include <gtest/gtest.h>

#include "graph/topo.hpp"
#include "mapping/search_graph.hpp"

namespace rdse {
namespace {

Task hw_task(const std::string& name, double ms, std::int32_t clbs,
             double speedup = 4.0) {
  Task t;
  t.name = name;
  t.functionality = "F";
  t.sw_time = from_ms(ms);
  t.hw = make_pareto_impls(t.sw_time, clbs, speedup, 3);
  return t;
}

/// Fixture: 4-task chain a->b->c->d, CPU + 200-CLB FPGA, 1 KB/ms bus.
class SearchGraphFixture : public ::testing::Test {
 protected:
  SearchGraphFixture()
      : arch(make_cpu_fpga_architecture(200, from_us(22.5), 1'000'000)) {
    a = tg.add_task(hw_task("a", 2.0, 50));
    b = tg.add_task(hw_task("b", 4.0, 50));
    c = tg.add_task(hw_task("c", 6.0, 50));
    d = tg.add_task(hw_task("d", 1.0, 50));
    tg.add_comm(a, b, 1000);
    tg.add_comm(b, c, 2000);
    tg.add_comm(c, d, 3000);
  }
  TaskGraph tg;
  Architecture arch;
  TaskId a{}, b{}, c{}, d{};
};

TEST_F(SearchGraphFixture, AllSoftwareHasOnlySeqEdgesAndSwWeights) {
  const Solution sol = Solution::all_software(tg, 0);
  const SearchGraph sg = build_search_graph(tg, arch, sol);
  // 3 comm edges + 3 sequentialization edges.
  EXPECT_EQ(sg.graph.edge_count(), 6u);
  for (EdgeId e = 0; e < tg.comm_count(); ++e) {
    EXPECT_EQ(sg.graph.edge_weight(e), 0)
        << "same-resource transfer must be free";
    EXPECT_EQ(sg.edge_kind[e], SearchEdgeKind::kComm);
  }
  for (TaskId t = 0; t < 4; ++t) {
    EXPECT_EQ(sg.node_weight[t], tg.task(t).sw_time);
    EXPECT_EQ(sg.release[t], 0);
  }
  EXPECT_EQ(sg.init_reconfig, 0);
  EXPECT_EQ(sg.dyn_reconfig, 0);
  EXPECT_EQ(sg.comm_cross, 0);
}

TEST_F(SearchGraphFixture, CrossingEdgeGetsBusWeight) {
  Solution sol(tg.task_count());
  sol.insert_on_processor(a, 0, 0);
  sol.insert_on_processor(c, 0, 1);
  sol.insert_on_processor(d, 0, 2);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(b, 1, ctx, 0, tg.task(b).hw.at(0).clbs);

  const SearchGraph sg = build_search_graph(tg, arch, sol);
  // a->b crosses (1000 bytes at 1 byte/us = 1 ms), b->c crosses (2 ms),
  // c->d stays on the processor.
  EXPECT_EQ(sg.graph.edge_weight(0), from_ms(1.0));
  EXPECT_EQ(sg.graph.edge_weight(1), from_ms(2.0));
  EXPECT_EQ(sg.graph.edge_weight(2), 0);
  EXPECT_EQ(sg.comm_cross, from_ms(3.0));
  // b runs its chosen hardware implementation.
  EXPECT_EQ(sg.node_weight[b], tg.task(b).hw.at(0).time);
}

TEST_F(SearchGraphFixture, FirstContextReleaseEqualsInitialReconfig) {
  Solution sol(tg.task_count());
  sol.insert_on_processor(c, 0, 0);
  sol.insert_on_processor(d, 0, 1);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(a, 1, ctx, 0, tg.task(a).hw.at(0).clbs);  // 50 CLBs
  sol.insert_in_context(b, 1, ctx, 1, tg.task(b).hw.at(1).clbs);  // 75 CLBs
  const SearchGraph sg = build_search_graph(tg, arch, sol);
  const TimeNs expected = arch.reconfigurable(1).reconfiguration_time(125);
  EXPECT_EQ(sg.init_reconfig, expected);
  EXPECT_EQ(sg.dyn_reconfig, 0);
  // a is the initial node of C1 (b has an in-context predecessor a).
  EXPECT_EQ(sg.release[a], expected);
  EXPECT_EQ(sg.release[b], 0);
}

TEST_F(SearchGraphFixture, ContextSequentializationEdges) {
  Solution sol(tg.task_count());
  sol.insert_on_processor(d, 0, 0);
  const std::size_t c0 = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(a, 1, c0, 0, tg.task(a).hw.at(0).clbs);
  sol.insert_in_context(b, 1, c0, 0, tg.task(b).hw.at(0).clbs);
  const std::size_t c1 = sol.spawn_context_after(1, c0);
  sol.insert_in_context(c, 1, c1, 0, tg.task(c).hw.at(0).clbs);

  const SearchGraph sg = build_search_graph(tg, arch, sol);
  const TimeNs reconf = arch.reconfigurable(1).reconfiguration_time(50);
  EXPECT_EQ(sg.dyn_reconfig, reconf);
  // Terminal of C0 is b (a precedes b in-context); initial of C1 is c.
  bool found = false;
  for (EdgeId e = 0; e < sg.graph.edge_capacity(); ++e) {
    if (!sg.graph.edge_alive(e)) continue;
    if (sg.edge_kind[e] != SearchEdgeKind::kHwSeq) continue;
    EXPECT_EQ(sg.graph.edge(e).src, b);
    EXPECT_EQ(sg.graph.edge(e).dst, c);
    EXPECT_EQ(sg.graph.edge_weight(e), reconf);
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(SearchGraphFixture, ContextBoundaryComputation) {
  Solution sol(tg.task_count());
  sol.insert_on_processor(d, 0, 0);
  const std::size_t c0 = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(a, 1, c0, 0, tg.task(a).hw.at(0).clbs);
  sol.insert_in_context(b, 1, c0, 0, tg.task(b).hw.at(0).clbs);
  sol.insert_in_context(c, 1, c0, 0, tg.task(c).hw.at(0).clbs);
  const ContextBoundary bd = context_boundary(tg, sol, 1, c0);
  EXPECT_EQ(bd.initials, (std::vector<TaskId>{a}));
  EXPECT_EQ(bd.terminals, (std::vector<TaskId>{c}));
}

TEST_F(SearchGraphFixture, ParallelTasksAreBothInitialAndTerminal) {
  TaskGraph forked;
  const TaskId r = forked.add_task(hw_task("r", 1.0, 20));
  const TaskId x = forked.add_task(hw_task("x", 1.0, 20));
  const TaskId y = forked.add_task(hw_task("y", 1.0, 20));
  forked.add_comm(r, x, 10);
  forked.add_comm(r, y, 10);
  Solution sol(forked.task_count());
  sol.insert_on_processor(r, 0, 0);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(x, 1, ctx, 0, forked.task(x).hw.at(0).clbs);
  sol.insert_in_context(y, 1, ctx, 0, forked.task(y).hw.at(0).clbs);
  const ContextBoundary bd = context_boundary(forked, sol, 1, ctx);
  EXPECT_EQ(bd.initials.size(), 2u);
  EXPECT_EQ(bd.terminals.size(), 2u);
}

TEST_F(SearchGraphFixture, SwSeqEdgesFollowChosenOrder) {
  Solution sol(tg.task_count());
  // Feasible non-topological insertion order, topological execution order.
  sol.insert_on_processor(b, 0, 0);
  sol.insert_on_processor(a, 0, 0);
  sol.insert_on_processor(c, 0, 2);
  sol.insert_on_processor(d, 0, 3);
  const SearchGraph sg = build_search_graph(tg, arch, sol);
  int sw_edges = 0;
  for (EdgeId e = 0; e < sg.graph.edge_capacity(); ++e) {
    if (sg.graph.edge_alive(e) && sg.edge_kind[e] == SearchEdgeKind::kSwSeq) {
      ++sw_edges;
      EXPECT_EQ(sg.graph.edge_weight(e), 0);
    }
  }
  EXPECT_EQ(sw_edges, 3);
  EXPECT_TRUE(is_acyclic(sg.graph));
}

TEST_F(SearchGraphFixture, InfeasibleOrderRealizesCyclicGraph) {
  Solution sol(tg.task_count());
  sol.insert_on_processor(b, 0, 0);  // b before a although a -> b
  sol.insert_on_processor(a, 0, 1);
  sol.insert_on_processor(c, 0, 2);
  sol.insert_on_processor(d, 0, 3);
  const SearchGraph sg = build_search_graph(tg, arch, sol);
  EXPECT_FALSE(is_acyclic(sg.graph));
}

TEST_F(SearchGraphFixture, CrossContextTransferChargedOnBus) {
  Solution sol(tg.task_count());
  sol.insert_on_processor(c, 0, 0);
  sol.insert_on_processor(d, 0, 1);
  const std::size_t c0 = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(a, 1, c0, 0, tg.task(a).hw.at(0).clbs);
  const std::size_t c1 = sol.spawn_context_after(1, c0);
  sol.insert_in_context(b, 1, c1, 0, tg.task(b).hw.at(0).clbs);
  const SearchGraph sg = build_search_graph(tg, arch, sol);
  // a->b crosses contexts: staged through shared memory.
  EXPECT_EQ(sg.graph.edge_weight(0), from_ms(1.0));
}

TEST_F(SearchGraphFixture, UnassignedTaskThrows) {
  Solution sol(tg.task_count());
  sol.insert_on_processor(a, 0, 0);
  EXPECT_THROW((void)build_search_graph(tg, arch, sol), Error);
}

}  // namespace
}  // namespace rdse
