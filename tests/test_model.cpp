/// Tests for the application model: implementations, tasks, task graphs,
/// synthetic generators, and the named-model registry.

#include <gtest/gtest.h>

#include <string>

#include "model/generators.hpp"
#include "model/registry.hpp"
#include "model/task_graph.hpp"
#include "util/hash.hpp"

namespace rdse {
namespace {

TEST(ImplementationSet, ParetoFiltersDominated) {
  auto set = ImplementationSet::pareto({
      {100, from_ms(1.0)},
      {50, from_ms(2.0)},
      {150, from_ms(1.5)},  // dominated by (100, 1.0)
      {200, from_ms(0.5)},
  });
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.at(0).clbs, 50);
  EXPECT_EQ(set.at(1).clbs, 100);
  EXPECT_EQ(set.at(2).clbs, 200);
}

TEST(ImplementationSet, SameAreaKeepsFaster) {
  auto set = ImplementationSet::pareto({
      {50, from_ms(2.0)},
      {50, from_ms(1.0)},
  });
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.at(0).time, from_ms(1.0));
}

TEST(ImplementationSet, SortedAndStrictlyImproving) {
  auto set = ImplementationSet::pareto({
      {10, 1000}, {20, 900}, {40, 500}, {80, 100},
  });
  for (std::size_t i = 1; i < set.size(); ++i) {
    EXPECT_GT(set.at(i).clbs, set.at(i - 1).clbs);
    EXPECT_LT(set.at(i).time, set.at(i - 1).time);
  }
}

TEST(ImplementationSet, BestUnderArea) {
  auto set = ImplementationSet::pareto({{10, 1000}, {40, 500}, {80, 100}});
  EXPECT_EQ(set.best_under_area(5), std::nullopt);
  EXPECT_EQ(set.best_under_area(10), std::size_t{0});
  EXPECT_EQ(set.best_under_area(79), std::size_t{1});
  EXPECT_EQ(set.best_under_area(1000), std::size_t{2});
  EXPECT_EQ(set.smallest(), 0u);
  EXPECT_EQ(set.fastest(), 2u);
  EXPECT_EQ(set.min_clbs(), 10);
}

TEST(ImplementationSet, RejectsNonPositive) {
  EXPECT_THROW((void)ImplementationSet::pareto({{0, 100}}), Error);
  EXPECT_THROW((void)ImplementationSet::pareto({{10, 0}}), Error);
}

TEST(ImplementationSet, EmptyBehaviour) {
  ImplementationSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.min_clbs(), INT32_MAX);
  EXPECT_THROW((void)set.smallest(), Error);
  EXPECT_THROW((void)set.at(0), Error);
}

TEST(MakeParetoImpls, GeneratesRequestedCount) {
  const auto set = make_pareto_impls(from_ms(5.0), 40, 8.0, 6);
  EXPECT_EQ(set.size(), 6u);
  EXPECT_EQ(set.at(0).clbs, 40);
  // Speedup of smallest implementation is the base speedup.
  EXPECT_NEAR(to_ms(set.at(0).time), 5.0 / 8.0, 1e-6);
}

TEST(MakeParetoImpls, LargerIsFaster) {
  const auto set = make_pareto_impls(from_ms(5.0), 40, 8.0, 5, 1.7, 0.55);
  for (std::size_t i = 1; i < set.size(); ++i) {
    EXPECT_GT(set.at(i).clbs, set.at(i - 1).clbs);
    EXPECT_LT(set.at(i).time, set.at(i - 1).time);
  }
}

TEST(MakeParetoImpls, RejectsBadParameters) {
  EXPECT_THROW((void)make_pareto_impls(0, 40, 8.0, 5), Error);
  EXPECT_THROW((void)make_pareto_impls(from_ms(1), 0, 8.0, 5), Error);
  EXPECT_THROW((void)make_pareto_impls(from_ms(1), 40, 0.5, 5), Error);
  EXPECT_THROW((void)make_pareto_impls(from_ms(1), 40, 8.0, 0), Error);
  EXPECT_THROW((void)make_pareto_impls(from_ms(1), 40, 8.0, 5, 1.0), Error);
}

Task simple_task(const std::string& name, double ms) {
  Task t;
  t.name = name;
  t.functionality = "F";
  t.sw_time = from_ms(ms);
  return t;
}

TEST(TaskGraph, BuildAndQuery) {
  TaskGraph g;
  const TaskId a = g.add_task(simple_task("a", 1.0));
  const TaskId b = g.add_task(simple_task("b", 2.0));
  const EdgeId e = g.add_comm(a, b, 512);
  EXPECT_EQ(g.task_count(), 2u);
  EXPECT_EQ(g.comm_count(), 1u);
  EXPECT_EQ(g.comm(e).bytes, 512);
  EXPECT_EQ(g.total_sw_time(), from_ms(3.0));
  EXPECT_EQ(g.hw_capable_count(), 0u);
  g.validate();
}

TEST(TaskGraph, CommEdgeIdsMatchDigraph) {
  TaskGraph g;
  const TaskId a = g.add_task(simple_task("a", 1.0));
  const TaskId b = g.add_task(simple_task("b", 1.0));
  const TaskId c = g.add_task(simple_task("c", 1.0));
  EXPECT_EQ(g.add_comm(a, b, 1), 0u);
  EXPECT_EQ(g.add_comm(b, c, 1), 1u);
  EXPECT_TRUE(g.digraph().has_edge(a, b));
}

TEST(TaskGraph, RejectsCycleAndDuplicates) {
  TaskGraph g;
  const TaskId a = g.add_task(simple_task("a", 1.0));
  const TaskId b = g.add_task(simple_task("b", 1.0));
  g.add_comm(a, b, 1);
  EXPECT_THROW((void)g.add_comm(b, a, 1), Error);  // cycle
  EXPECT_THROW((void)g.add_comm(a, b, 1), Error);  // duplicate
  EXPECT_THROW((void)g.add_comm(a, 9, 1), Error);  // dangling
  EXPECT_THROW((void)g.add_comm(a, b, -1), Error); // negative size
}

/// Error message of `op`, or "" when it does not throw.
template <typename Op>
std::string error_of(Op op) {
  try {
    op();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// Three tasks a, b, c with no communication edges yet.
TaskGraph three_tasks() {
  TaskGraph g;
  g.add_task(simple_task("a", 1.0));
  g.add_task(simple_task("b", 1.0));
  g.add_task(simple_task("c", 1.0));
  return g;
}

TEST(TaskGraph, AdoptCommsMatchesAddComm) {
  TaskGraph bulk = three_tasks();
  Digraph edges(3);
  (void)edges.add_edge(0, 1);
  (void)edges.add_edge(1, 2);
  (void)edges.add_edge(0, 2);
  const std::int64_t bytes[] = {10, 20, 30};
  bulk.adopt_comms(edges, bytes);
  TaskGraph one_by_one = three_tasks();
  (void)one_by_one.add_comm(0, 1, 10);
  (void)one_by_one.add_comm(1, 2, 20);
  (void)one_by_one.add_comm(0, 2, 30);
  ASSERT_EQ(bulk.comm_count(), 3u);
  for (EdgeId e = 0; e < 3; ++e) {
    EXPECT_EQ(bulk.comm(e).src, one_by_one.comm(e).src);
    EXPECT_EQ(bulk.comm(e).dst, one_by_one.comm(e).dst);
    EXPECT_EQ(bulk.comm(e).bytes, one_by_one.comm(e).bytes);
    EXPECT_EQ(bulk.digraph().edge(e).src, bulk.comm(e).src);
    EXPECT_EQ(bulk.digraph().edge(e).dst, bulk.comm(e).dst);
  }
  bulk.validate();
  // Hand-built graphs keep growing one edge at a time afterwards.
  const TaskId d = bulk.add_task(simple_task("d", 1.0));
  EXPECT_EQ(bulk.add_comm(2, d, 5), 3u);
  EXPECT_EQ(error_of([&] { (void)bulk.add_comm(0, 1, 1); }),
            "TaskGraph::add_comm: duplicate edge");
}

TEST(TaskGraph, AdoptCommsRejectsABadBatchWithAddCommsMessage) {
  struct Case {
    const char* what;
    std::size_t nodes;
    std::vector<std::pair<NodeId, NodeId>> edges;
    std::vector<std::int64_t> bytes;
    const char* message;
  };
  const Case cases[] = {
      {"duplicate", 3, {{0, 1}, {1, 2}, {0, 1}}, {1, 1, 1},
       "TaskGraph::add_comm: duplicate edge"},
      {"cycle", 3, {{0, 1}, {1, 2}, {2, 0}}, {1, 1, 1},
       "TaskGraph::add_comm: edge would create a cycle"},
      {"dangling", 4, {{0, 1}, {2, 3}}, {1, 1},
       "TaskGraph::add_comm: task id out of range"},
      {"negative bytes", 3, {{0, 1}, {1, 2}}, {1, -1},
       "TaskGraph::add_comm: negative byte count"},
  };
  for (const Case& c : cases) {
    // add_comm's verdict on the same edges, one at a time ...
    TaskGraph sequential = three_tasks();
    std::string want;
    for (std::size_t i = 0; i < c.edges.size() && want.empty(); ++i) {
      want = error_of([&] {
        (void)sequential.add_comm(c.edges[i].first, c.edges[i].second,
                                  c.bytes[i]);
      });
    }
    EXPECT_EQ(want, c.message) << c.what;
    // ... is the batch's, and the batch leaves the graph as it was.
    TaskGraph bulk = three_tasks();
    Digraph edges(c.nodes);
    for (const auto& [src, dst] : c.edges) (void)edges.add_edge(src, dst);
    EXPECT_EQ(error_of([&] { bulk.adopt_comms(edges, c.bytes); }),
              c.message)
        << c.what;
    EXPECT_EQ(bulk.comm_count(), 0u) << c.what;
    EXPECT_EQ(bulk.digraph().edge_count(), 0u) << c.what;
    EXPECT_EQ(bulk.digraph().node_count(), 3u) << c.what;
    bulk.digraph().check_consistency();
    (void)bulk.add_comm(0, 1, 1);  // still usable
    EXPECT_EQ(bulk.comm_count(), 1u) << c.what;
  }
}

TEST(TaskGraph, RejectsBadTasks) {
  TaskGraph g;
  EXPECT_THROW((void)g.add_task(simple_task("zero", 0.0)), Error);
}

TEST(TaskGraph, ValidateCatchesDuplicateNames) {
  TaskGraph g;
  g.add_task(simple_task("same", 1.0));
  g.add_task(simple_task("same", 1.0));
  EXPECT_THROW(g.validate(), Error);
}

TEST(TaskGraph, ValidateCatchesEmpty) {
  TaskGraph g;
  EXPECT_THROW(g.validate(), Error);
}

class RandomAppGen : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomAppGen, ProducesValidApplications) {
  Rng rng(GetParam());
  AppGenParams params;
  params.dag.node_count = 40;
  params.dag.max_width = 5;
  params.hw_capable_fraction = 0.8;
  const Application app = random_application(params, rng);
  app.graph.validate();
  EXPECT_EQ(app.graph.task_count(), 40u);
  EXPECT_GT(app.deadline, 0);
  // Deadline is half the software time by default.
  EXPECT_NEAR(to_ms(app.deadline), to_ms(app.graph.total_sw_time()) * 0.5,
              1e-6);
  // Roughly the requested fraction of tasks is hardware-capable.
  const auto hw = app.graph.hw_capable_count();
  EXPECT_GT(hw, 20u);
  EXPECT_LE(hw, 40u);
  // Every Pareto set has 5 or 6 points.
  for (TaskId t = 0; t < app.graph.task_count(); ++t) {
    const auto& impls = app.graph.task(t).hw;
    if (!impls.empty()) {
      EXPECT_GE(impls.size(), 5u);
      EXPECT_LE(impls.size(), 6u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAppGen,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(ModelRegistry, CanonicalNamesCollapseAliasesAndPadding) {
  EXPECT_EQ(canonical_model_name("motion"), "motion");
  EXPECT_EQ(canonical_model_name("motion_detection"), "motion");
  EXPECT_EQ(canonical_model_name("synthetic:120"), "synthetic:120");
  EXPECT_EQ(canonical_model_name("synthetic:0120"), "synthetic:120");
  EXPECT_THROW((void)canonical_model_name("warp"), Error);
  EXPECT_THROW((void)canonical_model_name("synthetic:"), Error);
  EXPECT_THROW((void)canonical_model_name("synthetic:1"), Error);      // < 2
  EXPECT_THROW((void)canonical_model_name("synthetic:5001"), Error);   // > max
  EXPECT_THROW((void)canonical_model_name("synthetic:12x"), Error);
  EXPECT_THROW((void)canonical_model_name("synthetic:-3"), Error);
}

TEST(ModelRegistry, MotionAliasLoadsTheSameApplication) {
  const ModelSpec a = load_model_spec("motion");
  const ModelSpec b = load_model_spec("motion_detection");
  EXPECT_EQ(a.app.name, b.app.name);
  EXPECT_EQ(a.app.graph.task_count(), b.app.graph.task_count());
  EXPECT_EQ(a.tr_per_clb, b.tr_per_clb);
  EXPECT_EQ(a.bus_bytes_per_second, b.bus_bytes_per_second);
}

TEST(ModelRegistry, SyntheticFamilyIsDeterministicPerSize) {
  const ModelSpec a = load_model_spec("synthetic:40");
  const ModelSpec b = load_model_spec("synthetic:0040");
  ASSERT_EQ(a.app.graph.task_count(), 40u);
  EXPECT_EQ(a.app.name, "synthetic:40");
  EXPECT_EQ(b.app.graph.task_count(), 40u);
  for (TaskId t = 0; t < a.app.graph.task_count(); ++t) {
    EXPECT_EQ(a.app.graph.task(t).sw_time, b.app.graph.task(t).sw_time);
  }
  EXPECT_EQ(a.app.deadline, b.app.deadline);
  // Distinct sizes are distinct applications with their own deadline.
  const ModelSpec c = load_model_spec("synthetic:41");
  EXPECT_EQ(c.app.graph.task_count(), 41u);
  EXPECT_NE(c.app.deadline, a.app.deadline);
}

TEST(ModelRegistry, UnknownModelNamesTheKnownSet) {
  try {
    (void)load_model_spec("sobel");
    FAIL() << "load_model_spec accepted an unknown name";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("synthetic:<tasks>"),
              std::string::npos);
  }
}

/// Every comm (src, dst, bytes) in id order, then every task's software
/// time and implementations, one line each.
std::uint64_t model_fingerprint(const TaskGraph& tg) {
  std::string text;
  for (EdgeId e = 0; e < tg.comm_count(); ++e) {
    const CommEdge& c = tg.comm(e);
    text += std::to_string(c.src) + ' ' + std::to_string(c.dst) + ' ' +
            std::to_string(c.bytes) + '\n';
  }
  for (TaskId t = 0; t < tg.task_count(); ++t) {
    const Task& task = tg.task(t);
    text += std::to_string(task.sw_time);
    for (const HwImplementation& h : task.hw.all()) {
      text += ' ' + std::to_string(h.clbs) + ':' + std::to_string(h.time);
    }
    text += '\n';
  }
  return fnv1a64(text);
}

TEST(ModelRegistry, SyntheticModelsArePinned) {
  // Fingerprints of the models as the per-edge add_comm generator built
  // them: the bulk insert must keep every synthetic:N bit-identical.
  struct Pin {
    const char* name;
    std::size_t comms;
    std::uint64_t fingerprint;
  };
  const Pin pins[] = {
      {"synthetic:120", 336, 0x411d10f65838895fULL},
      {"synthetic:1000", 21823, 0xa782b97d1667afb3ULL},
      {"synthetic:5000", 405439, 0x40fafb5f1a086617ULL},
  };
  for (const Pin& pin : pins) {
    const ModelSpec spec = load_model_spec(pin.name);
    EXPECT_EQ(spec.app.graph.comm_count(), pin.comms) << pin.name;
    EXPECT_EQ(model_fingerprint(spec.app.graph), pin.fingerprint) << pin.name;
    const Digraph& g = spec.app.graph.digraph();
    EXPECT_EQ(g.edge_count(), pin.comms) << pin.name;
    for (EdgeId e = 0; e < spec.app.graph.comm_count(); e += 97) {
      EXPECT_EQ(g.edge(e).src, spec.app.graph.comm(e).src) << pin.name;
      EXPECT_EQ(g.edge(e).dst, spec.app.graph.comm(e).dst) << pin.name;
    }
  }
}

TEST(RandomAppGen, Deterministic) {
  AppGenParams params;
  params.dag.node_count = 15;
  Rng r1(9), r2(9);
  const Application a = random_application(params, r1);
  const Application b = random_application(params, r2);
  ASSERT_EQ(a.graph.task_count(), b.graph.task_count());
  for (TaskId t = 0; t < a.graph.task_count(); ++t) {
    EXPECT_EQ(a.graph.task(t).sw_time, b.graph.task(t).sw_time);
  }
  EXPECT_EQ(a.deadline, b.deadline);
}

}  // namespace
}  // namespace rdse
