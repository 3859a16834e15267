/// Tests for the unified mapper portfolio: the registry, the HEFT/PEFT
/// cost tables against hand-computed values, the cross-mapper validity and
/// determinism properties, and the `rdse bench` matrix artifacts.

#include <gtest/gtest.h>

#include <string>

#include "baseline/heft.hpp"
#include "baseline/mapper.hpp"
#include "baseline/peft.hpp"
#include "core/report.hpp"
#include "core/sweep_engine.hpp"
#include "mapping/validation.hpp"
#include "model/generators.hpp"
#include "model/motion_detection.hpp"

namespace rdse {
namespace {

TEST(MapperRegistry, NamesRoundTripThroughTheFactory) {
  EXPECT_GE(mapper_names().size(), 8u);
  for (const std::string& name : mapper_names()) {
    EXPECT_TRUE(is_known_mapper(name));
    EXPECT_NE(known_mapper_names().find(name), std::string::npos);
    const auto mapper = make_mapper(name);
    EXPECT_EQ(name, mapper->name());
  }
}

TEST(MapperRegistry, UnknownNamesFailNamingTheKnownSet) {
  EXPECT_FALSE(is_known_mapper("simulated-bogosort"));
  try {
    (void)make_mapper("simulated-bogosort");
    FAIL() << "make_mapper accepted an unknown name";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("heft"), std::string::npos);
  }
  EXPECT_THROW((void)mapper_is_deterministic("simulated-bogosort"), Error);
}

TEST(MapperRegistry, DeterminismFlagsMatchTheDesign) {
  for (const char* name : {"heft", "peft", "list_scheduler", "clustering"}) {
    EXPECT_TRUE(mapper_is_deterministic(name)) << name;
  }
  for (const char* name : {"anneal", "ga", "random", "hill_climb"}) {
    EXPECT_FALSE(mapper_is_deterministic(name)) << name;
  }
}

/// Diamond a -> {b, c} -> d on a 100-CLB device with tR = 0 (so the RC
/// cost is the bare hardware time) and a 1 byte/us bus. All numbers below
/// are hand-computed in the test comments.
class EftFixture : public ::testing::Test {
 protected:
  static Task mk(const std::string& name, double sw_ms, double hw_ms = -1.0,
                 std::int32_t clbs = 0) {
    Task t;
    t.name = name;
    t.functionality = "F";
    t.sw_time = from_ms(sw_ms);
    if (hw_ms > 0.0) {
      t.hw = ImplementationSet::pareto({{clbs, from_ms(hw_ms)}});
    }
    return t;
  }

  EftFixture() : arch(make_cpu_fpga_architecture(100, 0, 1'000'000)) {
    a = tg.add_task(mk("a", 4.0, 2.0, 50));
    b = tg.add_task(mk("b", 8.0, 3.0, 50));
    c = tg.add_task(mk("c", 7.0));  // software-only
    d = tg.add_task(mk("d", 4.0, 1.0, 50));
    tg.add_comm(a, b, 2000);  // 2 ms when crossing the bus
    tg.add_comm(a, c, 1000);  // 1 ms
    tg.add_comm(b, d, 2000);  // 2 ms
    tg.add_comm(c, d, 1000);  // 1 ms
  }

  TaskGraph tg;
  Architecture arch;
  TaskId a{}, b{}, c{}, d{};
};

TEST_F(EftFixture, CostTablesMatchThePlatform) {
  const HeftCosts costs = make_heft_costs(tg, arch);
  EXPECT_DOUBLE_EQ(costs.sw_ms[a], 4.0);
  EXPECT_DOUBLE_EQ(costs.hw_ms[a], 2.0);
  EXPECT_DOUBLE_EQ(costs.reconfig_ms[a], 0.0);  // tR = 0
  EXPECT_TRUE(costs.hw_available(b));
  EXPECT_FALSE(costs.hw_available(c));
  EXPECT_DOUBLE_EQ(costs.rc_cost(d), 1.0);
  EXPECT_DOUBLE_EQ(costs.comm_ms[0], 2.0);
  EXPECT_DOUBLE_EQ(costs.comm_ms[1], 1.0);
}

TEST_F(EftFixture, HeftRanksMatchHandComputation) {
  // w = mean of available costs: w(a)=3, w(b)=5.5, w(c)=7, w(d)=2.5.
  // Mean edge cost = comm/2. rank(d)=2.5; rank(b)=5.5+(1+2.5)=9;
  // rank(c)=7+(0.5+2.5)=10; rank(a)=3+max(1+9, 0.5+10)=13.5.
  const HeftCosts costs = make_heft_costs(tg, arch);
  const std::vector<double> rank = heft_upward_ranks(tg, costs);
  EXPECT_DOUBLE_EQ(rank[d], 2.5);
  EXPECT_DOUBLE_EQ(rank[b], 9.0);
  EXPECT_DOUBLE_EQ(rank[c], 10.0);
  EXPECT_DOUBLE_EQ(rank[a], 13.5);
}

TEST_F(EftFixture, EftPassPicksResourcesByEarliestFinish) {
  // Priority order a, c, b, d. a: EFT 2 on RC vs 4 on CPU -> RC.
  // c: sw-only, ready at 2+1 -> finishes 10. b: RC ready 2, EFT 5 vs 18
  // -> RC. d: RC ready max(5, 10+1)=11, EFT 12 vs 14 -> RC; makespan 12.
  const HeftCosts costs = make_heft_costs(tg, arch);
  const std::vector<double> rank = heft_upward_ranks(tg, costs);
  const EftDecision dec = eft_select(tg, costs, rank);
  EXPECT_TRUE(dec.hw[a]);
  EXPECT_TRUE(dec.hw[b]);
  EXPECT_FALSE(dec.hw[c]);
  EXPECT_TRUE(dec.hw[d]);
  EXPECT_EQ(dec.hw_selected, 3);
  EXPECT_DOUBLE_EQ(dec.estimated_makespan_ms, 12.0);
}

TEST_F(EftFixture, PeftOctMatchesHandComputation) {
  // OCT(d,*)=0. OCT(b,0)=min(4, 1+2)=3; OCT(b,1)=min(4+2, 1)=1.
  // OCT(c,0)=min(4, 1+1)=2; OCT(c,1)=min(4+1, 1)=1.
  // OCT(a,0)=max(min(3+8, 1+3+2), min(2+7, inf))=max(6, 9)=9.
  // OCT(a,1)=max(min(3+8+2, 1+3), min(2+7+1, inf))=max(4, 10)=10.
  const HeftCosts costs = make_heft_costs(tg, arch);
  const PeftTables t = peft_oct(tg, costs);
  EXPECT_DOUBLE_EQ(t.oct[d][0], 0.0);
  EXPECT_DOUBLE_EQ(t.oct[d][1], 0.0);
  EXPECT_DOUBLE_EQ(t.oct[b][0], 3.0);
  EXPECT_DOUBLE_EQ(t.oct[b][1], 1.0);
  EXPECT_DOUBLE_EQ(t.oct[c][0], 2.0);
  EXPECT_DOUBLE_EQ(t.oct[c][1], 1.0);
  EXPECT_DOUBLE_EQ(t.oct[a][0], 9.0);
  EXPECT_DOUBLE_EQ(t.oct[a][1], 10.0);
  EXPECT_DOUBLE_EQ(t.rank[a], 9.5);
}

TEST(MapperPortfolio, EveryMapperIsValidAndSeedDeterministic) {
  // The cross-mapper property suite: on 50 random task graphs, every
  // registered mapper returns a solution the validator accepts, and a
  // repeated run with the same config is bit-identical.
  ExplorerConfig config;
  config.seed = 77;
  config.iterations = 300;
  config.warmup_iterations = 40;
  const Architecture arch =
      make_cpu_fpga_architecture(400, from_us(10.0), 50'000'000);
  Rng rng(123);
  for (int g = 0; g < 50; ++g) {
    AppGenParams params;
    params.dag.node_count = 6 + static_cast<std::size_t>(g % 9);
    params.dag.max_width = 3;
    const Application app = random_application(params, rng);
    for (const std::string& name : mapper_names()) {
      const auto mapper = make_mapper(name);
      const MapperResult r1 = mapper->run(app.graph, arch, config);
      require_valid(app.graph, r1.best_architecture, r1.best_solution);
      EXPECT_GT(r1.best_cost_ms, 0.0) << name;
      EXPECT_GE(r1.evaluations, 1) << name;
      const MapperResult r2 = mapper->run(app.graph, arch, config);
      EXPECT_EQ(r1.best_solution, r2.best_solution)
          << name << " on graph " << g;
      EXPECT_DOUBLE_EQ(r1.best_cost_ms, r2.best_cost_ms) << name;
    }
  }
}

TEST(MapperPortfolio, DeterministicMappersIgnoreTheSeedAndBudget) {
  const Application app = make_motion_detection_app();
  const Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  ExplorerConfig c1;
  ExplorerConfig c2;
  c2.seed = 424'242;
  c2.iterations = 17;
  c2.warmup_iterations = 0;
  c2.schedule = ScheduleKind::kGreedy;
  for (const std::string& name : mapper_names()) {
    if (!mapper_is_deterministic(name)) continue;
    const auto mapper = make_mapper(name);
    const MapperResult r1 = mapper->run(app.graph, arch, c1);
    const MapperResult r2 = mapper->run(app.graph, arch, c2);
    EXPECT_EQ(r1.best_solution, r2.best_solution) << name;
    EXPECT_DOUBLE_EQ(r1.best_cost_ms, r2.best_cost_ms) << name;
  }
}

void expect_metrics_equal(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.init_reconfig, b.init_reconfig);
  EXPECT_EQ(a.dyn_reconfig, b.dyn_reconfig);
  EXPECT_EQ(a.comm_cross, b.comm_cross);
  EXPECT_EQ(a.sw_busy, b.sw_busy);
  EXPECT_EQ(a.hw_busy, b.hw_busy);
  EXPECT_EQ(a.n_contexts, b.n_contexts);
  EXPECT_EQ(a.sw_tasks, b.sw_tasks);
  EXPECT_EQ(a.hw_tasks, b.hw_tasks);
  EXPECT_EQ(a.clbs_loaded, b.clbs_loaded);
  EXPECT_EQ(a.max_context_clbs, b.max_context_clbs);
}

/// The names of a result's counters, comma-joined in order.
std::string counter_names(const MapperResult& r) {
  std::string names;
  for (const auto& [name, value] : r.counters.members()) {
    names += names.empty() ? name : "," + name;
  }
  return names;
}

TEST(MapperPortfolio, HillClimbIsAGreedyZeroWarmupExplorerRun) {
  const Application app = make_motion_detection_app();
  const Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  ExplorerConfig config;
  config.seed = 5;
  config.iterations = 1'500;
  const MapperResult hc =
      make_mapper("hill_climb")->run(app.graph, arch, config);

  ExplorerConfig greedy;
  greedy.seed = config.seed;
  greedy.iterations = config.iterations;
  greedy.warmup_iterations = 0;
  greedy.schedule = ScheduleKind::kGreedy;
  const RunResult ref = Explorer(app.graph, arch).run(greedy);

  EXPECT_EQ(hc.best_solution, ref.best_solution);
  expect_metrics_equal(hc.best_metrics, ref.best_metrics);
  EXPECT_EQ(hc.evaluations, ref.anneal.accepted + ref.anneal.rejected);
  EXPECT_EQ(counter_names(hc),
            "iterations_run,accepted,rejected,infeasible,initial_makespan_ms");
  EXPECT_EQ(hc.counters.at("iterations_run").as_int(),
            ref.anneal.iterations_run);
  EXPECT_EQ(hc.counters.at("accepted").as_int(), ref.anneal.accepted);
  EXPECT_EQ(hc.counters.at("rejected").as_int(), ref.anneal.rejected);
  EXPECT_EQ(hc.counters.at("infeasible").as_int(), ref.anneal.infeasible);
  EXPECT_EQ(hc.counters.at("initial_makespan_ms").as_number(),
            to_ms(ref.initial_metrics.makespan));
}

TEST(MapperPortfolio, StochasticNonAnnealersIgnoreTheAnnealerKnobs) {
  // Serve's cache key drops warmup, schedule and batch for every mapper
  // but the annealer, so setting them must not change a bit of the result.
  const Application app = make_motion_detection_app();
  const Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  ExplorerConfig plain;
  plain.seed = 9;
  plain.iterations = 800;
  ExplorerConfig knobs = plain;
  knobs.warmup_iterations = 333;
  knobs.schedule = ScheduleKind::kGeometric;
  knobs.batch = 4;
  for (const char* name : {"hill_climb", "random", "ga"}) {
    const auto mapper = make_mapper(name);
    const MapperResult a = mapper->run(app.graph, arch, plain);
    const MapperResult b = mapper->run(app.graph, arch, knobs);
    EXPECT_EQ(a.best_solution, b.best_solution) << name;
    expect_metrics_equal(a.best_metrics, b.best_metrics);
    EXPECT_EQ(a.evaluations, b.evaluations) << name;
    EXPECT_EQ(a.counters.dump(), b.counters.dump()) << name;
  }
}

TEST(MapperPortfolio, ListSchedulersBeatSoftwareOnlyOnMotionDetection) {
  const Application app = make_motion_detection_app();
  const Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  const ExplorerConfig config;
  const double sw_only = to_ms(app.graph.total_sw_time());
  for (const char* name : {"heft", "peft"}) {
    const MapperResult r = make_mapper(name)->run(app.graph, arch, config);
    EXPECT_LT(r.best_cost_ms, sw_only) << name;
    EXPECT_GT(r.best_metrics.hw_tasks, 0) << name;
    EXPECT_GT(r.counters.at("estimated_makespan_ms").as_number(), 0.0);
  }
}

TEST(MapperPortfolio, EveryMapperReportsItsWallTime) {
  // Mapper::run times every strategy in one place, so no mapper can forget.
  const Application app = make_motion_detection_app();
  const Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  ExplorerConfig config;
  config.iterations = 300;
  config.warmup_iterations = 30;
  for (const std::string& name : mapper_names()) {
    const MapperResult r = make_mapper(name)->run(app.graph, arch, config);
    EXPECT_GT(r.wall_seconds, 0.0) << name;
  }
}

TEST(MapperMatrix, ArtifactsValidateAndShareThePointLabel) {
  const Application app = make_motion_detection_app();
  const Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  const std::string label = "motion @ 2000 CLBs";
  ExplorerConfig config;
  config.iterations = 500;
  config.warmup_iterations = 50;
  const std::vector<std::string> mappers = {"heft", "anneal"};
  const SweepSpec spec =
      mapper_sweep(mappers, arch, config, 2, app.deadline, label, 2000.0);
  const SweepResult matrix = SweepEngine(2).run(app.graph, spec);

  ASSERT_EQ(matrix.points.size(), 2u);
  for (const SweepPointResult& entry : matrix.points) {
    ASSERT_EQ(entry.runs.size(), 2u);
    const JsonValue doc = mapper_point_to_json(matrix, entry, "motion");
    EXPECT_TRUE(validate_sweep_json(doc).empty()) << entry.mapper;
    EXPECT_EQ(doc.at("name").as_string(), "mapper-bench");
    EXPECT_EQ(doc.at("mapper").as_string(), entry.mapper);
    EXPECT_EQ(doc.at("deterministic").as_bool(),
              mapper_is_deterministic(entry.mapper));
    const JsonValue& point = doc.at("points").items().front();
    EXPECT_EQ(point.at("label").as_string(), label);
    EXPECT_EQ(point.at("runs").as_int(), 2);
    // No wall-clock fields anywhere: the artifact must be a pure function
    // of (model, mapper, seed, budget).
    EXPECT_EQ(doc.find("wall_seconds"), nullptr);
    EXPECT_EQ(point.find("mean_wall_seconds"), nullptr);
  }
  EXPECT_EQ(matrix.points.front().mapper, "heft");
  EXPECT_EQ(matrix.points.back().mapper, "anneal");
  const std::string table = describe_mapper_sweep(matrix);
  EXPECT_NE(table.find("mapper matrix: " + label), std::string::npos);
  EXPECT_NE(table.find("heft *"), std::string::npos);
  EXPECT_EQ(table.find("anneal *"), std::string::npos);

  // The artifacts are sharding-invariant: a serial engine writes the same
  // bytes (no thread count, no wall clock).
  const SweepResult serial = SweepEngine(1).run(app.graph, spec);
  for (std::size_t i = 0; i < matrix.points.size(); ++i) {
    EXPECT_EQ(mapper_point_to_json(serial, serial.points[i], "motion").dump(),
              mapper_point_to_json(matrix, matrix.points[i], "motion").dump())
        << matrix.points[i].mapper;
  }

  const std::vector<std::string> bogus = {"bogus"};
  const SweepSpec unknown =
      mapper_sweep(bogus, arch, config, 2, app.deadline, label, 2000.0);
  EXPECT_THROW((void)SweepEngine(2).run(app.graph, unknown), Error);
}

}  // namespace
}  // namespace rdse
