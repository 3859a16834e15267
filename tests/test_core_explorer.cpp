/// Tests for the DseProblem cost model and the Explorer facade, including
/// paper-anchored integration checks on the motion-detection benchmark.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/explorer.hpp"
#include "core/report.hpp"
#include "core/sweep_engine.hpp"
#include "mapping/validation.hpp"
#include "model/motion_detection.hpp"

namespace rdse {
namespace {

class ExplorerFixture : public ::testing::Test {
 protected:
  ExplorerFixture()
      : app(make_motion_detection_app()),
        arch(make_cpu_fpga_architecture(2000, kMotionDetectionTrPerClb,
                                        kMotionDetectionBusRate)) {}
  Application app;
  Architecture arch;
};

TEST_F(ExplorerFixture, DseProblemInitialCostMatchesEvaluator) {
  const Solution init = Solution::all_software(app.graph, 0);
  DseProblem problem(app.graph, arch, init);
  EXPECT_DOUBLE_EQ(problem.cost(), 76.4);
  EXPECT_EQ(problem.current_metrics().makespan, from_ms(76.4));
}

TEST_F(ExplorerFixture, DseProblemRejectsInvalidInitial) {
  Solution broken(app.graph.task_count());  // all unassigned
  EXPECT_THROW(DseProblem(app.graph, arch, broken), Error);
}

TEST_F(ExplorerFixture, CostWeightsBlendPriceAndPenalty) {
  const Solution init = Solution::all_software(app.graph, 0);
  CostWeights weights;
  weights.time_weight = 0.0;
  weights.price_weight = 1.0;
  weights.deadline = from_ms(40.0);
  weights.deadline_penalty_per_ms = 10.0;
  DseProblem problem(app.graph, arch, init, MoveConfig{}, weights);
  // price: cpu 100 + fpga (50 + 0.05*2000 = 150) = 250;
  // penalty: (76.4 - 40) * 10 = 364.
  EXPECT_NEAR(problem.cost(), 250.0 + 364.0, 1e-9);
}

TEST_F(ExplorerFixture, ProposalsAreStatisticallySane) {
  const Solution init = Solution::all_software(app.graph, 0);
  DseProblem problem(app.graph, arch, init);
  Rng rng(5);
  int feasible = 0;
  for (int i = 0; i < 2'000; ++i) {
    if (problem.propose(rng)) {
      ++feasible;
      if (rng.bernoulli(0.5)) problem.accept(); else problem.reject();
    }
  }
  EXPECT_GT(feasible, 200);
  const auto& stats = problem.move_stats();
  std::int64_t drawn = 0;
  for (const auto& s : stats) drawn += s.drawn;
  EXPECT_EQ(drawn, 2'000);
  require_valid(app.graph, problem.current_architecture(),
                problem.current_solution());
}

TEST_F(ExplorerFixture, RunProducesValidImprovedSolution) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 11;
  config.iterations = 3'000;
  config.warmup_iterations = 300;
  const RunResult r = explorer.run(config);
  require_valid(app.graph, r.best_architecture, r.best_solution);
  EXPECT_LT(r.best_metrics.makespan, r.initial_metrics.makespan);
  EXPECT_LE(r.best_metrics.makespan, from_ms(76.4));
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST_F(ExplorerFixture, DeterministicPerSeed) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 21;
  config.iterations = 1'500;
  config.warmup_iterations = 200;
  const RunResult a = explorer.run(config);
  const RunResult b = explorer.run(config);
  EXPECT_EQ(a.best_metrics.makespan, b.best_metrics.makespan);
  EXPECT_EQ(a.best_solution, b.best_solution);
  EXPECT_EQ(a.anneal.accepted, b.anneal.accepted);
}

TEST_F(ExplorerFixture, MeetsPaperConstraintAt2000Clbs) {
  // §5: the 40 ms constraint is satisfied with a 2000-CLB device, final
  // solutions land well below it (the paper reports 18.1 ms).
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 1;
  config.iterations = 15'000;
  config.warmup_iterations = 1'200;
  const RunResult r = explorer.run(config);
  EXPECT_LE(r.best_metrics.makespan, app.deadline);
  EXPECT_LT(r.best_metrics.makespan, from_ms(30.0));
  EXPECT_GE(r.best_metrics.makespan, from_ms(10.0));
}

TEST_F(ExplorerFixture, TraceCoversWarmupAndCooling) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 31;
  config.iterations = 500;
  config.warmup_iterations = 100;
  const RunResult r = explorer.run(config);
  EXPECT_EQ(r.trace.size(), 600u);
  EXPECT_TRUE(r.trace.at(0).warmup);
  EXPECT_FALSE(r.trace.rows().back().warmup);
  // During warm-up, temperature is infinite.
  EXPECT_TRUE(std::isinf(r.trace.at(5).temperature));
}

TEST_F(ExplorerFixture, TraceStrideDownsamples) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 31;
  config.iterations = 1'000;
  config.warmup_iterations = 0;
  config.trace_stride = 10;
  const RunResult r = explorer.run(config);
  EXPECT_EQ(r.trace.size(), 100u);
}

TEST_F(ExplorerFixture, RunManyAggregates) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 41;
  config.iterations = 1'200;
  config.warmup_iterations = 200;
  config.record_trace = false;
  const auto results = explorer.run_many(config, 4);
  ASSERT_EQ(results.size(), 4u);
  // The same seeds as a one-point anneal batch on the one batch runner.
  const std::string anneal[] = {"anneal"};
  const SweepSpec spec =
      mapper_sweep(anneal, arch, config, 4, app.deadline, "", 2000.0);
  const SweepResult batch = SweepEngine(1).run(app.graph, spec);
  const RunAggregate& agg = batch.points[0].aggregate;
  EXPECT_EQ(agg.runs, 4);
  double best = to_ms(results[0].best_metrics.makespan);
  for (const RunResult& r : results) {
    best = std::min(best, to_ms(r.best_metrics.makespan));
  }
  EXPECT_EQ(agg.best_makespan_ms, best);
  EXPECT_GE(agg.best_makespan_ms, 0.0);
  EXPECT_LE(agg.best_makespan_ms, agg.mean_makespan_ms);
  EXPECT_LE(agg.mean_makespan_ms, agg.worst_makespan_ms);
  EXPECT_GE(agg.deadline_hit_rate, 0.0);
  EXPECT_LE(agg.deadline_hit_rate, 1.0);
}

TEST_F(ExplorerFixture, AllSoftwareInitSupported) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 51;
  config.init = InitKind::kAllSoftware;
  config.iterations = 500;
  config.warmup_iterations = 0;
  const RunResult r = explorer.run(config);
  EXPECT_EQ(r.initial_metrics.makespan, from_ms(76.4));
  EXPECT_EQ(r.initial_metrics.hw_tasks, 0);
}

TEST_F(ExplorerFixture, AllSoftwareStartIsACopyThatDrawsNoRandomNumber) {
  const Explorer explorer(app.graph, arch);
  const Solution reference =
      Solution::all_software(app.graph, arch.processor_ids().front());
  Rng rng(77);
  const Rng::State before = rng.state();
  EXPECT_TRUE(explorer.initial_solution(InitKind::kAllSoftware, rng) ==
              reference);
  EXPECT_TRUE(explorer.initial_solution(InitKind::kAllSoftware, rng) ==
              reference);
  EXPECT_EQ(rng.state().words, before.words);
  EXPECT_EQ(rng.state().has_cached_normal, before.has_cached_normal);

  // Without a reconfigurable circuit the random partition is the same
  // all-software start, also drawn from nothing.
  Architecture cpu_only{Bus(kMotionDetectionBusRate)};
  cpu_only.add_processor("cpu0");
  const Explorer software(app.graph, cpu_only);
  EXPECT_TRUE(software.initial_solution(InitKind::kRandomPartition, rng) ==
              Solution::all_software(app.graph,
                                     cpu_only.processor_ids().front()));
  EXPECT_EQ(rng.state().words, before.words);
}

TEST_F(ExplorerFixture, AdaptiveMoveMixRuns) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 61;
  config.iterations = 2'000;
  config.warmup_iterations = 200;
  config.adaptive_move_mix = true;
  const RunResult r = explorer.run(config);
  require_valid(app.graph, r.best_architecture, r.best_solution);
  EXPECT_LT(r.best_metrics.makespan, r.initial_metrics.makespan);
}

// Pins a best-of-3 run with the adaptive move mix and architecture moves.
// Under batching the mix hears of every losing probe within one step, so
// the order in which probes are drawn, compared (a tie keeps the earlier
// probe) and reported shapes the later class picks; this pin is the only
// test that fixes that order. The figures were recorded from the separate
// one-probe and batched propose paths that the single loop replaced.
TEST_F(ExplorerFixture, BatchedAdaptiveRunIsPinned) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 23;
  config.iterations = 1'500;
  config.warmup_iterations = 200;
  config.batch = 3;
  config.adaptive_move_mix = true;
  config.moves.p_zero = 0.05;
  config.cost.price_weight = 0.02;
  config.record_trace = false;
  const RunResult r = explorer.run(config);

  EXPECT_EQ(r.anneal.best_cost, 28.879701000000001);
  EXPECT_EQ(r.anneal.iterations_run, 1'700);
  EXPECT_EQ(r.anneal.accepted, 1'363);
  EXPECT_EQ(r.anneal.rejected, 113);
  EXPECT_EQ(r.anneal.infeasible, 224);
  EXPECT_EQ(r.anneal.best_iteration, 1'440);
  // {drawn, null_draws, infeasible, evaluated, accepted} per move class.
  const std::int64_t expected[kMoveKindCount][5] = {
      {422, 405, 10, 7, 6},     {1412, 6, 150, 1256, 634},
      {1511, 1495, 0, 16, 12},  {72, 0, 0, 72, 17},
      {1311, 98, 0, 1213, 686}, {372, 292, 68, 12, 8},
  };
  for (std::size_t k = 0; k < kMoveKindCount; ++k) {
    const MoveClassStats& s = r.move_stats[k];
    const std::string kind = to_string(static_cast<MoveKind>(k));
    EXPECT_EQ(s.drawn, expected[k][0]) << kind;
    EXPECT_EQ(s.null_draws, expected[k][1]) << kind;
    EXPECT_EQ(s.infeasible, expected[k][2]) << kind;
    EXPECT_EQ(s.evaluated, expected[k][3]) << kind;
    EXPECT_EQ(s.accepted, expected[k][4]) << kind;
  }
  require_valid(app.graph, r.best_architecture, r.best_solution);
}

TEST_F(ExplorerFixture, ArchitectureExplorationCreatesResources) {
  Architecture minimal{Bus(kMotionDetectionBusRate)};
  minimal.add_processor("cpu0");
  Explorer explorer(app.graph, minimal);
  ExplorerConfig config;
  config.seed = 71;
  config.iterations = 8'000;
  config.warmup_iterations = 500;
  config.init = InitKind::kAllSoftware;
  config.moves.p_zero = 0.05;
  config.cost.time_weight = 0.0;
  config.cost.price_weight = 1.0;
  config.cost.deadline = app.deadline;
  config.cost.deadline_penalty_per_ms = 100.0;
  config.record_trace = false;
  const RunResult r = explorer.run(config);
  require_valid(app.graph, r.best_architecture, r.best_solution);
  // To satisfy the deadline the system must have grown beyond one CPU.
  EXPECT_GT(r.best_architecture.resource_count(), 1u);
  EXPECT_LE(r.best_metrics.makespan, app.deadline);
}

TEST_F(ExplorerFixture, ReportsRenderWithoutError) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 81;
  config.iterations = 800;
  config.warmup_iterations = 100;
  const RunResult r = explorer.run(config);
  std::ostringstream os;
  print_run_report(os, app.graph, r);
  const std::string report = os.str();
  EXPECT_NE(report.find("exploration report"), std::string::npos);
  EXPECT_NE(report.find("makespan"), std::string::npos);
  EXPECT_NE(report.find("cpu0"), std::string::npos);
  EXPECT_NE(report.find("move class"), std::string::npos);
}

TEST_F(ExplorerFixture, TraceCsvRoundTrip) {
  Trace trace;
  for (int i = 0; i < 10; ++i) {
    TraceRow row;
    row.iteration = i;
    row.cost = 10.0 - i;
    row.best = 10.0 - i;
    row.n_contexts = i % 3;
    trace.add(row);
  }
  const std::string csv = trace.to_csv();
  EXPECT_NE(csv.find("iteration,cost"), std::string::npos);
  EXPECT_EQ(trace.downsample(5).size(), 5u);
  EXPECT_EQ(trace.downsample(100).size(), 10u);
  EXPECT_EQ(trace.downsample(5).rows().back().iteration, 9);
  EXPECT_THROW((void)trace.downsample(1), Error);
}

// ---- cyclic starts ----------------------------------------------------------

/// The error a structurally valid start with a cyclic G' is rejected with.
constexpr const char* kCyclicStartError =
    "invalid solution (1 violation(s)):\n"
    "  - realized search graph G' contains a cycle";

constexpr ResourceId kCpu = 0;
constexpr ResourceId kFpga = 1;

/// All-software, except that the first communication edge's successor is
/// moved ahead of its predecessor in the CPU order.
Solution successor_first_on_cpu(const TaskGraph& tg) {
  Solution sol = Solution::all_software(tg, kCpu);
  const CommEdge& c = tg.comm(0);
  sol.reposition(c.dst, sol.order_position(c.src));
  return sol;
}

/// All-software, except for one dependent pair of hardware-capable tasks on
/// the FPGA with the successor in context 0 and the predecessor in context 1.
Solution successor_in_earlier_context(const TaskGraph& tg) {
  Solution sol = Solution::all_software(tg, kCpu);
  for (EdgeId e = 0; e < tg.comm_count(); ++e) {
    const CommEdge& c = tg.comm(e);
    if (!tg.task(c.src).hw_capable() || !tg.task(c.dst).hw_capable()) {
      continue;
    }
    sol.remove_task(c.src);
    sol.remove_task(c.dst);
    const std::size_t first = sol.spawn_context_after(kFpga, Solution::kFront);
    const std::size_t second = sol.spawn_context_after(kFpga, first);
    sol.insert_in_context(c.dst, kFpga, first, 0,
                          tg.task(c.dst).hw.at(0).clbs);
    sol.insert_in_context(c.src, kFpga, second, 0,
                          tg.task(c.src).hw.at(0).clbs);
    return sol;
  }
  ADD_FAILURE() << "no dependent pair of hardware-capable tasks";
  return sol;
}

std::string construction_error(const TaskGraph& tg, const Architecture& arch,
                               const Solution& start, bool full_eval) {
  try {
    const DseProblem problem(tg, arch, start, MoveConfig{}, CostWeights{},
                             false, full_eval);
  } catch (const Error& e) {
    return e.what();
  }
  return "(accepted)";
}

void expect_same_metrics(const Metrics& a, const Metrics& b,
                         const std::string& where) {
  EXPECT_EQ(a.makespan, b.makespan) << where;
  EXPECT_EQ(a.init_reconfig, b.init_reconfig) << where;
  EXPECT_EQ(a.dyn_reconfig, b.dyn_reconfig) << where;
  EXPECT_EQ(a.comm_cross, b.comm_cross) << where;
  EXPECT_EQ(a.sw_busy, b.sw_busy) << where;
  EXPECT_EQ(a.hw_busy, b.hw_busy) << where;
  EXPECT_EQ(a.n_contexts, b.n_contexts) << where;
  EXPECT_EQ(a.sw_tasks, b.sw_tasks) << where;
  EXPECT_EQ(a.hw_tasks, b.hw_tasks) << where;
  EXPECT_EQ(a.clbs_loaded, b.clbs_loaded) << where;
  EXPECT_EQ(a.max_context_clbs, b.max_context_clbs) << where;
}

/// Drives `a` and `b` through `steps` propose/accept/reject steps from the
/// same seed (accepting improvements and every third other candidate, and
/// snapshotting improvements of the best) and expects identical outcomes
/// at every step, incremental-evaluator counters included.
void expect_lockstep(DseProblem& a, DseProblem& b, std::uint64_t seed,
                     int steps) {
  Rng ra(seed);
  Rng rb(seed);
  for (int i = 0; i < steps; ++i) {
    const std::string where = "seed " + std::to_string(seed) + ", step " +
                              std::to_string(i);
    const bool pa = a.propose(ra);
    ASSERT_EQ(pa, b.propose(rb)) << where;
    if (pa) {
      ASSERT_EQ(a.candidate_cost(), b.candidate_cost()) << where;
      if (a.candidate_cost() <= a.cost() || i % 3 == 0) {
        a.accept();
        b.accept();
      } else {
        a.reject();
        b.reject();
      }
    }
    if (a.cost() < to_ms(a.best_metrics().makespan)) {
      a.snapshot_best();
      b.snapshot_best();
    }
    ASSERT_EQ(a.cost(), b.cost()) << where;
    expect_same_metrics(a.current_metrics(), b.current_metrics(), where);
  }
  EXPECT_EQ(a.current_solution(), b.current_solution());
  EXPECT_EQ(a.best_solution(), b.best_solution());
  expect_same_metrics(a.best_metrics(), b.best_metrics(), "best");
  const auto sa = a.incremental_stats();
  const auto sb = b.incremental_stats();
  ASSERT_EQ(sa.has_value(), sb.has_value());
  if (sa.has_value()) {
    EXPECT_EQ(sa->builds, sb->builds);
    EXPECT_EQ(sa->order_rejects, sb->order_rejects);
    EXPECT_EQ(sa->context_rejects, sb->context_rejects);
    EXPECT_EQ(sa->cache_misses, sb->cache_misses);
    EXPECT_EQ(sa->bounds_computed, sb->bounds_computed);
    EXPECT_EQ(sa->comm_edges_parked, sb->comm_edges_parked);
    EXPECT_EQ(sa->relax.probes, sb->relax.probes);
    EXPECT_EQ(sa->relax.relaxed_nodes, sb->relax.relaxed_nodes);
    EXPECT_EQ(sa->relax.rank_repair_nodes, sb->relax.rank_repair_nodes);
    EXPECT_EQ(sa->relax.journal_entries, sb->relax.journal_entries);
  }
}

TEST_F(ExplorerFixture, CyclicStartIsRejectedWithTheSearchGraphCycle) {
  for (const bool full_eval : {false, true}) {
    EXPECT_EQ(construction_error(app.graph, arch,
                                 successor_first_on_cpu(app.graph), full_eval),
              kCyclicStartError)
        << "full_eval " << full_eval;
    EXPECT_EQ(construction_error(app.graph, arch,
                                 successor_in_earlier_context(app.graph),
                                 full_eval),
              kCyclicStartError)
        << "full_eval " << full_eval;
  }
}

TEST_F(ExplorerFixture, RejectedResetStateLeavesTheProblemAsItWas) {
  for (const bool full_eval : {false, true}) {
    Rng init(7);
    const Solution start =
        Solution::random_partition(app.graph, arch, kCpu, kFpga, init);
    DseProblem problem(app.graph, arch, start, MoveConfig{}, CostWeights{},
                       false, full_eval);
    DseProblem twin(app.graph, arch, start, MoveConfig{}, CostWeights{},
                    false, full_eval);
    expect_lockstep(problem, twin, 11, 150);
    for (const Solution& cyclic : {successor_first_on_cpu(app.graph),
                                   successor_in_earlier_context(app.graph)}) {
      try {
        problem.reset_state(arch, cyclic);
        ADD_FAILURE() << "reset_state accepted a cyclic state";
      } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()), kCyclicStartError);
      }
    }
    EXPECT_EQ(problem.cost(), twin.cost());
    expect_same_metrics(problem.current_metrics(), twin.current_metrics(),
                        "after the rejected reset_state");
    expect_lockstep(problem, twin, 12, 200);
  }
}

TEST_F(ExplorerFixture, RejectedRestoreBestStateLeavesTheProblemAsItWas) {
  for (const bool full_eval : {false, true}) {
    Rng init(9);
    const Solution start =
        Solution::random_partition(app.graph, arch, kCpu, kFpga, init);
    DseProblem problem(app.graph, arch, start, MoveConfig{}, CostWeights{},
                       false, full_eval);
    DseProblem twin(app.graph, arch, start, MoveConfig{}, CostWeights{},
                    false, full_eval);
    expect_lockstep(problem, twin, 21, 150);
    for (const Solution& cyclic : {successor_first_on_cpu(app.graph),
                                   successor_in_earlier_context(app.graph)}) {
      try {
        problem.restore_best_state(arch, cyclic);
        ADD_FAILURE() << "restore_best_state accepted a cyclic state";
      } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()), kCyclicStartError);
      }
    }
    EXPECT_EQ(problem.best_solution(), twin.best_solution());
    expect_same_metrics(problem.best_metrics(), twin.best_metrics(),
                        "best after the rejected restore_best_state");
    EXPECT_EQ(problem.cost(), twin.cost());
    expect_same_metrics(problem.current_metrics(), twin.current_metrics(),
                        "after the rejected restore_best_state");
    expect_lockstep(problem, twin, 22, 200);
  }
}

TEST_F(ExplorerFixture, StateReplacementWithAMovePendingThrows) {
  // Between propose() and accept()/reject() the current state is the
  // candidate, so replacing it (or the best) would strand the move.
  for (const bool full_eval : {false, true}) {
    Rng init(13);
    const Solution start =
        Solution::random_partition(app.graph, arch, kCpu, kFpga, init);
    DseProblem problem(app.graph, arch, start, MoveConfig{}, CostWeights{},
                       false, full_eval);
    DseProblem twin(app.graph, arch, start, MoveConfig{}, CostWeights{},
                    false, full_eval);
    Rng ra(31);
    Rng rb(31);
    bool pending = false;
    while (!pending) {
      pending = problem.propose(ra);
      ASSERT_EQ(pending, twin.propose(rb));
    }
    const Solution candidate = problem.current_solution();
    const Solution best = problem.best_solution();
    const double cost = problem.cost();
    const double candidate_cost = problem.candidate_cost();
    EXPECT_THROW(problem.reset_state(arch, start), Error);
    EXPECT_THROW(problem.restore_best_state(arch, start), Error);
    EXPECT_EQ(problem.current_solution(), candidate);
    EXPECT_EQ(problem.best_solution(), best);
    EXPECT_EQ(problem.cost(), cost);
    EXPECT_EQ(problem.candidate_cost(), candidate_cost);
    // The move is still pending: rejecting it restores the start, and the
    // problem goes on in step with its twin.
    problem.reject();
    twin.reject();
    EXPECT_EQ(problem.current_solution(), start);
    expect_lockstep(problem, twin, 32, 200);
  }
}

TEST(ExplorerGuards, RequiresProcessor) {
  const Application app = make_motion_detection_app();
  Architecture no_cpu{Bus(1'000)};
  no_cpu.add_reconfigurable("fpga0", 100, 10);
  EXPECT_THROW(Explorer(app.graph, no_cpu), Error);
}

}  // namespace
}  // namespace rdse
