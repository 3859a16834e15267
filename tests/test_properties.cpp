/// Cross-module property tests: invariants that must hold for *any*
/// application, architecture and (feasible) solution, exercised over random
/// synthetic instances driven through random accepted move sequences.

#include <gtest/gtest.h>

#include "core/explorer.hpp"
#include "core/moves.hpp"
#include "core/sweep_engine.hpp"
#include "graph/dot.hpp"
#include "mapping/validation.hpp"
#include "model/generators.hpp"
#include "sched/evaluator.hpp"
#include "sched/timeline.hpp"

namespace rdse {
namespace {

Application make_app(std::uint64_t seed, std::size_t n) {
  AppGenParams params;
  params.dag.node_count = n;
  params.dag.max_width = 4;
  params.hw_capable_fraction = 0.85;
  Rng rng(seed);
  return random_application(params, rng);
}

class RandomInstance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomInstance, EvaluatorInvariantsUnderMoveChurn) {
  const Application app = make_app(GetParam(), 24);
  Architecture arch =
      make_cpu_fpga_architecture(800, from_us(15.0), 20'000'000);
  const Evaluator ev(app.graph, arch);
  const auto& dev = arch.reconfigurable(1);

  Rng rng(GetParam() ^ 0xABCDEF);
  Solution sol = Solution::random_partition(app.graph, arch, 0, 1, rng);
  MoveConfig config;

  int checked = 0;
  for (int i = 0; i < 1'500 && checked < 120; ++i) {
    Architecture cand_arch = arch;
    Solution cand = sol;
    const MoveOutcome out =
        generate_move(app.graph, cand_arch, cand, config, rng);
    if (!out.applied) continue;
    const auto m = ev.evaluate(cand);
    if (!m) continue;  // cyclic realization: rejected
    ++checked;
    sol = std::move(cand);

    // (1) Reconfiguration accounting: total = tR * all loaded CLBs.
    ASSERT_EQ(m->total_reconfig(), dev.reconfiguration_time(m->clbs_loaded));
    // (2) Task partition counts.
    ASSERT_EQ(m->sw_tasks + m->hw_tasks,
              static_cast<int>(app.graph.task_count()));
    // (3) The single CPU executes serially: makespan bounds its busy time.
    ASSERT_GE(m->makespan, m->sw_busy);
    // (4) The RC serializes context loads: makespan bounds reconfiguration.
    ASSERT_GE(m->makespan, m->total_reconfig());
    // (5) Capacity holds for every context.
    ASSERT_LE(m->max_context_clbs, dev.n_clbs());
    // (6) The structural validator agrees.
    ASSERT_TRUE(validate_solution(app.graph, arch, sol).empty());
  }
  EXPECT_GE(checked, 60);
}

TEST_P(RandomInstance, TimelineDominatesLongestPathEverywhere) {
  const Application app = make_app(GetParam() + 77, 18);
  Architecture arch =
      make_cpu_fpga_architecture(600, from_us(10.0), 5'000'000);
  const Evaluator ev(app.graph, arch);
  Rng rng(GetParam());
  for (int i = 0; i < 10; ++i) {
    const Solution sol =
        Solution::random_partition(app.graph, arch, 0, 1, rng);
    const auto m = ev.evaluate(sol);
    ASSERT_TRUE(m.has_value());
    const Timeline tl = build_timeline(app.graph, arch, sol);
    // Serialization can only delay; and every slot ends within makespan.
    ASSERT_GE(tl.makespan, m->makespan);
    for (const TimelineSlot& s : tl.slots) {
      ASSERT_LE(s.start, s.end);
      ASSERT_LE(s.end, tl.makespan);
    }
  }
}

TEST_P(RandomInstance, BestTraceIsMonotoneNonIncreasing) {
  const Application app = make_app(GetParam() + 123, 20);
  Architecture arch =
      make_cpu_fpga_architecture(500, from_us(20.0), 20'000'000);
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = GetParam();
  config.iterations = 1'500;
  config.warmup_iterations = 200;
  const RunResult r = explorer.run(config);
  double best = std::numeric_limits<double>::infinity();
  for (const TraceRow& row : r.trace.rows()) {
    ASSERT_LE(row.best, best + 1e-12);
    best = row.best;
    // Best never exceeds current cost at the same instant.
    ASSERT_LE(row.best, row.cost + 1e-12);
  }
  // The reported best metrics match the last traced best.
  EXPECT_NEAR(to_ms(r.best_metrics.makespan), best, 1e-9);
}

TEST_P(RandomInstance, ExplorationNeverReturnsWorseThanInitial) {
  const Application app = make_app(GetParam() + 321, 16);
  Architecture arch =
      make_cpu_fpga_architecture(400, from_us(25.0), 10'000'000);
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = GetParam() * 3 + 1;
  config.iterations = 800;
  config.warmup_iterations = 100;
  config.record_trace = false;
  const RunResult r = explorer.run(config);
  EXPECT_LE(r.best_metrics.makespan, r.initial_metrics.makespan);
  require_valid(app.graph, r.best_architecture, r.best_solution);
}

TEST_P(RandomInstance, ParallelSweepMatchesSerialExplorationPerPoint) {
  // Random SweepSpec grids: every point of the sharded sweep must agree
  // bit-exactly with an independently-run serial exploration at the same
  // seed — the sweep layer may only reorder work, never results.
  const Application app = make_app(GetParam() + 4242, 16);
  Rng rng(GetParam() ^ 0x5EEDull);

  SweepSpec spec;
  spec.name = "random-grid";
  spec.runs_per_point = 2;
  spec.deadline = app.deadline;
  const int n_points = 2 + static_cast<int>(GetParam() % 3);
  for (int p = 0; p < n_points; ++p) {
    const auto clbs =
        static_cast<std::int32_t>(200 + 150 * rng.uniform_int(0, 6));
    ExplorerConfig config;
    config.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1'000'000));
    config.iterations = 300 + 100 * rng.uniform_int(0, 3);
    config.warmup_iterations = 60;
    config.record_trace = false;
    spec.points.emplace_back(
        std::to_string(clbs) + " CLBs", static_cast<double>(clbs),
        make_cpu_fpga_architecture(clbs, from_us(15.0), 20'000'000), config);
  }

  const SweepResult sweep = SweepEngine(3).run(app.graph, spec);
  ASSERT_EQ(sweep.points.size(), static_cast<std::size_t>(n_points));
  for (int p = 0; p < n_points; ++p) {
    const SweepPoint& point = spec.points[static_cast<std::size_t>(p)];
    const Explorer serial(app.graph, point.arch);
    for (int r = 0; r < spec.runs_per_point; ++r) {
      ExplorerConfig c = point.config;
      c.seed = point.config.seed + static_cast<std::uint64_t>(r);
      const RunResult ref = serial.run(c);
      const MapperResult& got =
          sweep.points[static_cast<std::size_t>(p)]
              .runs[static_cast<std::size_t>(r)];
      ASSERT_EQ(got.best_metrics.makespan, ref.best_metrics.makespan)
          << "point " << p << " run " << r;
      ASSERT_EQ(got.counters.at("accepted").as_int(), ref.anneal.accepted);
      ASSERT_EQ(got.counters.at("best_iteration").as_int(),
                ref.anneal.best_iteration);
      ASSERT_TRUE(got.best_solution == ref.best_solution);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInstance,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---- incremental-vs-full A/B equivalence -----------------------------------

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

/// Drive a full-evaluation problem and an incremental one in lockstep
/// through `moves` random proposals with shared acceptance coins, asserting
/// bit-identical behavior throughout. Returns the number of evaluated
/// proposals.
int drive_lockstep(DseProblem& full, DseProblem& inc, std::uint64_t seed,
                   int moves) {
  Rng r_full(seed);
  Rng r_inc(seed);
  Rng coin(seed ^ 0xC01Eu);
  int evaluated = 0;
  EXPECT_EQ(full.cost(), inc.cost());
  for (int i = 0; i < moves; ++i) {
    const bool a = full.propose(r_full);
    const bool b = inc.propose(r_inc);
    // Identical accept/reject sequence requires identical proposal
    // feasibility first (same draw, same cycle verdict).
    EXPECT_EQ(a, b) << "divergence at move " << i;
    if (a != b) return evaluated;
    if (!a) continue;
    ++evaluated;
    // Bit-identical candidate cost => identical Metropolis decisions.
    EXPECT_EQ(full.candidate_cost(), inc.candidate_cost())
        << "cost divergence at move " << i;
    const bool take = coin.bernoulli(0.5) ||
                      inc.candidate_cost() <= inc.cost();
    if (take) {
      full.accept();
      inc.accept();
    } else {
      full.reject();
      inc.reject();
    }
    EXPECT_EQ(full.cost(), inc.cost());
  }
  EXPECT_EQ(full.cost(), inc.cost());
  EXPECT_TRUE(full.current_solution() == inc.current_solution());
  expect_metrics_equal(full.current_metrics(), inc.current_metrics());
  return evaluated;
}

TEST(IncrementalVsFullEval, BitIdenticalOn100RandomGraphs) {
  int instances = 0;
  std::int64_t evaluated = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const std::size_t n = 8 + (seed % 7) * 4;  // 8..32 tasks
    const Application app = make_app(seed * 991 + 7, n);
    Architecture arch = make_cpu_fpga_architecture(
        500 + static_cast<std::int32_t>(seed % 4) * 300, from_us(15.0),
        20'000'000);
    Rng init(seed * 13 + 5);
    Solution initial =
        Solution::random_partition(app.graph, arch, 0, 1, init);

    MoveConfig mc;
    if (seed % 3 == 0) mc.p_zero = 0.05;  // exercise m3/m4 architecture moves
    DseProblem full(app.graph, arch, initial, mc, {}, false,
                    /*full_eval=*/true);
    DseProblem inc(app.graph, arch, initial, mc, {}, false,
                   /*full_eval=*/false);
    evaluated += drive_lockstep(full, inc, seed * 7919 + 3, 250);
    if (::testing::Test::HasFailure()) {
      FAIL() << "instance seed " << seed;
    }
    ++instances;

    // The delta path must actually be incremental, not a full relax in
    // disguise: on average well under half the graph is re-relaxed.
    const auto stats = inc.incremental_stats();
    ASSERT_TRUE(stats.has_value());
    if (stats->relax.probes > 50) {
      EXPECT_LT(stats->relax.relaxed_nodes, stats->relax.total_nodes);
      // Makespan tracking: the lazy O(V) rescan must be the exception,
      // and every probe resolves exactly once (no double counting).
      EXPECT_LE(stats->relax.makespan_rescans, stats->relax.probes);
      // Chain-diff accounting: a diff never books more surgery than it
      // booked reconciles' chains, and the counters move together.
      EXPECT_GE(stats->reconciles, 1);
      EXPECT_GE(stats->seq_edges_kept, 0);
    }
  }
  EXPECT_EQ(instances, 100);
  EXPECT_GT(evaluated, 5'000);  // the suite exercised real move churn
}

TEST(IncrementalVsFullEval, ResyncAfterResetState) {
  for (std::uint64_t seed = 201; seed <= 210; ++seed) {
    const Application app = make_app(seed, 20);
    Architecture arch =
        make_cpu_fpga_architecture(700, from_us(12.0), 10'000'000);
    Rng init(seed);
    Solution initial =
        Solution::random_partition(app.graph, arch, 0, 1, init);
    DseProblem full(app.graph, arch, initial, {}, {}, false, true);
    DseProblem inc(app.graph, arch, initial, {}, {}, false, false);
    drive_lockstep(full, inc, seed * 31, 120);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;

    // Replica exchange: inject a fresh state into both and keep going —
    // the incremental evaluator must resynchronize.
    Rng reroll(seed + 4096);
    Solution injected =
        Solution::random_partition(app.graph, arch, 0, 1, reroll);
    full.reset_state(arch, injected);
    inc.reset_state(arch, injected);
    EXPECT_EQ(full.cost(), inc.cost());
    drive_lockstep(full, inc, seed * 77 + 1, 120);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
  }
}

TEST(IncrementalVsFullEval, ExplorerFlagMatchesDefaultRun) {
  const Application app = make_app(909, 22);
  Architecture arch =
      make_cpu_fpga_architecture(800, from_us(15.0), 20'000'000);
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 42;
  config.iterations = 2'000;
  config.warmup_iterations = 300;
  config.record_trace = false;

  ExplorerConfig reference = config;
  reference.full_eval = true;

  const RunResult fast = explorer.run(config);
  const RunResult slow = explorer.run(reference);
  expect_metrics_equal(fast.best_metrics, slow.best_metrics);
  EXPECT_EQ(fast.anneal.accepted, slow.anneal.accepted);
  EXPECT_EQ(fast.anneal.rejected, slow.anneal.rejected);
  EXPECT_EQ(fast.anneal.infeasible, slow.anneal.infeasible);
  EXPECT_EQ(fast.anneal.best_cost, slow.anneal.best_cost);
  EXPECT_TRUE(fast.best_solution == slow.best_solution);
}

// ---- batched probes (best-of-K, then Metropolis) ---------------------------

TEST(BatchedProbes, IncrementalMatchesFullEvalUnderBatching) {
  // The batched path juggles a single staged delta across K probes and
  // re-stages the winner before handing it to Metropolis; lockstep against
  // the full-evaluation reference proves the bookkeeping never leaks.
  for (std::uint64_t seed = 301; seed <= 320; ++seed) {
    const std::size_t n = 10 + (seed % 5) * 4;
    const Application app = make_app(seed * 577 + 11, n);
    Architecture arch =
        make_cpu_fpga_architecture(600, from_us(15.0), 20'000'000);
    Rng init(seed * 3 + 1);
    Solution initial =
        Solution::random_partition(app.graph, arch, 0, 1, init);
    MoveConfig mc;
    if (seed % 3 == 0) mc.p_zero = 0.05;  // m3/m4 architecture probes too
    const int batch = 2 + static_cast<int>(seed % 7);  // K in 2..8
    DseProblem full(app.graph, arch, initial, mc, {}, false,
                    /*full_eval=*/true, batch);
    DseProblem inc(app.graph, arch, initial, mc, {}, false,
                   /*full_eval=*/false, batch);
    drive_lockstep(full, inc, seed * 131 + 7, 150);
    if (::testing::Test::HasFailure()) {
      FAIL() << "instance seed " << seed << ", K " << batch;
    }
  }
}

TEST(BatchedProbes, SeedDeterminismAndFullEvalIdentityOn50RandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const std::size_t n = 8 + (seed % 6) * 3;
    const Application app = make_app(seed * 271 + 9, n);
    Architecture arch = make_cpu_fpga_architecture(
        500 + static_cast<std::int32_t>(seed % 3) * 250, from_us(15.0),
        20'000'000);
    Explorer explorer(app.graph, arch);
    ExplorerConfig config;
    config.seed = seed;
    config.iterations = 600;
    config.warmup_iterations = 100;
    config.record_trace = false;

    for (const int k : {1, 2, 8}) {
      ExplorerConfig batched = config;
      batched.batch = k;
      const RunResult a = explorer.run(batched);
      const RunResult b = explorer.run(batched);
      // Same seed, same K: bit-identical outcome across repeat runs.
      expect_metrics_equal(a.best_metrics, b.best_metrics);
      EXPECT_EQ(a.anneal.accepted, b.anneal.accepted) << "K " << k;
      EXPECT_EQ(a.anneal.rejected, b.anneal.rejected) << "K " << k;
      EXPECT_EQ(a.anneal.best_cost, b.anneal.best_cost) << "K " << k;
      EXPECT_TRUE(a.best_solution == b.best_solution) << "K " << k;
      // The same run on the from-scratch Evaluator: the incremental
      // evaluator must reproduce it bit for bit at every K.
      ExplorerConfig reference = batched;
      reference.full_eval = true;
      const RunResult full = explorer.run(reference);
      expect_metrics_equal(a.best_metrics, full.best_metrics);
      EXPECT_EQ(a.anneal.accepted, full.anneal.accepted) << "K " << k;
      EXPECT_EQ(a.anneal.rejected, full.anneal.rejected) << "K " << k;
      EXPECT_EQ(a.anneal.infeasible, full.anneal.infeasible) << "K " << k;
      EXPECT_EQ(a.anneal.best_cost, full.anneal.best_cost) << "K " << k;
      EXPECT_TRUE(a.best_solution == full.best_solution) << "K " << k;
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "instance seed " << seed;
    }
  }
}

// ---- moves in place: what an undone move leaves behind --------------------

/// The architecture facts a leftover m3/m4 would change: a failed m4 leaves
/// a tombstoned slot, which would shift slot_count and every later id.
void expect_same_architecture(const Architecture& a, const Architecture& b,
                              const std::string& where) {
  EXPECT_EQ(a.slot_count(), b.slot_count()) << where;
  EXPECT_EQ(a.live_ids(), b.live_ids()) << where;
}

/// DseProblem draws every probe into its current state. After a reject()
/// or a propose() that found nothing (every probe null or cyclic), the
/// current state must equal a copy taken before the propose(); after a
/// successful one it must be that state plus the candidate's move alone,
/// every losing probe undone.
TEST(InPlaceMoves, UndoneProbesLeaveTheCommittedState) {
  std::int64_t rejected = 0;
  std::int64_t empty_proposals = 0;
  std::int64_t losing_probes = 0;
  std::int64_t failed_m4 = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Application app = make_app(seed * 389 + 3, 10 + (seed % 5) * 4);
    // A 60-CLB device cannot hold most tasks, and neither can the FPGAs
    // an m4 clones from it: those draws fail after adding a slot.
    const std::int32_t clbs[] = {60, 400, 2000};
    Architecture arch = make_cpu_fpga_architecture(clbs[seed % 3],
                                                   from_us(15.0), 20'000'000);
    Rng init(seed * 17 + 1);
    const Solution initial =
        Solution::random_partition(app.graph, arch, 0, 1, init);
    for (const int batch : {1, 4}) {
      for (const double p_zero : {0.0, 0.2}) {
        MoveConfig mc;
        mc.p_zero = p_zero;
        DseProblem problem(app.graph, arch, initial, mc, {},
                           /*adaptive_move_mix=*/seed % 3 == 0,
                           /*full_eval=*/false, batch);
        Rng rng(seed * 31 + static_cast<std::uint64_t>(batch));
        Rng coin(seed ^ 0x5EEDu);
        std::int64_t proposed = 0;
        for (int i = 0; i < 150; ++i) {
          const std::string where =
              "seed " + std::to_string(seed) + ", K " +
              std::to_string(batch) + ", p_zero " + std::to_string(p_zero) +
              ", step " + std::to_string(i);
          const Solution sol_before = problem.current_solution();
          const Architecture arch_before = problem.current_architecture();
          const double cost_before = problem.cost();
          if (!problem.propose(rng)) {
            ++empty_proposals;
            ASSERT_EQ(problem.current_solution(), sol_before) << where;
            expect_same_architecture(problem.current_architecture(),
                                     arch_before, where);
            continue;
          }
          ++proposed;
          // The current state is the candidate alone: the losing probes
          // were undone.
          const auto m = Evaluator(app.graph, problem.current_architecture())
                             .evaluate(problem.current_solution());
          ASSERT_TRUE(m.has_value()) << where;
          ASSERT_EQ(problem.cost_of(*m, problem.current_architecture()),
                    problem.candidate_cost())
              << where;
          if (coin.bernoulli(0.5)) {
            problem.accept();
            continue;
          }
          problem.reject();
          ++rejected;
          ASSERT_EQ(problem.current_solution(), sol_before) << where;
          expect_same_architecture(problem.current_architecture(),
                                   arch_before, where);
          ASSERT_EQ(problem.cost(), cost_before) << where;
        }
        std::int64_t evaluated = 0;
        for (const MoveClassStats& k : problem.move_stats()) {
          evaluated += k.evaluated;
        }
        losing_probes += evaluated - proposed;
        const auto m4 = static_cast<std::size_t>(MoveKind::kCreateResource);
        failed_m4 += problem.move_stats()[m4].null_draws;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_GT(rejected, 1'000);
  EXPECT_GT(empty_proposals, 1'000);
  EXPECT_GT(losing_probes, 1'000);  // at K = 4
  EXPECT_GT(failed_m4, 10);
}

TEST(DotExport, PlainGraphAndStyles) {
  Digraph g(3);
  g.add_edge(0, 1);
  const EdgeId dashed = g.add_edge(1, 2);
  DotStyle style;
  style.node_label = {"alpha", "beta", "gamma"};
  style.node_group = {"", "G1", "G1"};
  style.edge_style.resize(g.edge_capacity());
  style.edge_style[dashed] = "dashed";
  const std::string dot = to_dot(g, style);
  EXPECT_NE(dot.find("alpha"), std::string::npos);
  EXPECT_NE(dot.find("label=\"G1\""), std::string::npos);
  EXPECT_NE(dot.find("[style=dashed]"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

TEST(DotExport, SizeMismatchThrows) {
  Digraph g(2);
  DotStyle style;
  style.node_label = {"only-one"};
  EXPECT_THROW((void)to_dot(g, style), Error);
}

TEST(HeterogeneousProcessors, SpeedFactorScalesNodeWeights) {
  Application app = make_app(5, 10);
  Architecture arch{Bus(10'000'000)};
  arch.add_processor("slow", 50.0, 0.5);  // half speed
  const Evaluator ev(app.graph, arch);
  const Solution sol = Solution::all_software(app.graph, 0);
  const auto m = ev.evaluate(sol);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->makespan, 2 * app.graph.total_sw_time());
  EXPECT_THROW(arch.add_processor("bad", 1.0, 0.0), Error);
}

}  // namespace
}  // namespace rdse
