/// Chain-diff reconciliation edge cases: the two-pointer prefix/suffix diff
/// of IncrementalEvaluator::reconcile_seq_edges must emit exactly the edges
/// of the differing window — nothing for an unchanged order, a three-edge
/// window for an adjacent swap, the whole chain for a reversal — while
/// staying bit-identical to the from-scratch Evaluator, and rollback must
/// restore the exact chain (order included) so later diffs stay local.
/// Parking equivalence: with the communication edges between tasks on one
/// processor parked, verdicts and metrics still equal the full Evaluator's
/// on dense graphs under order-violating moves, and commit/discard keep
/// exactly those edges parked.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "model/generators.hpp"
#include "sched/evaluator.hpp"
#include "sched/incremental_eval.hpp"
#include "util/rng.hpp"

namespace rdse {
namespace {

/// Independent tasks (no precedence edges), so every processor order is
/// feasible — reorder scenarios can permute freely.
Application independent_app(std::size_t n, std::uint64_t seed) {
  AppGenParams params;
  params.dag.node_count = n;
  params.dag.edge_probability = 0.0;
  params.dag.connect_orphans = false;
  Rng rng(seed);
  return random_application(params, rng);
}

Application chained_app(std::size_t n, std::uint64_t seed) {
  AppGenParams params;
  params.dag.node_count = n;
  params.dag.max_width = 3;
  params.dag.edge_probability = 0.3;
  Rng rng(seed);
  return random_application(params, rng);
}

struct ChainCounters {
  std::int64_t kept = 0;
  std::int64_t removed = 0;
  std::int64_t added = 0;
};

ChainCounters counters(const IncrementalEvaluator& inc) {
  const IncrementalEvalStats s = inc.stats();
  return {s.seq_edges_kept, s.seq_edges_removed, s.seq_edges_added};
}

ChainCounters delta(const ChainCounters& before,
                    const ChainCounters& after) {
  return {after.kept - before.kept, after.removed - before.removed,
          after.added - before.added};
}

void expect_metrics_equal(const std::optional<Metrics>& got,
                          const std::optional<Metrics>& want,
                          const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got.has_value()) return;
  EXPECT_EQ(got->makespan, want->makespan) << where;
  EXPECT_EQ(got->init_reconfig, want->init_reconfig) << where;
  EXPECT_EQ(got->dyn_reconfig, want->dyn_reconfig) << where;
  EXPECT_EQ(got->comm_cross, want->comm_cross) << where;
  EXPECT_EQ(got->sw_busy, want->sw_busy) << where;
  EXPECT_EQ(got->hw_busy, want->hw_busy) << where;
  EXPECT_EQ(got->n_contexts, want->n_contexts) << where;
  EXPECT_EQ(got->sw_tasks, want->sw_tasks) << where;
  EXPECT_EQ(got->hw_tasks, want->hw_tasks) << where;
  EXPECT_EQ(got->clbs_loaded, want->clbs_loaded) << where;
  EXPECT_EQ(got->max_context_clbs, want->max_context_clbs) << where;
}

void expect_matches_full(const TaskGraph& tg, const Architecture& arch,
                         const Solution& cand,
                         const std::optional<Metrics>& got) {
  expect_metrics_equal(got, Evaluator(tg, arch).evaluate(cand), "");
}

TEST(ChainDiff, UnchangedOrderEmitsNoEdges) {
  const Application app = independent_app(8, 11);
  const Architecture arch =
      make_cpu_fpga_architecture(1000, from_us(10.0), 20'000'000);
  const Solution sol = Solution::all_software(app.graph, 0);

  IncrementalEvaluator inc(app.graph);
  inc.reset(arch, sol);

  Solution cand = sol;
  cand.clear_touched();
  const TaskId t = cand.processor_order(0)[3];
  cand.reposition(t, 3);  // same slot: order is untouched, journal is not

  const ChainCounters before = counters(inc);
  const auto m = inc.evaluate_candidate(arch, cand, cand.touched_resources(),
                                        cand.touched_tasks());
  ASSERT_TRUE(m.has_value());
  const ChainCounters d = delta(before, counters(inc));
  EXPECT_EQ(d.removed, 0);
  EXPECT_EQ(d.added, 0);
  EXPECT_EQ(d.kept, 7);  // the full 8-task chain matched in the prefix
  expect_matches_full(app.graph, arch, cand, m);
  inc.commit();
}

TEST(ChainDiff, AdjacentSwapMidChainRebuildsThreeEdgeWindow) {
  const Application app = independent_app(8, 23);
  const Architecture arch =
      make_cpu_fpga_architecture(1000, from_us(10.0), 20'000'000);
  const Solution sol = Solution::all_software(app.graph, 0);

  IncrementalEvaluator inc(app.graph);
  inc.reset(arch, sol);

  Solution cand = sol;
  cand.clear_touched();
  // Swap order slots 2 and 3 of the 8-task chain: edges (1,2), (2,3),
  // (3,4) become (1,3), (3,2), (2,4) — a three-edge window between the
  // one-edge prefix (0,1) and the three-edge suffix (4,5), (5,6), (6,7).
  const TaskId t = cand.processor_order(0)[2];
  cand.reposition(t, 3);

  const ChainCounters before = counters(inc);
  const auto m = inc.evaluate_candidate(arch, cand, cand.touched_resources(),
                                        cand.touched_tasks());
  ASSERT_TRUE(m.has_value());
  const ChainCounters d = delta(before, counters(inc));
  EXPECT_EQ(d.removed, 3);
  EXPECT_EQ(d.added, 3);
  EXPECT_EQ(d.kept, 4);  // prefix (0,1); suffix (4,5), (5,6), (6,7)
  expect_matches_full(app.graph, arch, cand, m);
  inc.commit();
}

TEST(ChainDiff, FullReversalRebuildsWholeChain) {
  const std::size_t n = 9;
  const Application app = independent_app(n, 37);
  const Architecture arch =
      make_cpu_fpga_architecture(1000, from_us(10.0), 20'000'000);
  const Solution sol = Solution::all_software(app.graph, 0);

  IncrementalEvaluator inc(app.graph);
  inc.reset(arch, sol);

  Solution cand = sol;
  cand.clear_touched();
  std::vector<TaskId> order(cand.processor_order(0).begin(),
                            cand.processor_order(0).end());
  for (const TaskId t : order) cand.remove_task(t);
  for (std::size_t i = 0; i < order.size(); ++i) {
    cand.insert_on_processor(order[order.size() - 1 - i], 0, i);
  }

  const ChainCounters before = counters(inc);
  const auto m = inc.evaluate_candidate(arch, cand, cand.touched_resources(),
                                        cand.touched_tasks());
  ASSERT_TRUE(m.has_value());
  const ChainCounters d = delta(before, counters(inc));
  EXPECT_EQ(d.kept, 0);  // no common prefix or suffix survives a reversal
  EXPECT_EQ(d.removed, static_cast<std::int64_t>(n - 1));
  EXPECT_EQ(d.added, static_cast<std::int64_t>(n - 1));
  expect_matches_full(app.graph, arch, cand, m);
  inc.commit();
}

TEST(ChainDiff, EmptyAndSingleTaskChains) {
  const Application app = independent_app(6, 41);
  Architecture arch =
      make_cpu_fpga_architecture(1000, from_us(10.0), 20'000'000);
  const ResourceId spare = arch.add_processor("cpu1");
  const Solution sol = Solution::all_software(app.graph, 0);

  IncrementalEvaluator inc(app.graph);
  inc.reset(arch, sol);

  // A touched resource with no tasks at all: reconcile of an empty chain
  // against an empty desired set must be a no-op.
  {
    const ChainCounters before = counters(inc);
    const ResourceId touched[] = {spare};
    const auto m = inc.evaluate_candidate(arch, sol, touched, {});
    ASSERT_TRUE(m.has_value());
    const ChainCounters d = delta(before, counters(inc));
    EXPECT_EQ(d.kept, 0);
    EXPECT_EQ(d.removed, 0);
    EXPECT_EQ(d.added, 0);
    expect_matches_full(app.graph, arch, sol, m);
    inc.commit();
  }

  // One task on the spare processor: a single-task chain has no
  // sequentialization edges in either direction of the move.
  Solution cand = sol;
  cand.clear_touched();
  const TaskId t = cand.processor_order(0)[2];
  cand.remove_task(t);
  cand.insert_on_processor(t, spare, 0);
  {
    const ChainCounters before = counters(inc);
    const auto m = inc.evaluate_candidate(
        arch, cand, cand.touched_resources(), cand.touched_tasks());
    ASSERT_TRUE(m.has_value());
    const ChainCounters d = delta(before, counters(inc));
    // Donor chain: the two edges around the removed slot collapse into one
    // bridging edge; the single-task spare chain contributes nothing.
    EXPECT_EQ(d.removed, 2);
    EXPECT_EQ(d.added, 1);
    EXPECT_EQ(d.kept, 3);  // donor prefix (0,1) + suffix (3,4), (4,5)
    expect_matches_full(app.graph, arch, cand, m);
    inc.commit();
  }
}

TEST(ChainDiff, RollbackRestoresChainOrderExactly) {
  const Application app = chained_app(12, 53);
  const Architecture arch =
      make_cpu_fpga_architecture(1200, from_us(10.0), 20'000'000);
  const Solution sol = Solution::all_software(app.graph, 0);

  IncrementalEvaluator inc(app.graph);
  inc.reset(arch, sol);

  // Stage a reorder, discard it, then re-evaluate the identical committed
  // order: the chain list must have been restored in order, so the diff
  // finds a full prefix match and emits nothing.
  Rng rng(7);
  for (int step = 0; step < 40; ++step) {
    Solution cand = sol;
    cand.clear_touched();
    const auto order = cand.processor_order(0);
    const TaskId t = order[rng.index(order.size())];
    cand.reposition(t, rng.index(order.size()));
    const auto staged = inc.evaluate_candidate(
        arch, cand, cand.touched_resources(), cand.touched_tasks());
    expect_matches_full(app.graph, arch, cand, staged);
    if (staged.has_value()) inc.discard();

    Solution same = sol;
    same.clear_touched();
    same.reposition(sol.processor_order(0)[0], 0);  // no-op touch
    const ChainCounters before = counters(inc);
    const auto m = inc.evaluate_candidate(
        arch, same, same.touched_resources(), same.touched_tasks());
    ASSERT_TRUE(m.has_value()) << "step " << step;
    const ChainCounters d = delta(before, counters(inc));
    EXPECT_EQ(d.removed, 0) << "step " << step;
    EXPECT_EQ(d.added, 0) << "step " << step;
    inc.discard();
  }
}

// ---- per-context CLB sums as deltas ----------------------------------------

TEST(ClbDeltas, MirrorAndCountersStayExactUnderRollbackChurn) {
  // The per-context CLB mirror is maintained incrementally by the move
  // mutators; a single missed update would silently skew reconfiguration
  // times. Churn through rejection-heavy annealing and audit every warm
  // slot against a from-scratch sum over the context members.
  for (std::uint64_t seed = 401; seed <= 410; ++seed) {
    const Application app = chained_app(18, seed);
    Architecture arch =
        make_cpu_fpga_architecture(700, from_us(12.0), 10'000'000);
    Rng init(seed);
    Solution initial =
        Solution::random_partition(app.graph, arch, 0, 1, init);
    DseProblem prob(app.graph, arch, initial, {}, {}, false, false);
    const TaskGraph& tg = app.graph;
    constexpr ResourceId kRc = 1;

    const auto audit_mirror = [&] {
      const Solution& cur = prob.current_solution();
      for (std::size_t c = 0; c < cur.context_count(kRc); ++c) {
        std::int32_t want = 0;
        for (TaskId t : cur.context_tasks(kRc, c)) {
          want += tg.task(t).hw.at(cur.placement(t).impl).clbs;
        }
        const std::int32_t cached = cur.context_clbs_cached(kRc, c);
        if (cached >= 0) {
          ASSERT_EQ(cached, want) << "seed " << seed << ", context " << c;
        }
        ASSERT_EQ(cur.context_clbs(tg, kRc, c), want);
      }
    };

    Rng rng(seed * 97 + 1);
    Rng coin(seed ^ 0xF00Du);
    IncrementalEvalStats last{};
    for (int i = 0; i < 400; ++i) {
      if (!prob.propose(rng)) continue;
      // Bias to rejection: the mirror must survive rollback churn.
      if (coin.bernoulli(0.3)) {
        prob.accept();
      } else {
        prob.reject();
      }
      const auto stats = prob.incremental_stats();
      ASSERT_TRUE(stats.has_value());
      // Counter lockstep: every realized context classifies its CLB sum
      // exactly once — reused or computed, never both, never neither —
      // and the counters only move forward.
      ASSERT_EQ(stats->clbs_reused + stats->clbs_computed,
                stats->bounds_reused + stats->bounds_computed)
          << "seed " << seed << ", move " << i;
      ASSERT_GE(stats->clbs_reused, last.clbs_reused);
      ASSERT_GE(stats->clbs_computed, last.clbs_computed);
      last = *stats;
      if (i % 50 == 0) audit_mirror();
    }
    audit_mirror();
    if (::testing::Test::HasFailure()) {
      FAIL() << "instance seed " << seed;
    }
  }
}

// ---- parked communication edges ---------------------------------------------

/// Dense precedence: most same-processor pairs are ordered, so unclamped
/// repositions and inserts next to a neighbour often turn an edge
/// backwards.
Application dense_app(std::size_t n, std::uint64_t seed) {
  AppGenParams params;
  params.dag.node_count = n;
  params.dag.max_width = 4;
  params.dag.edge_probability = 0.6;
  params.hw_capable_fraction = 0.8;
  Rng rng(seed);
  return random_application(params, rng);
}

/// A communication edge is live in the maintained graph iff its endpoints
/// are not on one processor; otherwise it is parked (never freed).
void expect_parked_exactly_co_processor(const TaskGraph& tg,
                                        const Architecture& arch,
                                        const Solution& sol,
                                        const IncrementalEvaluator& inc,
                                        const std::string& where) {
  const Digraph& g = inc.search_graph().graph;
  g.check_consistency();
  std::int64_t parked = 0;
  for (EdgeId e = 0; e < tg.comm_count(); ++e) {
    const CommEdge& c = tg.comm(e);
    const ResourceId r = sol.placement(c.src).resource;
    const bool one_processor =
        r == sol.placement(c.dst).resource &&
        arch.resource(r).kind() == ResourceKind::kProcessor;
    ASSERT_EQ(g.edge_alive(e), !one_processor) << where << ", edge " << e;
    ASSERT_EQ(g.edge_parked(e), one_processor) << where << ", edge " << e;
    parked += one_processor ? 1 : 0;
  }
  EXPECT_EQ(inc.stats().comm_edges_parked, parked) << where;
}

/// One random move on `cand`, drawn so that many candidates are cyclic
/// only through a parked edge: unclamped repositions, processor inserts
/// right before or after a direct predecessor or successor, and moves to
/// and from the RC (a fresh or an existing context).
void random_parking_move(const TaskGraph& tg, const Architecture& arch,
                         Solution& cand, Rng& rng) {
  const std::vector<ResourceId> procs = arch.processor_ids();
  constexpr ResourceId kRc = 1;
  const auto t = static_cast<TaskId>(rng.index(tg.task_count()));
  const ResourceId at = cand.placement(t).resource;
  const bool on_proc = arch.resource(at).kind() == ResourceKind::kProcessor;
  const double dice = rng.uniform01();
  if (dice < 0.3 && on_proc) {
    cand.reposition(t, rng.index(cand.processor_order(at).size()));
  } else if (dice < 0.6) {
    // Next to a neighbour that sits on a processor (either side of it).
    std::vector<TaskId> near;
    for (const HalfEdge& h : tg.digraph().in_half(t)) near.push_back(h.node);
    for (const HalfEdge& h : tg.digraph().out_half(t)) near.push_back(h.node);
    std::erase_if(near, [&](TaskId n) {
      return arch.resource(cand.placement(n).resource).kind() !=
             ResourceKind::kProcessor;
    });
    if (near.empty()) return;
    const TaskId n = near[rng.index(near.size())];
    cand.remove_task(t);
    const ResourceId proc = cand.placement(n).resource;
    cand.insert_on_processor(t, proc, cand.order_position(n) + rng.index(2));
  } else if (dice < 0.8 && on_proc && tg.task(t).hw_capable()) {
    cand.remove_task(t);
    const auto impl =
        static_cast<std::uint32_t>(rng.index(tg.task(t).hw.size()));
    const std::int32_t clbs = tg.task(t).hw.at(impl).clbs;
    const std::size_t n_ctx = cand.context_count(kRc);
    std::size_t ctx;
    if (n_ctx > 0 && rng.bernoulli(0.6)) {
      ctx = rng.index(n_ctx);
    } else {
      ctx = cand.spawn_context_after(
          kRc, n_ctx == 0 ? Solution::kFront : rng.index(n_ctx));
    }
    cand.insert_in_context(t, kRc, ctx, impl, clbs);
  } else if (!on_proc) {
    cand.remove_task(t);
    const ResourceId proc = procs[rng.index(procs.size())];
    cand.insert_on_processor(
        t, proc, rng.index(cand.processor_order(proc).size() + 1));
  } else {
    // Over to the other processor, anywhere in its order.
    const ResourceId proc = procs[0] == at ? procs[1] : procs[0];
    cand.remove_task(t);
    cand.insert_on_processor(
        t, proc, rng.index(cand.processor_order(proc).size() + 1));
  }
}

TEST(Parking, MatchesFullEvaluatorOnDenseGraphs) {
  std::int64_t order_rejects = 0;
  std::int64_t feasible = 0;
  std::int64_t infeasible = 0;
  for (std::uint64_t seed = 501; seed <= 508; ++seed) {
    const Application app = dense_app(28, seed);
    const TaskGraph& tg = app.graph;
    Architecture arch =
        make_cpu_fpga_architecture(900, from_us(10.0), 20'000'000);
    (void)arch.add_processor("cpu1");
    Rng init(seed);
    Solution sol = seed % 2 == 0
                       ? Solution::all_software(tg, 0)
                       : Solution::random_partition(tg, arch, 0, 1, init);

    IncrementalEvaluator inc(tg);
    const Metrics start = inc.reset(arch, sol);
    expect_metrics_equal(start, Evaluator(tg, arch).evaluate(sol),
                         "reset, seed " + std::to_string(seed));
    expect_parked_exactly_co_processor(tg, arch, sol, inc, "reset");

    Rng rng(seed * 31 + 7);
    for (int step = 0; step < 300; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + ", step " + std::to_string(step);
      Solution cand = sol;
      cand.clear_touched();
      random_parking_move(tg, arch, cand, rng);
      const auto got = inc.evaluate_candidate(
          arch, cand, cand.touched_resources(), cand.touched_tasks());
      const auto want = Evaluator(tg, arch).evaluate(cand);
      expect_metrics_equal(got, want, where);
      if (!got.has_value()) {
        ++infeasible;
        expect_parked_exactly_co_processor(tg, arch, sol, inc,
                                           where + " (cyclic)");
        continue;
      }
      ++feasible;
      if (rng.bernoulli(0.5)) {
        inc.commit();
        sol = cand;
        expect_parked_exactly_co_processor(tg, arch, sol, inc,
                                           where + " (commit)");
      } else {
        inc.discard();
        expect_parked_exactly_co_processor(tg, arch, sol, inc,
                                           where + " (discard)");
      }
      if (::testing::Test::HasFailure()) FAIL() << where;
    }
    order_rejects += inc.stats().order_rejects;
  }
  // The move mix must exercise every branch: accepted deltas, and
  // candidates rejected by the order check as well as by the relaxer.
  EXPECT_GT(feasible, 500);
  EXPECT_GT(infeasible, 300);
  EXPECT_GT(order_rejects, 100);
  EXPECT_LT(order_rejects, infeasible);
}

}  // namespace
}  // namespace rdse
