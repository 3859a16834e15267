/// Chain reconciliation edge cases. A processor's Esw chain is reconciled
/// by edge identity: only a moved task, its old predecessor and its new one
/// can hold a stale link, so the counters book exactly the links those
/// tasks check (kept), remove and add — nothing for an unchanged order,
/// three removed and three added for any reposition however far, the whole
/// chain for a reversal — while staying bit-identical to the from-scratch
/// Evaluator; rollback must restore every link, and under churn the live
/// Esw edges must stay exactly the consecutive pairs of every order.
/// Context-order checks: on RC-heavy starts with many contexts, candidates
/// that put a moved task after its successor's context (or before its
/// predecessor's), or that swap two contexts across an application edge,
/// are rejected early with verdicts and metrics equal to the full
/// Evaluator's.
/// Parking equivalence: with the communication edges between tasks on one
/// processor parked, verdicts and metrics still equal the full Evaluator's
/// on dense graphs under order-violating moves, and commit/discard keep
/// exactly those edges parked. Sparse reset: reset builds the full G' with
/// exactly those edges parked, a second reset equals a fresh evaluator's,
/// a cyclic state is rejected without touching anything, and an annealing
/// run never regrows the edge table that reset reserved.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "graph/topo.hpp"
#include "model/generators.hpp"
#include "model/registry.hpp"
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

/// The live Esw edges of the maintained graph are exactly the consecutive
/// pairs of every processor order of `sol`, each once.
void expect_links_match_orders(const Architecture& arch, const Solution& sol,
                               const IncrementalEvaluator& inc,
                               const std::string& where) {
  const SearchGraph& sg = inc.search_graph();
  ASSERT_LE(sg.graph.edge_capacity(), sg.edge_kind.size()) << where;
  std::vector<std::pair<NodeId, NodeId>> live;
  for (EdgeId e = 0; e < sg.graph.edge_capacity(); ++e) {
    if (sg.graph.edge_alive(e) && sg.edge_kind[e] == SearchEdgeKind::kSwSeq) {
      live.emplace_back(sg.graph.edge(e).src, sg.graph.edge(e).dst);
    }
  }
  std::vector<std::pair<NodeId, NodeId>> want;
  for (const ResourceId proc : arch.processor_ids()) {
    const auto order = sol.processor_order(proc);
    for (std::size_t i = 1; i < order.size(); ++i) {
      want.emplace_back(order[i - 1], order[i]);
    }
  }
  std::sort(live.begin(), live.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(live, want) << where;
}

TEST(ChainDiff, UnchangedOrderEmitsNoEdges) {
  const Application app = independent_app(8, 11);
  const Architecture arch =
      make_cpu_fpga_architecture(1000, from_us(10.0), 20'000'000);
  const Solution sol = Solution::all_software(app.graph, 0);

  IncrementalEvaluator inc(app.graph);
  ASSERT_TRUE(inc.reset(arch, sol).has_value());

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
  // The dirty links, checked and kept: the task's own and its predecessor's.
  EXPECT_EQ(d.kept, 2);
  expect_matches_full(app.graph, arch, cand, m);
  inc.commit();
}

TEST(ChainDiff, AdjacentSwapMidChainRebuildsThreeEdgeWindow) {
  const Application app = independent_app(8, 23);
  const Architecture arch =
      make_cpu_fpga_architecture(1000, from_us(10.0), 20'000'000);
  const Solution sol = Solution::all_software(app.graph, 0);

  IncrementalEvaluator inc(app.graph);
  ASSERT_TRUE(inc.reset(arch, sol).has_value());

  Solution cand = sol;
  cand.clear_touched();
  // Swap order slots 2 and 3 of the 8-task chain: edges (1,2), (2,3),
  // (3,4) become (1,3), (3,2), (2,4). The dirty tasks are the moved one
  // (slot 2), its old predecessor (slot 1) and its new one (slot 3); each
  // of their links changes, and no other link is looked at.
  const TaskId t = cand.processor_order(0)[2];
  cand.reposition(t, 3);

  const ChainCounters before = counters(inc);
  const auto m = inc.evaluate_candidate(arch, cand, cand.touched_resources(),
                                        cand.touched_tasks());
  ASSERT_TRUE(m.has_value());
  const ChainCounters d = delta(before, counters(inc));
  EXPECT_EQ(d.removed, 3);
  EXPECT_EQ(d.added, 3);
  EXPECT_EQ(d.kept, 0);
  expect_matches_full(app.graph, arch, cand, m);
  inc.commit();
}

TEST(ChainDiff, LongDistanceRepositionReplacesThreeLinks) {
  // Slot 5 -> slot 40 of a 50-task chain: a position diff tears down and
  // re-inserts the 37 edges from (4,5) to (40,41); by edge identity only
  // (4,5), (5,6) and (40,41) go, and (4,6), (40,5), (5,41) come.
  const std::size_t n = 50;
  const Application app = independent_app(n, 29);
  const Architecture arch =
      make_cpu_fpga_architecture(1000, from_us(10.0), 20'000'000);
  const Solution sol = Solution::all_software(app.graph, 0);

  IncrementalEvaluator inc(app.graph);
  ASSERT_TRUE(inc.reset(arch, sol).has_value());

  Solution cand = sol;
  cand.clear_touched();
  cand.reposition(cand.processor_order(0)[5], 40);

  const ChainCounters before = counters(inc);
  const auto m = inc.evaluate_candidate(arch, cand, cand.touched_resources(),
                                        cand.touched_tasks());
  ASSERT_TRUE(m.has_value());
  const ChainCounters d = delta(before, counters(inc));
  EXPECT_EQ(d.removed, 3);
  EXPECT_EQ(d.added, 3);
  EXPECT_EQ(d.kept, 0);
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
  ASSERT_TRUE(inc.reset(arch, sol).has_value());

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
  ASSERT_TRUE(inc.reset(arch, sol).has_value());

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
    EXPECT_EQ(d.kept, 0);
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
  ASSERT_TRUE(inc.reset(arch, sol).has_value());

  // Stage a reorder and discard it: every link must have been restored.
  // Then re-evaluate the identical committed order, whose dirty links the
  // check finds in place, so it emits nothing.
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
    expect_links_match_orders(arch, sol, inc,
                              "discard, step " + std::to_string(step));

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
    expect_links_match_orders(arch, sol, inc,
                              "no-op discard, step " + std::to_string(step));
  }
}

// ---- per-context CLB sums as deltas ----------------------------------------

TEST(ClbDeltas, MirrorStaysExactUnderRollbackChurn) {
  // The per-context CLB sums are maintained as deltas by the mutators and
  // are the only copy the evaluators read; a single missed update would
  // silently skew reconfiguration times. Churn through rejection-heavy
  // annealing and, after every step, audit every context of the current
  // state against a walk over the task graph.
  for (std::uint64_t seed = 401; seed <= 410; ++seed) {
    const Application app = chained_app(18, seed);
    Architecture arch =
        make_cpu_fpga_architecture(700, from_us(12.0), 10'000'000);
    Rng init(seed);
    Solution initial =
        Solution::random_partition(app.graph, arch, 0, 1, init);
    DseProblem prob(app.graph, arch, initial, {}, {}, false, false);
    const TaskGraph& tg = app.graph;

    const auto audit_mirror = [&](int step) {
      const Solution& cur = prob.current_solution();
      for (ResourceId rc : prob.current_architecture().reconfigurable_ids()) {
        for (std::size_t c = 0; c < cur.context_count(rc); ++c) {
          std::int32_t want = 0;
          for (TaskId t : cur.context_tasks(rc, c)) {
            want += tg.task(t).hw.at(cur.placement(t).impl).clbs;
          }
          ASSERT_EQ(cur.context_clbs(rc, c), want)
              << "seed " << seed << ", step " << step << ", context " << c;
        }
      }
    };

    audit_mirror(-1);
    Rng rng(seed * 97 + 1);
    Rng coin(seed ^ 0xF00Du);
    for (int i = 0; i < 400; ++i) {
      if (prob.propose(rng)) {
        // Bias to rejection: the mirror must survive rollback churn.
        if (coin.bernoulli(0.3)) {
          prob.accept();
        } else {
          prob.reject();
        }
      }
      audit_mirror(i);
      if (::testing::Test::HasFatalFailure()) break;
    }
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
    const std::optional<Metrics> start = inc.reset(arch, sol);
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

// ---- sparse reset -----------------------------------------------------------

constexpr ResourceId kCpu0 = 0;
constexpr ResourceId kRc = 1;

/// A random partition over cpu0 and the RC, after which every cpu0 task,
/// walked in order, moves to the end of cpu1 with probability 1/2. Both
/// orders stay subsequences of the partition's linear extension, so the
/// start stays acyclic.
Solution two_cpu_partition(const TaskGraph& tg, const Architecture& arch,
                           ResourceId cpu1, Rng& rng) {
  Solution sol = Solution::random_partition(tg, arch, kCpu0, kRc, rng);
  const auto order = sol.processor_order(kCpu0);
  const std::vector<TaskId> walk(order.begin(), order.end());
  for (const TaskId t : walk) {
    if (!rng.bernoulli(0.5)) continue;
    sol.remove_task(t);
    sol.insert_on_processor(t, cpu1, sol.processor_order(cpu1).size());
  }
  return sol;
}

/// `g` with every parked edge attached again, so endpoints and weights can
/// be read back.
Digraph with_parked_attached(const Digraph& g) {
  Digraph all = g;
  for (EdgeId e = 0; e < all.edge_capacity(); ++e) {
    if (all.edge_parked(e)) all.unpark_edge(e);
  }
  return all;
}

/// Edge for edge, `a` and `b` are the same realization: same ids, each
/// live or parked alike, same endpoints, weights and kinds, same node
/// weights, releases and statistics.
void expect_same_realization(const SearchGraph& a, const SearchGraph& b,
                             const std::string& where) {
  ASSERT_EQ(a.graph.edge_capacity(), b.graph.edge_capacity()) << where;
  EXPECT_EQ(a.graph.edge_count(), b.graph.edge_count()) << where;
  const Digraph all_a = with_parked_attached(a.graph);
  const Digraph all_b = with_parked_attached(b.graph);
  for (EdgeId e = 0; e < a.graph.edge_capacity(); ++e) {
    ASSERT_EQ(a.graph.edge_alive(e), b.graph.edge_alive(e))
        << where << ", edge " << e;
    ASSERT_EQ(a.graph.edge_parked(e), b.graph.edge_parked(e))
        << where << ", edge " << e;
    if (!all_a.edge_alive(e)) continue;
    EXPECT_EQ(all_a.edge(e).src, all_b.edge(e).src) << where << ", " << e;
    EXPECT_EQ(all_a.edge(e).dst, all_b.edge(e).dst) << where << ", " << e;
    EXPECT_EQ(all_a.edge_weight(e), all_b.edge_weight(e))
        << where << ", edge " << e;
    EXPECT_EQ(a.edge_kind[e], b.edge_kind[e]) << where << ", edge " << e;
  }
  EXPECT_EQ(a.node_weight, b.node_weight) << where;
  EXPECT_EQ(a.release, b.release) << where;
  EXPECT_EQ(a.init_reconfig, b.init_reconfig) << where;
  EXPECT_EQ(a.dyn_reconfig, b.dyn_reconfig) << where;
  EXPECT_EQ(a.comm_cross, b.comm_cross) << where;
  EXPECT_EQ(a.n_contexts, b.n_contexts) << where;
  EXPECT_EQ(a.clbs_loaded, b.clbs_loaded) << where;
  EXPECT_EQ(a.max_context_clbs, b.max_context_clbs) << where;
}

/// Right after a reset the maintained graph is the full G' with exactly
/// the co-processor communication edges parked: a parked id keeps its
/// endpoints and its (zero) weight, every other edge — live application
/// edges, Esw and Ehw — is the full builder's under the same id.
void expect_sparse_full_graph(const TaskGraph& tg, const Architecture& arch,
                              const Solution& sol,
                              const IncrementalEvaluator& inc,
                              const std::string& where) {
  expect_parked_exactly_co_processor(tg, arch, sol, inc, where);
  const SearchGraph& sparse = inc.search_graph();
  const SearchGraph full = build_search_graph(tg, arch, sol);
  ASSERT_EQ(sparse.graph.edge_capacity(), full.graph.edge_capacity())
      << where;
  const Digraph all = with_parked_attached(sparse.graph);
  all.check_consistency();
  for (EdgeId e = 0; e < full.graph.edge_capacity(); ++e) {
    ASSERT_TRUE(all.edge_alive(e)) << where << ", edge " << e;
    EXPECT_EQ(all.edge(e).src, full.graph.edge(e).src) << where << ", " << e;
    EXPECT_EQ(all.edge(e).dst, full.graph.edge(e).dst) << where << ", " << e;
    EXPECT_EQ(all.edge_weight(e), full.graph.edge_weight(e))
        << where << ", edge " << e;
    EXPECT_EQ(sparse.edge_kind[e], full.edge_kind[e]) << where << ", " << e;
  }
  EXPECT_EQ(sparse.node_weight, full.node_weight) << where;
  EXPECT_EQ(sparse.release, full.release) << where;
  EXPECT_EQ(sparse.comm_cross, full.comm_cross) << where;
}

TEST(SparseReset, IsTheFullGraphWithCoProcessorEdgesParked) {
  for (std::uint64_t seed = 601; seed <= 608; ++seed) {
    const Application app = dense_app(40, seed);
    const TaskGraph& tg = app.graph;
    Architecture arch =
        make_cpu_fpga_architecture(900, from_us(10.0), 20'000'000);
    const ResourceId cpu1 = arch.add_processor("cpu1");
    Rng rng(seed);
    const Solution sol = seed % 2 == 0
                             ? Solution::all_software(tg, kCpu0)
                             : two_cpu_partition(tg, arch, cpu1, rng);
    const std::string where = "seed " + std::to_string(seed);
    IncrementalEvaluator inc(tg);
    const std::optional<Metrics> got = inc.reset(arch, sol);
    ASSERT_TRUE(got.has_value()) << where;
    expect_metrics_equal(got, Evaluator(tg, arch).evaluate(sol), where);
    expect_sparse_full_graph(tg, arch, sol, inc, where);
  }
}

TEST(SparseReset, ResetAfterChurnMatchesAFreshEvaluator) {
  for (std::uint64_t seed = 611; seed <= 614; ++seed) {
    const Application app = dense_app(32, seed);
    const TaskGraph& tg = app.graph;
    Architecture arch =
        make_cpu_fpga_architecture(900, from_us(10.0), 20'000'000);
    const ResourceId cpu1 = arch.add_processor("cpu1");
    Rng init(seed);
    Solution sol = two_cpu_partition(tg, arch, cpu1, init);
    IncrementalEvaluator churned(tg);
    ASSERT_TRUE(churned.reset(arch, sol).has_value());
    Rng rng(seed * 17 + 3);
    // Three rounds of churn, each followed by a reset of the evaluator.
    for (int round = 0; round < 3; ++round) {
      const std::string where =
          "seed " + std::to_string(seed) + ", round " + std::to_string(round);
      int committed = 0;
      for (int step = 0; step < 300; ++step) {
        Solution cand = sol;
        cand.clear_touched();
        random_parking_move(tg, arch, cand, rng);
        if (!churned.evaluate_candidate(arch, cand,
                                        cand.touched_resources(),
                                        cand.touched_tasks())) {
          continue;
        }
        if (rng.bernoulli(0.5)) {
          churned.commit();
          sol = cand;
          ++committed;
        } else {
          churned.discard();
        }
      }
      EXPECT_GT(committed, 20) << where;
      const std::optional<Metrics> again = churned.reset(arch, sol);
      IncrementalEvaluator fresh(tg);
      const std::optional<Metrics> first = fresh.reset(arch, sol);
      expect_metrics_equal(again, first, where);
      expect_same_realization(churned.search_graph(), fresh.search_graph(),
                              where);
      expect_sparse_full_graph(tg, arch, sol, churned, where);
      // Both go on to the same verdicts and metrics.
      for (int step = 0; step < 100; ++step) {
        Solution cand = sol;
        cand.clear_touched();
        random_parking_move(tg, arch, cand, rng);
        const auto a = churned.evaluate_candidate(
            arch, cand, cand.touched_resources(), cand.touched_tasks());
        const auto b = fresh.evaluate_candidate(
            arch, cand, cand.touched_resources(), cand.touched_tasks());
        expect_metrics_equal(a, b, where + ", step " + std::to_string(step));
        if (a.has_value()) {
          churned.commit();
          fresh.commit();
          sol = cand;
        }
      }
    }
  }
}

TEST(SparseReset, CyclicStateIsRejectedAndLeavesTheEvaluatorAsItWas) {
  const Application app = dense_app(28, 621);
  const TaskGraph& tg = app.graph;
  Architecture arch =
      make_cpu_fpga_architecture(900, from_us(10.0), 20'000'000);
  (void)arch.add_processor("cpu1");
  Rng init(621);
  const Solution sol = Solution::random_partition(tg, arch, kCpu0, kRc, init);
  IncrementalEvaluator inc(tg);
  const std::optional<Metrics> start = inc.reset(arch, sol);
  ASSERT_TRUE(start.has_value());
  const SearchGraph before = inc.search_graph();

  // A parked edge running backwards: some edge's successor moved ahead of
  // its predecessor on the CPU.
  Solution backwards = Solution::all_software(tg, kCpu0);
  const CommEdge& c = tg.comm(0);
  backwards.reposition(c.dst, backwards.order_position(c.src));
  ASSERT_FALSE(Evaluator(tg, arch).evaluate(backwards).has_value());
  EXPECT_FALSE(inc.reset(arch, backwards).has_value());
  expect_same_realization(inc.search_graph(), before, "after the rejection");

  // The evaluator keeps evaluating against the state it had.
  Rng rng(622);
  Solution cur = sol;
  for (int step = 0; step < 100; ++step) {
    Solution cand = cur;
    cand.clear_touched();
    random_parking_move(tg, arch, cand, rng);
    const auto got = inc.evaluate_candidate(
        arch, cand, cand.touched_resources(), cand.touched_tasks());
    expect_metrics_equal(got, Evaluator(tg, arch).evaluate(cand),
                         "step " + std::to_string(step));
    if (got.has_value()) {
      inc.commit();
      cur = cand;
    }
  }
}

TEST(SparseReset, LargeSyntheticStartAgreesWithFullEvaluation) {
  const ModelSpec spec = load_model_spec("synthetic:5000");
  const TaskGraph& tg = spec.app.graph;
  const Architecture arch = make_cpu_fpga_architecture(
      2000, spec.tr_per_clb, spec.bus_bytes_per_second);
  const Solution start = Solution::all_software(tg, kCpu0);
  const DseProblem incremental(tg, arch, start);
  const DseProblem full(tg, arch, start, MoveConfig{}, CostWeights{}, false,
                        /*full_eval=*/true);
  expect_metrics_equal(incremental.current_metrics(), full.current_metrics(),
                       "synthetic:5000, all-software");
  EXPECT_EQ(incremental.incremental_stats()->comm_edges_parked,
            static_cast<std::int64_t>(tg.comm_count()));
}

// Reset reserves the edge table for the sequentialization edges a run adds,
// so no evaluation of an annealing run regrows it (a regrowth copies every
// edge id's slots and first-touches twice the pages, inside the reconcile
// phase). The shape is the replica-exchange one: synthetic:500 from the
// all-software start, 1 200 warm-up and 12 000 cooling iterations.
TEST(SparseReset, AnnealingRunNeverRegrowsTheEdgeTable) {
  const ModelSpec spec = load_model_spec("synthetic:500");
  const TaskGraph& tg = spec.app.graph;
  const Architecture arch = make_cpu_fpga_architecture(
      2000, spec.tr_per_clb, spec.bus_bytes_per_second);
  const Solution start = Solution::all_software(tg, kCpu0);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::string where = "seed " + std::to_string(seed);
    DseProblem problem(tg, arch, start);
    const IncrementalEvaluator* inc = problem.incremental_evaluator();
    ASSERT_NE(inc, nullptr);
    const Digraph& graph = inc->search_graph().graph;
    const TimeNs* table = graph.edge_weights().data();
    int regrowths = 0;
    std::size_t high_water = graph.edge_capacity();
    AnnealConfig config;
    config.seed = seed;
    config.warmup_iterations = 1'200;
    config.iterations = 12'000;
    config.on_iteration = [&](const IterationStat&) {
      if (graph.edge_weights().data() != table) {
        table = graph.edge_weights().data();
        ++regrowths;
      }
      high_water = std::max(high_water, graph.edge_capacity());
    };
    AnnealEngine engine(problem, config);
    (void)engine.run_to_completion();
    EXPECT_EQ(regrowths, 0) << where;
    // The run used ids past one per application edge and one per task, so
    // the reserve is what kept the table in place.
    EXPECT_GT(high_water, tg.comm_count() + tg.task_count()) << where;
  }
}


// ---- Esw links by edge identity ---------------------------------------------

TEST(EswLinks, MatchEveryProcessorOrderUnderChurn) {
  std::int64_t commits = 0;
  std::int64_t discards = 0;
  std::int64_t cyclic = 0;
  for (std::uint64_t seed = 631; seed <= 638; ++seed) {
    const Application app = dense_app(36, seed);
    const TaskGraph& tg = app.graph;
    Architecture arch =
        make_cpu_fpga_architecture(900, from_us(10.0), 20'000'000);
    const ResourceId cpu1 = arch.add_processor("cpu1");
    Rng init(seed);
    Solution sol = two_cpu_partition(tg, arch, cpu1, init);
    IncrementalEvaluator inc(tg);
    ASSERT_TRUE(inc.reset(arch, sol).has_value());
    expect_links_match_orders(arch, sol, inc,
                              "reset, seed " + std::to_string(seed));

    Rng rng(seed * 41 + 5);
    for (int step = 0; step < 400; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + ", step " + std::to_string(step);
      Solution cand = sol;
      cand.clear_touched();
      random_parking_move(tg, arch, cand, rng);
      const auto got = inc.evaluate_candidate(
          arch, cand, cand.touched_resources(), cand.touched_tasks());
      expect_metrics_equal(got, Evaluator(tg, arch).evaluate(cand), where);
      if (!got.has_value()) {
        ++cyclic;
        expect_links_match_orders(arch, sol, inc, where + " (cyclic)");
        continue;
      }
      expect_links_match_orders(arch, cand, inc, where + " (staged)");
      if (rng.bernoulli(0.5)) {
        inc.commit();
        sol = cand;
        ++commits;
        expect_links_match_orders(arch, sol, inc, where + " (commit)");
      } else {
        inc.discard();
        ++discards;
        expect_links_match_orders(arch, sol, inc, where + " (discard)");
      }
      if (::testing::Test::HasFailure()) FAIL() << where;
    }
  }
  EXPECT_GT(commits, 400);
  EXPECT_GT(discards, 400);
  EXPECT_GT(cyclic, 400);
}

// ---- context-order checks ---------------------------------------------------

/// Most hardware-capable tasks spread over many contexts of the RC, the
/// rest on cpu0. Tasks are placed in (ASAP level, id) order, as
/// random_partition places them, so the CPU order and the context sequence
/// both follow one linear extension and the start is acyclic. A new
/// context opens with probability 0.35, or when the task does not fit the
/// last one.
Solution rc_heavy_start(const TaskGraph& tg, const Architecture& arch,
                        Rng& rng) {
  const auto level = asap_levels(tg.digraph());
  std::vector<TaskId> order(tg.task_count());
  for (TaskId t = 0; t < tg.task_count(); ++t) order[t] = t;
  std::sort(order.begin(), order.end(), [&level](TaskId a, TaskId b) {
    return level[a] != level[b] ? level[a] < level[b] : a < b;
  });
  const Resource& dev = arch.reconfigurable(kRc);
  Solution sol(tg.task_count());
  for (const TaskId t : order) {
    const Task& task = tg.task(t);
    std::vector<std::uint32_t> fitting;
    for (std::uint32_t k = 0; k < task.hw.size(); ++k) {
      if (task.hw.at(k).clbs <= dev.n_clbs()) fitting.push_back(k);
    }
    if (fitting.empty() || rng.bernoulli(0.2)) {
      sol.insert_on_processor(t, kCpu0, sol.processor_order(kCpu0).size());
      continue;
    }
    const std::uint32_t impl = fitting[rng.index(fitting.size())];
    const std::int32_t clbs = task.hw.at(impl).clbs;
    const std::size_t n_ctx = sol.context_count(kRc);
    std::size_t ctx = n_ctx - 1;
    if (n_ctx == 0 || rng.bernoulli(0.35) ||
        sol.context_clbs(kRc, n_ctx - 1) + clbs > dev.n_clbs()) {
      ctx = sol.spawn_context_after(kRc,
                                    n_ctx == 0 ? Solution::kFront : n_ctx - 1);
    }
    sol.insert_in_context(t, kRc, ctx, impl, clbs);
  }
  sol.clear_touched();
  return sol;
}

/// One random move on an RC-heavy candidate: swap two adjacent contexts
/// (what reorder-contexts does; the journal names the RC and no task, so
/// the relaxer alone decides a cyclic swap), move an RC task into another
/// context, existing or fresh, or one of random_parking_move's. Returns
/// whether it swapped two contexts.
bool random_context_move(const TaskGraph& tg, const Architecture& arch,
                         Solution& cand, Rng& rng) {
  const double dice = rng.uniform01();
  const std::size_t n_ctx = cand.context_count(kRc);
  if (dice < 0.3 && n_ctx >= 2) {
    const std::size_t k = rng.index(n_ctx - 1);
    cand.swap_contexts(kRc, k, k + 1);
    return true;
  }
  if (dice < 0.7 && n_ctx >= 1) {
    std::vector<TaskId> on_rc;
    for (std::size_t c = 0; c < n_ctx; ++c) {
      const auto members = cand.context_tasks(kRc, c);
      on_rc.insert(on_rc.end(), members.begin(), members.end());
    }
    const TaskId t = on_rc[rng.index(on_rc.size())];
    const std::uint32_t impl = cand.placement(t).impl;
    cand.remove_task(t);
    const std::size_t left = cand.context_count(kRc);
    const std::size_t ctx =
        left > 0 && rng.bernoulli(0.7)
            ? rng.index(left)
            : cand.spawn_context_after(
                  kRc, left == 0 ? Solution::kFront : rng.index(left));
    cand.insert_in_context(t, kRc, ctx, impl, tg.task(t).hw.at(impl).clbs);
    return false;
  }
  random_parking_move(tg, arch, cand, rng);
  return false;
}

TEST(ContextOrder, EarlyRejectsMatchFullEvaluatorOnRcHeavyStarts) {
  std::int64_t feasible = 0;
  std::int64_t infeasible = 0;
  std::int64_t context_rejects = 0;
  std::int64_t cyclic_swaps = 0;
  for (std::uint64_t seed = 641; seed <= 648; ++seed) {
    const Application app = dense_app(40, seed);
    const TaskGraph& tg = app.graph;
    Architecture arch =
        make_cpu_fpga_architecture(900, from_us(10.0), 20'000'000);
    (void)arch.add_processor("cpu1");
    Rng init(seed);
    Solution sol = rc_heavy_start(tg, arch, init);
    ASSERT_GE(sol.context_count(kRc), 8u) << "seed " << seed;

    IncrementalEvaluator inc(tg);
    expect_metrics_equal(inc.reset(arch, sol),
                         Evaluator(tg, arch).evaluate(sol),
                         "reset, seed " + std::to_string(seed));
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;

    Rng rng(seed * 43 + 1);
    for (int step = 0; step < 400; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + ", step " + std::to_string(step);
      Solution cand = sol;
      cand.clear_touched();
      const bool swapped = random_context_move(tg, arch, cand, rng);
      const auto got = inc.evaluate_candidate(
          arch, cand, cand.touched_resources(), cand.touched_tasks());
      expect_metrics_equal(got, Evaluator(tg, arch).evaluate(cand), where);
      if (!got.has_value()) {
        ++infeasible;
        if (swapped) ++cyclic_swaps;
        expect_links_match_orders(arch, sol, inc, where + " (cyclic)");
        continue;
      }
      ++feasible;
      if (rng.bernoulli(0.5)) {
        inc.commit();
        sol = cand;
      } else {
        inc.discard();
      }
      expect_links_match_orders(arch, sol, inc, where);
      if (::testing::Test::HasFailure()) FAIL() << where;
    }
    context_rejects += inc.stats().context_rejects;
  }
  // Every branch is exercised: accepted deltas, early rejects of moved RC
  // tasks, and cyclic candidates only the relaxer finds, context swaps
  // among them.
  EXPECT_GT(feasible, 500);
  EXPECT_GT(context_rejects, 300);
  EXPECT_GT(cyclic_swaps, 200);
  EXPECT_LT(context_rejects, infeasible - cyclic_swaps);
}

}  // namespace
}  // namespace rdse
