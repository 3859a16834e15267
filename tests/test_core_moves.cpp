/// Tests for the §4.2 move classes: realization semantics, §4.3 spawn rule,
/// null-move cases, a fuzz property — no move sequence may ever corrupt the
/// solution (cyclic realizations are legal and rejected by evaluation) — and
/// draw-for-draw equivalence of m1 with its linear-walk reference.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/moves.hpp"
#include "mapping/validation.hpp"
#include "model/generators.hpp"
#include "model/motion_detection.hpp"
#include "sched/evaluator.hpp"

namespace rdse {
namespace {

Task hw_task(const std::string& name, double ms, std::int32_t clbs) {
  Task t;
  t.name = name;
  t.functionality = "F";
  t.sw_time = from_ms(ms);
  t.hw = make_pareto_impls(t.sw_time, clbs, 4.0, 3);
  return t;
}

/// 4 independent tasks + CPU + 150-CLB FPGA.
class MovesFixture : public ::testing::Test {
 protected:
  MovesFixture()
      : arch(make_cpu_fpga_architecture(150, from_us(10), 1'000'000)) {
    for (int i = 0; i < 4; ++i) {
      tg.add_task(hw_task("t" + std::to_string(i), 1.0 + i, 60));
    }
    tg.add_comm(0, 1, 100);
    tg.add_comm(2, 3, 100);
  }
  TaskGraph tg;
  Architecture arch;
  Rng rng{99};
};

TEST_F(MovesFixture, ReorderSwMovesTaskNextToDestination) {
  Solution sol = Solution::all_software(tg, 0);  // order 0,1,2,3
  // Move 2 before 1 (2 is independent of 0 and 1).
  EXPECT_TRUE(apply_reorder_sw(tg, arch, sol, 2, 1, /*after=*/false, rng));
  EXPECT_EQ(sol.order_position(2), 1u);
  EXPECT_EQ(sol.order_position(1), 2u);
  require_valid(tg, arch, sol);
}

TEST_F(MovesFixture, ReorderSwClampsToPrecedenceWindow) {
  Solution sol = Solution::all_software(tg, 0);
  // 0 -> 1: requesting "1 before 0" clamps into the feasible window; the
  // clamped target equals 1's current slot, so the draw is a null move and
  // the order is untouched.
  EXPECT_FALSE(apply_reorder_sw(tg, arch, sol, 1, 0, /*after=*/false, rng));
  EXPECT_EQ(sol.order_position(1), 1u);
  // Moving 1 to the tail is feasible (no same-processor successors).
  EXPECT_TRUE(apply_reorder_sw(tg, arch, sol, 1, 3, /*after=*/true, rng));
  EXPECT_EQ(sol.order_position(1), 3u);
  require_valid(tg, arch, sol);
}

TEST_F(MovesFixture, ReorderSwNullWhenNoSlot) {
  TaskGraph chain;
  chain.add_task(hw_task("a", 1.0, 10));
  chain.add_task(hw_task("b", 1.0, 10));
  chain.add_comm(0, 1, 10);
  Solution sol = Solution::all_software(chain, 0);
  // Both orders of a 2-chain other than a,b are precedence-infeasible.
  EXPECT_FALSE(apply_reorder_sw(chain, arch, sol, 1, 0, false, rng));
  EXPECT_FALSE(apply_reorder_sw(chain, arch, sol, 0, 1, true, rng));
}

TEST_F(MovesFixture, ReorderSwNullOnNonProcessor) {
  Solution sol = Solution::all_software(tg, 0);
  sol.remove_task(0);
  sol.remove_task(1);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(0, 1, ctx, 0, tg.task(0).hw.at(0).clbs);
  sol.insert_in_context(1, 1, ctx, 0, tg.task(1).hw.at(0).clbs);
  // §4.2: same-resource draw on an RC context performs no move.
  EXPECT_FALSE(apply_reorder_sw(tg, arch, sol, 0, 1, false, rng));
}

TEST_F(MovesFixture, ReassignToContextJoinsDestination) {
  Solution sol = Solution::all_software(tg, 0);
  sol.remove_task(2);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(2, 1, ctx, 0, tg.task(2).hw.at(0).clbs);  // 60 CLBs
  // Move task 3 to task 2's context (60 + 60 <= 150: fits).
  EXPECT_TRUE(apply_reassign(tg, arch, sol, 3, 2, rng));
  EXPECT_EQ(sol.placement(3).resource, 1u);
  EXPECT_EQ(sol.placement(3).context, sol.placement(2).context);
  EXPECT_EQ(sol.context_count(1), 1u);
  require_valid(tg, arch, sol);
}

TEST_F(MovesFixture, ReassignSpawnsOnCapacityOverflow) {
  Solution sol = Solution::all_software(tg, 0);
  sol.remove_task(0);
  sol.remove_task(1);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  // 90 CLBs (impl1 = 60 * 1.5)
  sol.insert_in_context(0, 1, ctx, 1, tg.task(0).hw.at(1).clbs);
  // +60 = 150 CLBs, full
  sol.insert_in_context(1, 1, ctx, 0, tg.task(1).hw.at(0).clbs);
  // Moving task 2 (>= 60 CLBs) to 0's context must spawn a new context
  // right after it (§4.3).
  EXPECT_TRUE(apply_reassign(tg, arch, sol, 2, 0, rng));
  EXPECT_EQ(sol.context_count(1), 2u);
  EXPECT_EQ(sol.placement(2).context, 1);
  require_valid(tg, arch, sol);
}

TEST_F(MovesFixture, ReassignToProcessorInsertsAdjacent) {
  // Independent tasks: every insertion position is precedence-feasible.
  TaskGraph indep;
  for (int i = 0; i < 4; ++i) {
    indep.add_task(hw_task("i" + std::to_string(i), 1.0, 60));
  }
  Solution sol = Solution::all_software(indep, 0);
  sol.remove_task(0);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(0, 1, ctx, 0, indep.task(0).hw.at(0).clbs);
  EXPECT_TRUE(apply_reassign(indep, arch, sol, 0, 2, rng));
  EXPECT_EQ(sol.placement(0).resource, 0u);
  const std::size_t p0 = sol.order_position(0);
  const std::size_t p2 = sol.order_position(2);
  EXPECT_LE(p0 > p2 ? p0 - p2 : p2 - p0, 1u);
  EXPECT_EQ(sol.context_count(1), 0u);  // emptied context collapsed
  require_valid(indep, arch, sol);
}

TEST_F(MovesFixture, ReassignNullCases) {
  Solution sol = Solution::all_software(tg, 0);
  EXPECT_FALSE(apply_reassign(tg, arch, sol, 1, 1, rng));  // vs == vd
  EXPECT_FALSE(apply_reassign(tg, arch, sol, 0, 1, rng));  // same processor
}

TEST_F(MovesFixture, ReassignRejectsNonFittingTask) {
  TaskGraph big;
  big.add_task(hw_task("big", 1.0, 500));  // min impl 500 > 150 device
  big.add_task(hw_task("small", 1.0, 10));
  Solution sol = Solution::all_software(big, 0);
  sol.remove_task(1);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(1, 1, ctx, 0, big.task(1).hw.at(0).clbs);
  EXPECT_FALSE(apply_reassign(big, arch, sol, 0, 1, rng));
  EXPECT_EQ(sol.placement(0).resource, 0u);  // untouched
}

TEST_F(MovesFixture, ChangeImplRespectsCapacity) {
  Solution sol = Solution::all_software(tg, 0);
  sol.remove_task(0);
  sol.remove_task(1);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(0, 1, ctx, 0, tg.task(0).hw.at(0).clbs);  // 60
  // 60 -> 120/150 used
  sol.insert_in_context(1, 1, ctx, 0, tg.task(1).hw.at(0).clbs);
  // Task 0's alternatives: impl1 = 90 (would make 150... exactly fits),
  // impl2 = 135 (overflow). Try many draws; impl2 must never be chosen.
  for (int i = 0; i < 100; ++i) {
    (void)apply_change_impl(tg, arch, sol, 0, rng);
    const std::int32_t used = sol.context_clbs(1, ctx);
    EXPECT_LE(used, 150);
  }
  require_valid(tg, arch, sol);
}

TEST_F(MovesFixture, ChangeImplNullOnProcessorTask) {
  Solution sol = Solution::all_software(tg, 0);
  EXPECT_FALSE(apply_change_impl(tg, arch, sol, 0, rng));
}

TEST_F(MovesFixture, ReorderContextsSwapsAdjacent) {
  Solution sol = Solution::all_software(tg, 0);
  sol.remove_task(0);
  sol.remove_task(2);
  const std::size_t c0 = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(0, 1, c0, 0, tg.task(0).hw.at(0).clbs);
  const std::size_t c1 = sol.spawn_context_after(1, c0);
  sol.insert_in_context(2, 1, c1, 0, tg.task(2).hw.at(0).clbs);
  EXPECT_TRUE(apply_reorder_contexts(arch, sol, rng));
  EXPECT_EQ(sol.context_tasks(1, 0)[0], 2u);
  sol.check_mirrors();
}

TEST_F(MovesFixture, ReorderContextsNullWithoutTwoContexts) {
  Solution sol = Solution::all_software(tg, 0);
  EXPECT_FALSE(apply_reorder_contexts(arch, sol, rng));
}

TEST_F(MovesFixture, ResourceTargetReachesEmptyRc) {
  Solution sol = Solution::all_software(tg, 0);
  EXPECT_TRUE(apply_reassign_to_resource(tg, arch, sol, 0, 1, rng));
  EXPECT_EQ(sol.placement(0).resource, 1u);
  EXPECT_EQ(sol.context_count(1), 1u);
  require_valid(tg, arch, sol);
}

TEST_F(MovesFixture, CreateResourceMovesTask) {
  Architecture arch2 = arch;
  Solution sol = Solution::all_software(tg, 0);
  const std::size_t before = arch2.resource_count();
  EXPECT_TRUE(apply_create_resource(tg, arch2, sol, 2, rng));
  EXPECT_EQ(arch2.resource_count(), before + 1);
  EXPECT_NE(sol.placement(2).resource, 0u);
  require_valid(tg, arch2, sol);
}

TEST_F(MovesFixture, RemoveResourceRequiresLoneTask) {
  // Independent tasks: the refugee can land anywhere in the order.
  TaskGraph indep;
  for (int i = 0; i < 4; ++i) {
    indep.add_task(hw_task("i" + std::to_string(i), 1.0, 60));
  }
  Architecture arch2 = arch;
  Solution sol = Solution::all_software(indep, 0);
  // No lone resource exists (all four tasks on the CPU; FPGA empty but
  // holds zero tasks, not one).
  EXPECT_FALSE(apply_remove_resource(indep, arch2, sol, 1, rng));
  // Put one task alone on an ASIC; then it can be removed.
  const ResourceId asic = arch2.add_asic("asic0");
  sol.remove_task(3);
  sol.insert_on_asic(3, asic, 0);
  EXPECT_TRUE(apply_remove_resource(indep, arch2, sol, 0, rng));
  EXPECT_FALSE(arch2.alive(asic));
  EXPECT_EQ(sol.placement(3).resource, 0u);
  require_valid(indep, arch2, sol);
}

TEST_F(MovesFixture, RemoveResourceNeverKillsLastProcessor) {
  Architecture arch2{Bus(1'000'000)};
  arch2.add_processor("cpu0");
  const ResourceId rc = arch2.add_reconfigurable("fpga0", 150, from_us(10));
  (void)rc;
  TaskGraph one;
  one.add_task(hw_task("only", 1.0, 10));
  Solution sol = Solution::all_software(one, 0);
  // cpu0 holds exactly one task but is the last processor.
  EXPECT_FALSE(apply_remove_resource(one, arch2, sol, 0, rng));
  EXPECT_TRUE(arch2.alive(0));
}

// ---- fuzz property ---------------------------------------------------------

class MoveFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MoveFuzz, NoMoveSequenceCorruptsTheSolution) {
  const Application app = make_motion_detection_app();
  Architecture arch = make_cpu_fpga_architecture(
      600, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  const Evaluator ev(app.graph, arch);
  Rng rng(GetParam());
  Solution sol = Solution::random_partition(app.graph, arch, 0, 1, rng);
  MoveConfig config;
  config.p_zero = 0.0;
  int applied = 0;
  for (int i = 0; i < 4'000; ++i) {
    Architecture cand_arch = arch;
    Solution cand = sol;
    const MoveOutcome out =
        generate_move(app.graph, cand_arch, cand, config, rng);
    if (!out.applied) {
      ASSERT_EQ(cand, sol) << "null move must leave the candidate untouched";
      continue;
    }
    ++applied;
    cand.check_mirrors();
    const auto bad = validate_solution(app.graph, cand_arch, cand);
    // The only admissible violation is a cyclic realization (§4.3), which
    // evaluation rejects.
    for (const auto& b : bad) {
      ASSERT_NE(b.find("cycle"), std::string::npos) << b;
    }
    const auto m = ev.evaluate(cand);
    ASSERT_EQ(m.has_value(), bad.empty());
    if (m.has_value() && rng.bernoulli(0.7)) {
      sol = std::move(cand);
    }
  }
  EXPECT_GT(applied, 500);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoveFuzz,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// ---- order-position mirror: equivalence with the linear walk ---------------

/// m1 as realized before Solution kept its order-position mirror: every
/// position comes from a linear walk of the processor order, once per
/// in/out edge of vs. This is the reference apply_reorder_sw must match
/// draw for draw; it exists only here.
bool reference_reorder_sw(const TaskGraph& tg, const Architecture& arch,
                          Solution& sol, TaskId vs, TaskId vd, bool after) {
  if (vs == vd) return false;
  const Placement& ps = sol.placement(vs);
  const Placement& pd = sol.placement(vd);
  if (!ps.assigned() || ps.resource != pd.resource) return false;
  if (arch.resource(ps.resource).kind() != ResourceKind::kProcessor) {
    return false;
  }
  const auto order = sol.processor_order(ps.resource);
  std::size_t vd_idx = 0;
  std::size_t vs_idx = 0;
  for (std::size_t i = 0, j = 0; i < order.size(); ++i) {
    if (order[i] == vs) {
      vs_idx = i;
      continue;
    }
    if (order[i] == vd) vd_idx = j;
    ++j;
  }
  std::size_t target = vd_idx + (after ? 1 : 0);
  std::size_t lo = 0;
  std::size_t hi = order.size() - 1;
  const Digraph& g = tg.digraph();
  auto index_without_vs = [&](TaskId t) {
    std::size_t j = 0;
    for (TaskId u : order) {
      if (u == vs) continue;
      if (u == t) return j;
      ++j;
    }
    ADD_FAILURE() << "task " << t << " missing from its processor order";
    return j;
  };
  for (const HalfEdge& h : g.in_half(vs)) {
    const TaskId p = h.node;
    if (sol.placement(p).resource == ps.resource &&
        sol.placement(p).context == -1) {
      lo = std::max(lo, index_without_vs(p) + 1);
    }
  }
  for (const HalfEdge& h : g.out_half(vs)) {
    const TaskId s = h.node;
    if (sol.placement(s).resource == ps.resource &&
        sol.placement(s).context == -1) {
      hi = std::min(hi, index_without_vs(s));
    }
  }
  if (lo > hi) return false;
  target = std::clamp(target, lo, hi);
  if (target == vs_idx) return false;
  sol.reposition(vs, target);
  return true;
}

std::size_t total_contexts(const Solution& sol, const Architecture& arch) {
  std::size_t n = 0;
  for (ResourceId rc : arch.reconfigurable_ids()) n += sol.context_count(rc);
  return n;
}

/// Dense graphs (narrow layers, high edge probability) so most tasks share
/// direct precedence with many others on the processor; odd seeds add a
/// second processor so m2 moves tasks between two orders.
class ReorderSwReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReorderSwReference, MirrorMatchesLinearWalkDrawForDraw) {
  Rng gen(GetParam());
  AppGenParams params;
  params.dag.node_count = 30 + gen.index(40);
  params.dag.max_width = 2 + gen.index(2);
  params.dag.edge_probability = 0.8;
  params.hw_capable_fraction = 0.8;
  const Application app = random_application(params, gen);
  const TaskGraph& tg = app.graph;
  const std::size_t n = tg.task_count();
  Architecture arch = make_cpu_fpga_architecture(250, from_us(10), 1'000'000);
  if (GetParam() % 2 == 1) arch.add_processor("cpu1");
  const auto ids = arch.live_ids();

  for (const bool random_start : {false, true}) {
    SCOPED_TRACE(random_start ? "random_partition" : "all_software");
    Rng rng(GetParam() * 7919 + (random_start ? 1 : 0));
    Solution sol = Solution::all_software(tg, 0);
    if (random_start) sol = Solution::random_partition(tg, arch, 0, 1, rng);
    sol.check_mirrors();
    int m1_draws = 0;
    int m1_applied = 0;
    int m2_applied = 0;
    int spawns = 0;
    int collapses = 0;
    while (m1_draws < 600) {
      if (rng.bernoulli(0.2)) {
        // m2, task- or resource-addressed: moves tasks between the orders
        // and the RC, spawning and collapsing contexts on the way.
        const std::size_t contexts_before = total_contexts(sol, arch);
        const auto vs = static_cast<TaskId>(rng.index(n));
        bool applied = false;
        if (rng.bernoulli(0.5)) {
          const auto vd = static_cast<TaskId>(rng.index(n));
          applied = apply_reassign(tg, arch, sol, vs, vd, rng);
        } else {
          const ResourceId target = ids[rng.index(ids.size())];
          applied = apply_reassign_to_resource(tg, arch, sol, vs, target, rng);
        }
        sol.check_mirrors();
        m2_applied += applied ? 1 : 0;
        const std::size_t contexts_after = total_contexts(sol, arch);
        spawns += contexts_after > contexts_before ? 1 : 0;
        collapses += contexts_after < contexts_before ? 1 : 0;
        continue;
      }
      // m1: mostly vd from vs's own order (a real reorder attempt), some
      // unconstrained draws for the cross-resource null cases.
      ++m1_draws;
      const auto vs = static_cast<TaskId>(rng.index(n));
      const auto order = sol.processor_order(sol.placement(vs).resource);
      auto vd = static_cast<TaskId>(rng.index(n));
      if (!order.empty() && rng.bernoulli(0.85)) {
        vd = order[rng.index(order.size())];
      }
      const bool after = rng.bernoulli(0.5);
      SCOPED_TRACE("vs=" + std::to_string(vs) + " vd=" + std::to_string(vd));
      Solution got = sol;
      Solution want = sol;
      const bool got_applied =
          apply_reorder_sw(tg, arch, got, vs, vd, after, rng);
      const bool want_applied =
          reference_reorder_sw(tg, arch, want, vs, vd, after);
      ASSERT_EQ(got_applied, want_applied) << "after=" << after;
      ASSERT_EQ(got, want) << "after=" << after;
      got.check_mirrors();
      m1_applied += got_applied ? 1 : 0;
      sol = std::move(got);
    }
    EXPECT_GT(m1_applied, 50);
    EXPECT_GT(m2_applied, 20);
    EXPECT_GT(spawns, 0);
    EXPECT_GT(collapses, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(DenseGraphs, ReorderSwReference,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(MoveNames, AllKindsHaveNames) {
  for (std::size_t k = 0; k < kMoveKindCount; ++k) {
    EXPECT_STRNE(to_string(static_cast<MoveKind>(k)), "?");
  }
}

}  // namespace
}  // namespace rdse
