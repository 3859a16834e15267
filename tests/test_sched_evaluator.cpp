/// Tests for the §4.4 makespan evaluator on hand-computable scenarios.

#include <gtest/gtest.h>

#include "mapping/validation.hpp"
#include "model/motion_detection.hpp"
#include "sched/evaluator.hpp"

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

/// Chain a->b->c on CPU + 1000-CLB FPGA; bus 1 byte/us.
class EvaluatorFixture : public ::testing::Test {
 protected:
  EvaluatorFixture()
      : arch(make_cpu_fpga_architecture(1000, from_us(10.0), 1'000'000)),
        ev(tg, arch) {}

  void build() {
    a = tg.add_task(hw_task("a", 2.0, 100));
    b = tg.add_task(hw_task("b", 8.0, 100, 8.0));
    c = tg.add_task(hw_task("c", 3.0, 100));
    tg.add_comm(a, b, 1000);   // 1 ms when crossing
    tg.add_comm(b, c, 2000);   // 2 ms when crossing
  }

  TaskGraph tg;
  Architecture arch;
  Evaluator ev;
  TaskId a{}, b{}, c{};
};

TEST_F(EvaluatorFixture, AllSoftwareEqualsSwSum) {
  build();
  const Solution sol = Solution::all_software(tg, 0);
  const auto m = ev.evaluate(sol);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->makespan, from_ms(13.0));
  EXPECT_EQ(m->sw_tasks, 3);
  EXPECT_EQ(m->hw_tasks, 0);
  EXPECT_EQ(m->n_contexts, 0);
  EXPECT_EQ(m->total_reconfig(), 0);
  EXPECT_EQ(m->sw_busy, from_ms(13.0));
}

TEST_F(EvaluatorFixture, SingleHwTaskHandComputed) {
  build();
  Solution sol(tg.task_count());
  sol.insert_on_processor(a, 0, 0);
  sol.insert_on_processor(c, 0, 1);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  // 100 CLB, 8/8 = 1 ms
  sol.insert_in_context(b, 1, ctx, 0, tg.task(b).hw.at(0).clbs);

  const auto m = ev.evaluate(sol);
  ASSERT_TRUE(m.has_value());
  // Timeline: a [0,2]; b starts at max(release=1ms, a.finish 2 + comm 1) = 3,
  // runs 1 ms -> 4; c starts 4 + comm 2 = 6, runs 3 -> 9.
  EXPECT_EQ(m->makespan, from_ms(9.0));
  EXPECT_EQ(m->init_reconfig, from_us(10.0) * 100);
  EXPECT_EQ(m->dyn_reconfig, 0);
  EXPECT_EQ(m->comm_cross, from_ms(3.0));
  EXPECT_EQ(m->n_contexts, 1);
  EXPECT_EQ(m->clbs_loaded, 100);
}

TEST_F(EvaluatorFixture, ReleaseDominatesWhenReconfigSlow) {
  build();
  // Same mapping on a slow-reconfiguring device: 100 CLB * 100 us = 10 ms.
  Architecture slow = make_cpu_fpga_architecture(1000, from_us(100.0),
                                                 1'000'000);
  Evaluator ev2(tg, slow);
  Solution sol(tg.task_count());
  sol.insert_on_processor(a, 0, 0);
  sol.insert_on_processor(c, 0, 1);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(b, 1, ctx, 0, tg.task(b).hw.at(0).clbs);
  const auto m = ev2.evaluate(sol);
  ASSERT_TRUE(m.has_value());
  // b cannot start before the 10 ms initial load: 10 + 1 + 2 + 3 = 16.
  EXPECT_EQ(m->makespan, from_ms(16.0));
}

TEST_F(EvaluatorFixture, TwoContextsAddDynamicReconfig) {
  build();
  Solution sol(tg.task_count());
  sol.insert_on_processor(a, 0, 0);
  const std::size_t c0 = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(b, 1, c0, 0, tg.task(b).hw.at(0).clbs);
  const std::size_t c1 = sol.spawn_context_after(1, c0);
  // 100 CLB context
  sol.insert_in_context(c, 1, c1, 0, tg.task(c).hw.at(0).clbs);
  const auto m = ev.evaluate(sol);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->n_contexts, 2);
  EXPECT_EQ(m->init_reconfig, from_ms(1.0));
  EXPECT_EQ(m->dyn_reconfig, from_ms(1.0));
  // a [0,2]; b starts max(1, 2+1)=3 ends 4; reconfig C2 4->5; c starts
  // max(5, 4 + cross-context comm 2) = 6... comm and reconfig are parallel
  // edges: start = max(4+1, 4+2) = 6; c runs 3/4 = 0.75 -> 6.75.
  EXPECT_EQ(m->makespan, from_ms(6.75));
}

TEST_F(EvaluatorFixture, InfeasibleOrderReturnsNullopt) {
  build();
  Solution sol(tg.task_count());
  sol.insert_on_processor(b, 0, 0);
  sol.insert_on_processor(a, 0, 1);
  sol.insert_on_processor(c, 0, 2);
  EXPECT_FALSE(ev.evaluate(sol).has_value());
  EXPECT_FALSE(ev.evaluate_detailed(sol).has_value());
}

TEST_F(EvaluatorFixture, HwParallelismInsideContext) {
  // Independent tasks x, y placed in one context run concurrently.
  TaskGraph g2;
  const TaskId x = g2.add_task(hw_task("x", 4.0, 100));
  const TaskId y = g2.add_task(hw_task("y", 4.0, 100));
  Evaluator ev2(g2, arch);
  Solution sol(g2.task_count());
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  // 1 ms each at speedup 4
  sol.insert_in_context(x, 1, ctx, 0, g2.task(x).hw.at(0).clbs);
  sol.insert_in_context(y, 1, ctx, 0, g2.task(y).hw.at(0).clbs);
  const auto m = ev2.evaluate(sol);
  ASSERT_TRUE(m.has_value());
  // release 2 ms (200 CLBs at 10 us), then both run in parallel for 1 ms.
  EXPECT_EQ(m->makespan, from_ms(3.0));
  EXPECT_EQ(m->hw_busy, from_ms(2.0));
}

TEST_F(EvaluatorFixture, MetricsIdentityHoldsOnMotionDetection) {
  // Sanity on a real application: makespan >= max(sw_busy on the critical
  // resource is not provable in general, but reconfiguration totals and
  // context counts must be consistent).
  const Application app = make_motion_detection_app();
  Architecture ma = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  Evaluator mev(app.graph, ma);
  Rng rng(77);
  const Solution sol =
      Solution::random_partition(app.graph, ma, 0, 1, rng);
  const auto m = mev.evaluate(sol);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->sw_tasks + m->hw_tasks, 28);
  EXPECT_EQ(m->total_reconfig(), m->init_reconfig + m->dyn_reconfig);
  const auto& dev = ma.reconfigurable(1);
  EXPECT_EQ(m->total_reconfig(),
            dev.reconfiguration_time(m->clbs_loaded));
  EXPECT_GE(m->makespan, m->sw_busy);  // single CPU executes serially
  if (m->n_contexts > 0) {
    EXPECT_LE(m->max_context_clbs, dev.n_clbs());
  }
}

}  // namespace
}  // namespace rdse
