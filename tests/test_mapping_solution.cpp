/// Tests for the Solution representation: placements, orders, contexts.

#include <gtest/gtest.h>

#include "mapping/solution.hpp"
#include "mapping/validation.hpp"
#include "model/motion_detection.hpp"

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

/// Processor 0's order must be exactly `want`, and the O(1) position read
/// must agree with it for every task.
void expect_order(const Solution& sol, const std::vector<TaskId>& want) {
  const auto order = sol.processor_order(0);
  ASSERT_EQ(std::vector<TaskId>(order.begin(), order.end()), want);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(sol.order_position(want[i]), i) << "task " << want[i];
  }
  sol.check_mirrors();
}

class SolutionFixture : public ::testing::Test {
 protected:
  SolutionFixture()
      : arch(make_cpu_fpga_architecture(300, from_us(22.5), 1'000'000)) {
    for (int i = 0; i < 5; ++i) {
      tg.add_task(hw_task("t" + std::to_string(i), 1.0 + i, 50));
    }
    tg.add_comm(0, 1, 100);
    tg.add_comm(1, 2, 100);
    tg.add_comm(2, 3, 100);
    tg.add_comm(3, 4, 100);
  }
  TaskGraph tg;
  Architecture arch;
};

TEST_F(SolutionFixture, AllSoftwareTopologicalOrder) {
  const Solution sol = Solution::all_software(tg, 0);
  const auto order = sol.processor_order(0);
  ASSERT_EQ(order.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(sol.placement(static_cast<TaskId>(i)).resource, 0u);
  }
  sol.check_mirrors();
  require_valid(tg, arch, sol);
}

TEST_F(SolutionFixture, InsertRemoveOnProcessor) {
  Solution sol(tg.task_count());
  sol.insert_on_processor(0, 0, 0);
  sol.insert_on_processor(1, 0, 0);  // prepends
  EXPECT_EQ(sol.processor_order(0)[0], 1u);
  EXPECT_EQ(sol.order_position(0), 1u);
  sol.remove_task(1);
  EXPECT_FALSE(sol.placement(1).assigned());
  EXPECT_EQ(sol.processor_order(0).size(), 1u);
  sol.check_mirrors();
  EXPECT_THROW((void)sol.order_position(1), Error);  // no longer placed

  sol.insert_on_processor(2, 0, 99);  // beyond the size: clamped (append)
  expect_order(sol, {0, 2});
  sol.insert_on_processor(3, 0, 1);  // middle: shifts the tail
  sol.insert_on_processor(4, 0, 3);  // exactly at the size: append
  sol.insert_on_processor(1, 0, 0);  // front
  expect_order(sol, {1, 0, 3, 2, 4});
  sol.remove_task(1);  // front
  expect_order(sol, {0, 3, 2, 4});
  sol.remove_task(3);  // middle
  expect_order(sol, {0, 2, 4});
  sol.remove_task(4);  // back
  expect_order(sol, {0, 2});
  EXPECT_THROW((void)sol.order_position(4), Error);
}

TEST_F(SolutionFixture, DoubleInsertThrows) {
  Solution sol(tg.task_count());
  sol.insert_on_processor(0, 0, 0);
  EXPECT_THROW(sol.insert_on_processor(0, 0, 0), Error);
}

TEST_F(SolutionFixture, ContextLifecycle) {
  Solution sol(tg.task_count());
  const std::size_t c0 = sol.spawn_context_after(1, Solution::kFront);
  EXPECT_EQ(c0, 0u);
  sol.insert_in_context(0, 1, c0, 0, tg.task(0).hw.at(0).clbs);
  sol.insert_in_context(1, 1, c0, 1, tg.task(1).hw.at(1).clbs);
  EXPECT_EQ(sol.context_count(1), 1u);
  EXPECT_EQ(sol.context_tasks(1, 0).size(), 2u);
  // 50 CLB base: impl0 = 50, impl1 = 75 (ratio 1.5).
  EXPECT_EQ(sol.context_clbs(1, 0), 50 + 75);

  EXPECT_THROW((void)sol.order_position(0), Error);  // not on a processor

  // Removing the last member collapses the context.
  sol.remove_task(0);
  EXPECT_EQ(sol.context_count(1), 1u);
  sol.remove_task(1);
  EXPECT_EQ(sol.context_count(1), 0u);
  sol.check_mirrors();
}

TEST_F(SolutionFixture, ContextCollapseRenumbersPlacements) {
  Solution sol(tg.task_count());
  const std::size_t c0 = sol.spawn_context_after(1, Solution::kFront);
  const std::size_t c1 = sol.spawn_context_after(1, c0);
  sol.insert_in_context(0, 1, c0, 0, tg.task(0).hw.at(0).clbs);
  sol.insert_in_context(1, 1, c1, 0, tg.task(1).hw.at(0).clbs);
  EXPECT_EQ(sol.placement(1).context, 1);
  sol.remove_task(0);  // context 0 dies, context 1 becomes 0
  EXPECT_EQ(sol.context_count(1), 1u);
  EXPECT_EQ(sol.placement(1).context, 0);
  sol.check_mirrors();
}

TEST_F(SolutionFixture, SpawnInMiddleShiftsLaterContexts) {
  Solution sol(tg.task_count());
  const std::size_t c0 = sol.spawn_context_after(1, Solution::kFront);
  const std::size_t c1 = sol.spawn_context_after(1, c0);
  sol.insert_in_context(0, 1, c0, 0, tg.task(0).hw.at(0).clbs);
  sol.insert_in_context(1, 1, c1, 0, tg.task(1).hw.at(0).clbs);
  const std::size_t mid = sol.spawn_context_after(1, c0);
  EXPECT_EQ(mid, 1u);
  EXPECT_EQ(sol.placement(1).context, 2);  // shifted
  sol.insert_in_context(2, 1, mid, 0, tg.task(2).hw.at(0).clbs);
  sol.check_mirrors();
}

TEST_F(SolutionFixture, SwapContexts) {
  Solution sol(tg.task_count());
  const std::size_t c0 = sol.spawn_context_after(1, Solution::kFront);
  const std::size_t c1 = sol.spawn_context_after(1, c0);
  sol.insert_in_context(0, 1, c0, 0, tg.task(0).hw.at(0).clbs);
  sol.insert_in_context(1, 1, c1, 0, tg.task(1).hw.at(0).clbs);
  sol.swap_contexts(1, 0, 1);
  EXPECT_EQ(sol.context_tasks(1, 0)[0], 1u);
  EXPECT_EQ(sol.context_tasks(1, 1)[0], 0u);
  EXPECT_EQ(sol.placement(0).context, 1);
  EXPECT_EQ(sol.placement(1).context, 0);
  sol.check_mirrors();
}

TEST_F(SolutionFixture, RepositionWithinOrder) {
  Solution sol = Solution::all_software(tg, 0);
  sol.reposition(4, 0);
  EXPECT_EQ(sol.processor_order(0)[0], 4u);
  EXPECT_EQ(sol.order_position(4), 0u);
  sol.reposition(4, 99);  // clamped to the end
  EXPECT_EQ(sol.processor_order(0)[4], 4u);
  sol.check_mirrors();

  sol.reposition(3, 0);  // to the front
  expect_order(sol, {3, 0, 1, 2, 4});
  sol.reposition(0, 4);  // to the back
  expect_order(sol, {3, 1, 2, 4, 0});
  sol.reposition(2, 2);  // same slot: order unchanged
  expect_order(sol, {3, 1, 2, 4, 0});
  sol.reposition(4, 1);  // backwards inside the order
  expect_order(sol, {3, 4, 1, 2, 0});
  sol.reposition(3, 2);  // forwards inside the order
  expect_order(sol, {4, 1, 3, 2, 0});
  Solution unplaced(tg.task_count());
  EXPECT_THROW(unplaced.reposition(0, 0), Error);
}

TEST_F(SolutionFixture, SetImplOnlyOnRc) {
  Solution sol(tg.task_count());
  sol.insert_on_processor(0, 0, 0);
  EXPECT_THROW(sol.set_impl(0, 1, tg.task(0).hw.at(1).clbs), Error);
  const std::size_t c = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(1, 1, c, 0, tg.task(1).hw.at(0).clbs);
  sol.set_impl(1, 2, tg.task(1).hw.at(2).clbs);
  EXPECT_EQ(sol.placement(1).impl, 2u);
}

TEST_F(SolutionFixture, AsicMembership) {
  Architecture arch2 = arch;
  const ResourceId asic = arch2.add_asic("asic0");
  Solution sol(tg.task_count());
  sol.insert_on_asic(0, asic, 1);
  EXPECT_EQ(sol.asic_tasks(asic).size(), 1u);
  EXPECT_EQ(sol.placement(0).impl, 1u);
  sol.remove_task(0);
  EXPECT_TRUE(sol.asic_tasks(asic).empty());
  sol.check_mirrors();
}

TEST_F(SolutionFixture, EqualityAndCopy) {
  const Solution a = Solution::all_software(tg, 0);
  Solution b = a;
  EXPECT_EQ(a, b);
  b.reposition(0, 2);
  EXPECT_NE(a, b);
}

class RandomPartition : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPartition, AlwaysValidOnMotionDetection) {
  const Application app = make_motion_detection_app();
  for (const std::int32_t clbs : {100, 250, 1000, 2000, 10'000}) {
    Architecture arch = make_cpu_fpga_architecture(
        clbs, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
    Rng rng(GetParam() * 1000 + static_cast<std::uint64_t>(clbs));
    const Solution sol =
        Solution::random_partition(app.graph, arch, 0, 1, rng);
    sol.check_mirrors();
    require_valid(app.graph, arch, sol);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPartition,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(RandomPartitionEdge, NoHwCapableTasksFallsBackToSoftware) {
  TaskGraph tg;
  Task t;
  t.name = "swonly";
  t.functionality = "F";
  t.sw_time = from_ms(1.0);
  tg.add_task(std::move(t));
  Architecture arch = make_cpu_fpga_architecture(100, 10, 1000);
  Rng rng(1);
  const Solution sol = Solution::random_partition(tg, arch, 0, 1, rng);
  EXPECT_EQ(sol.tasks_on(0), 1u);
  EXPECT_EQ(sol.context_count(1), 0u);
}

}  // namespace
}  // namespace rdse
