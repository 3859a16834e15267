/// Tests for the solution validator (failure injection).

#include <gtest/gtest.h>

#include "mapping/validation.hpp"

namespace rdse {
namespace {

Task hw_task(const std::string& name, double ms, std::int32_t clbs) {
  Task t;
  t.name = name;
  t.functionality = "F";
  t.sw_time = from_ms(ms);
  t.hw = make_pareto_impls(t.sw_time, clbs, 4.0, 2);
  return t;
}

Task sw_task(const std::string& name, double ms) {
  Task t;
  t.name = name;
  t.functionality = "F";
  t.sw_time = from_ms(ms);
  return t;
}

class ValidationFixture : public ::testing::Test {
 protected:
  ValidationFixture()
      : arch(make_cpu_fpga_architecture(100, from_us(22.5), 1'000'000)) {
    tg.add_task(hw_task("a", 1.0, 60));
    tg.add_task(hw_task("b", 2.0, 60));
    tg.add_task(sw_task("c", 3.0));
    tg.add_comm(0, 1, 100);
    tg.add_comm(1, 2, 100);
  }
  TaskGraph tg;
  Architecture arch;
};

TEST_F(ValidationFixture, ValidSolutionPasses) {
  const Solution sol = Solution::all_software(tg, 0);
  EXPECT_TRUE(validate_solution(tg, arch, sol).empty());
  EXPECT_NO_THROW(require_valid(tg, arch, sol));
}

TEST_F(ValidationFixture, UnassignedTaskReported) {
  Solution sol(tg.task_count());
  sol.insert_on_processor(0, 0, 0);
  const auto bad = validate_solution(tg, arch, sol);
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad[0].find("unassigned"), std::string::npos);
  EXPECT_THROW(require_valid(tg, arch, sol), Error);
}

TEST_F(ValidationFixture, SoftwareOnlyTaskOnRcReported) {
  Solution sol(tg.task_count());
  sol.insert_on_processor(0, 0, 0);
  sol.insert_on_processor(1, 0, 1);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(2, 1, ctx, 0, /*clbs=*/0);  // "c" has no hw variant
  const auto bad = validate_solution(tg, arch, sol);
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad[0].find("software-only"), std::string::npos);
}

TEST_F(ValidationFixture, ImplementationIndexOutOfRangeReported) {
  Solution sol(tg.task_count());
  sol.insert_on_processor(1, 0, 0);
  sol.insert_on_processor(2, 0, 1);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  // only 2 implementations exist
  sol.insert_in_context(0, 1, ctx, 7, /*clbs=*/0);
  const auto bad = validate_solution(tg, arch, sol);
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad[0].find("implementation index"), std::string::npos);
}

TEST_F(ValidationFixture, CapacityOverflowReported) {
  Solution sol(tg.task_count());
  sol.insert_on_processor(2, 0, 0);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(0, 1, ctx, 0, tg.task(0).hw.at(0).clbs);  // 60 CLBs
  // 60 CLBs -> 120 > 100
  sol.insert_in_context(1, 1, ctx, 0, tg.task(1).hw.at(0).clbs);
  const auto bad = validate_solution(tg, arch, sol);
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad[0].find("CLBs > capacity"), std::string::npos);
}

TEST_F(ValidationFixture, ClbSumOutOfStepWithImplementationsReported) {
  // Understated CLB counts make the Solution's sum read 80 of 100 CLBs;
  // the validator sums the implementations (120) itself, so it reports
  // both the disagreement and the overflow the sum would hide.
  Solution sol(tg.task_count());
  sol.insert_on_processor(2, 0, 0);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(0, 1, ctx, 0, /*clbs=*/40);
  sol.insert_in_context(1, 1, ctx, 0, /*clbs=*/40);
  ASSERT_EQ(sol.context_clbs(1, ctx), 80);
  const auto bad = validate_structure(tg, arch, sol);
  ASSERT_EQ(bad.size(), 2u);
  EXPECT_NE(bad[0].find("records 80 CLBs, its implementations occupy 120"),
            std::string::npos);
  EXPECT_NE(bad[1].find("120 CLBs > capacity"), std::string::npos);
}

TEST_F(ValidationFixture, CyclicRealizationReported) {
  Solution sol(tg.task_count());
  // Order c, b, a on the processor although a -> b -> c.
  sol.insert_on_processor(2, 0, 0);
  sol.insert_on_processor(1, 0, 1);
  sol.insert_on_processor(0, 0, 2);
  const auto bad = validate_solution(tg, arch, sol);
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad[0].find("cycle"), std::string::npos);
}

TEST_F(ValidationFixture, TasksOnTwoProcessors) {
  Architecture arch2 = arch;
  const ResourceId cpu1 = arch2.add_processor("cpu1");
  // a and c on cpu0 (in precedence order), b on cpu1: every order holds
  // exactly the tasks placed on its processor.
  Solution sol(tg.task_count());
  sol.insert_on_processor(0, 0, 0);
  sol.insert_on_processor(2, 0, 1);
  sol.insert_on_processor(1, cpu1, 0);
  EXPECT_TRUE(validate_solution(tg, arch2, sol).empty());

  // c before a on cpu0 closes a -> b -> c -> a through cpu1's task.
  Solution cyclic(tg.task_count());
  cyclic.insert_on_processor(2, 0, 0);
  cyclic.insert_on_processor(0, 0, 1);
  cyclic.insert_on_processor(1, cpu1, 0);
  const auto bad = validate_solution(tg, arch2, cyclic);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_NE(bad[0].find("cycle"), std::string::npos);
}

TEST_F(ValidationFixture, DeadResourceReported) {
  Architecture arch2 = arch;
  const ResourceId asic = arch2.add_asic("asic0");
  Solution sol(tg.task_count());
  sol.insert_on_processor(1, 0, 0);
  sol.insert_on_processor(2, 0, 1);
  sol.insert_on_asic(0, asic, 0);
  arch2.remove(asic);
  const auto bad = validate_solution(tg, arch2, sol);
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad[0].find("dead resource"), std::string::npos);
}

TEST_F(ValidationFixture, SizeMismatchReported) {
  Solution sol(2);  // wrong task count
  const auto bad = validate_solution(tg, arch, sol);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_NE(bad[0].find("covers"), std::string::npos);
}

TEST_F(ValidationFixture, RequireValidMessageListsViolations) {
  Solution sol(tg.task_count());
  try {
    require_valid(tg, arch, sol);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("violation"), std::string::npos);
    EXPECT_NE(msg.find("unassigned"), std::string::npos);
  }
}

}  // namespace
}  // namespace rdse
