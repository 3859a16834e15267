/// Tests for systems beyond the paper's fixed CPU+FPGA platform: multiple
/// processors (heterogeneous speeds), multiple reconfigurable circuits and
/// ASICs — the general architecture model of [11] that §3.2 says the
/// method was designed for.

#include <gtest/gtest.h>

#include "core/explorer.hpp"
#include "mapping/validation.hpp"
#include "model/motion_detection.hpp"
#include "sched/timeline.hpp"

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

TEST(MultiResource, TwoProcessorsRunInParallel) {
  TaskGraph tg;
  tg.add_task(hw_task("a", 4.0, 10));
  tg.add_task(hw_task("b", 4.0, 10));  // independent of a
  Architecture arch{Bus(1'000'000)};
  arch.add_processor("cpu0");
  arch.add_processor("cpu1");
  Solution sol(tg.task_count());
  sol.insert_on_processor(0, 0, 0);
  sol.insert_on_processor(1, 1, 0);
  const Evaluator ev(tg, arch);
  const auto m = ev.evaluate(sol);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->makespan, from_ms(4.0));  // true parallelism
  require_valid(tg, arch, sol);
}

TEST(MultiResource, CrossProcessorDependencyPaysBusTime) {
  TaskGraph tg;
  const TaskId a = tg.add_task(hw_task("a", 2.0, 10));
  const TaskId b = tg.add_task(hw_task("b", 3.0, 10));
  tg.add_comm(a, b, 1000);  // 1 ms at 1 byte/us
  Architecture arch{Bus(1'000'000)};
  arch.add_processor("cpu0");
  arch.add_processor("cpu1");
  Solution sol(tg.task_count());
  sol.insert_on_processor(a, 0, 0);
  sol.insert_on_processor(b, 1, 0);
  const Evaluator ev(tg, arch);
  const auto m = ev.evaluate(sol);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->makespan, from_ms(2.0 + 1.0 + 3.0));
  EXPECT_EQ(m->comm_cross, from_ms(1.0));
}

TEST(MultiResource, TwoFpgasReconfigureIndependently) {
  TaskGraph tg;
  tg.add_task(hw_task("x", 4.0, 100));
  tg.add_task(hw_task("y", 4.0, 100));  // independent
  Architecture arch{Bus(1'000'000)};
  arch.add_processor("cpu0");
  const ResourceId f0 = arch.add_reconfigurable("fpga0", 200, from_us(10));
  const ResourceId f1 = arch.add_reconfigurable("fpga1", 200, from_us(10));
  Solution sol(tg.task_count());
  const std::size_t c0 = sol.spawn_context_after(f0, Solution::kFront);
  sol.insert_in_context(0, f0, c0, 0, tg.task(0).hw.at(0).clbs);
  const std::size_t c1 = sol.spawn_context_after(f1, Solution::kFront);
  sol.insert_in_context(1, f1, c1, 0, tg.task(1).hw.at(0).clbs);
  const Evaluator ev(tg, arch);
  const auto m = ev.evaluate(sol);
  ASSERT_TRUE(m.has_value());
  // Each device loads its own 100-CLB context (1 ms) in parallel, then
  // computes 1 ms: total 2 ms, not 4.
  EXPECT_EQ(m->makespan, from_ms(2.0));
  EXPECT_EQ(m->init_reconfig, from_ms(2.0));  // summed over devices
  EXPECT_EQ(m->n_contexts, 2);
  require_valid(tg, arch, sol);
}

TEST(MultiResource, AsicRunsTasksInParallelWithoutReconfiguration) {
  TaskGraph tg;
  tg.add_task(hw_task("x", 8.0, 100));
  tg.add_task(hw_task("y", 8.0, 100));
  Architecture arch{Bus(1'000'000)};
  arch.add_processor("cpu0");
  const ResourceId asic = arch.add_asic("asic0");
  Solution sol(tg.task_count());
  sol.insert_on_asic(0, asic, 0);  // speedup 4 -> 2 ms
  sol.insert_on_asic(1, asic, 0);
  const Evaluator ev(tg, arch);
  const auto m = ev.evaluate(sol);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->makespan, from_ms(2.0));  // partial order, no reconfig
  EXPECT_EQ(m->total_reconfig(), 0);
  EXPECT_EQ(m->n_contexts, 0);
}

TEST(MultiResource, TimelineShowsAllLanes) {
  TaskGraph tg;
  const TaskId a = tg.add_task(hw_task("alpha", 2.0, 50));
  const TaskId b = tg.add_task(hw_task("beta", 2.0, 50));
  const TaskId c = tg.add_task(hw_task("gamma", 2.0, 50));
  tg.add_comm(a, b, 100);
  tg.add_comm(a, c, 100);
  Architecture arch{Bus(1'000'000)};
  arch.add_processor("cpu0");
  arch.add_reconfigurable("fpga0", 100, from_us(10));
  const ResourceId asic = arch.add_asic("asic0");
  Solution sol(tg.task_count());
  sol.insert_on_processor(a, 0, 0);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(b, 1, ctx, 0, tg.task(b).hw.at(0).clbs);
  sol.insert_on_asic(c, asic, 0);
  const Timeline tl = build_timeline(tg, arch, sol);
  const std::string art = tl.to_ascii(70);
  EXPECT_NE(art.find("cpu0"), std::string::npos);
  EXPECT_NE(art.find("fpga0/C1"), std::string::npos);
  EXPECT_NE(art.find("asic0"), std::string::npos);
}

TEST(MultiResource, ExplorerUsesSecondProcessorWhenItPays) {
  // Two identical CPUs, no FPGA: the optimum splits the independent tasks.
  TaskGraph tg;
  for (int i = 0; i < 6; ++i) {
    Task t;
    t.name = "t" + std::to_string(i);
    t.functionality = "F";
    t.sw_time = from_ms(2.0);
    tg.add_task(std::move(t));  // software-only, fully independent
  }
  Architecture arch{Bus(1'000'000)};
  arch.add_processor("cpu0");
  arch.add_processor("cpu1");
  Explorer explorer(tg, arch);
  ExplorerConfig config;
  config.seed = 9;
  config.iterations = 4'000;
  config.warmup_iterations = 300;
  config.init = InitKind::kAllSoftware;
  config.record_trace = false;
  const RunResult r = explorer.run(config);
  // Perfect split: 6 ms; accept anything strictly better than serial 12 ms.
  EXPECT_LE(r.best_metrics.makespan, from_ms(8.0));
  require_valid(tg, arch, r.best_solution);
}

TEST(MultiResource, ExplorationOnCpuTwoFpgaSystem) {
  const Application app = make_motion_detection_app();
  Architecture arch{Bus(kMotionDetectionBusRate)};
  arch.add_processor("cpu0");
  arch.add_reconfigurable("fpga0", 400, kMotionDetectionTrPerClb);
  arch.add_reconfigurable("fpga1", 400, kMotionDetectionTrPerClb);
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 13;
  config.iterations = 8'000;
  config.warmup_iterations = 800;
  config.record_trace = false;
  const RunResult r = explorer.run(config);
  require_valid(app.graph, r.best_architecture, r.best_solution);
  EXPECT_LE(r.best_metrics.makespan, app.deadline);
  // Both devices should end up used (two 400-CLB devices beat one).
  std::size_t used_devices = 0;
  for (const ResourceId rc : arch.reconfigurable_ids()) {
    used_devices += r.best_solution.context_count(rc) > 0 ? 1 : 0;
  }
  EXPECT_GE(used_devices, 1u);
}

}  // namespace
}  // namespace rdse
