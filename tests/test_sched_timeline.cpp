/// Tests for the bus-serialized timeline (Fig. 1(c)) and its relation to
/// the longest-path cost model.

#include <gtest/gtest.h>

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

TEST(Timeline, AllSoftwareSlotsBackToBack) {
  TaskGraph tg;
  tg.add_task(hw_task("a", 1.0, 10));
  tg.add_task(hw_task("b", 2.0, 10));
  tg.add_comm(0, 1, 100);
  Architecture arch = make_cpu_fpga_architecture(100, 10, 1'000'000);
  const Solution sol = Solution::all_software(tg, 0);
  const Timeline tl = build_timeline(tg, arch, sol);
  EXPECT_EQ(tl.makespan, from_ms(3.0));
  ASSERT_EQ(tl.slots.size(), 2u);  // no transfers, no reconfig
  EXPECT_EQ(tl.slots[0].lane, "cpu0");
  EXPECT_EQ(tl.slots[0].end, tl.slots[1].start);
}

TEST(Timeline, MatchesLongestPathWithoutContention) {
  TaskGraph tg;
  const TaskId a = tg.add_task(hw_task("a", 2.0, 50));
  const TaskId b = tg.add_task(hw_task("b", 8.0, 50));
  const TaskId c = tg.add_task(hw_task("c", 3.0, 50));
  tg.add_comm(a, b, 1000);
  tg.add_comm(b, c, 2000);
  Architecture arch = make_cpu_fpga_architecture(1000, from_us(10), 1'000'000);
  Solution sol(tg.task_count());
  sol.insert_on_processor(a, 0, 0);
  sol.insert_on_processor(c, 0, 1);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(b, 1, ctx, 0, tg.task(b).hw.at(0).clbs);

  const Evaluator ev(tg, arch);
  const auto m = ev.evaluate(sol);
  ASSERT_TRUE(m.has_value());
  const Timeline tl = build_timeline(tg, arch, sol);
  // A single transfer at a time: serialization adds nothing.
  EXPECT_EQ(tl.makespan, m->makespan);
}

TEST(Timeline, BusContentionSerializesTransfers) {
  // Two independent producers on the CPU feed two FPGA consumers; both
  // transfers become ready back to back and must serialize on the bus.
  TaskGraph tg;
  const TaskId p1 = tg.add_task(hw_task("p1", 1.0, 20));
  const TaskId p2 = tg.add_task(hw_task("p2", 1.0, 20));
  const TaskId c1 = tg.add_task(hw_task("c1", 4.0, 20));
  const TaskId c2 = tg.add_task(hw_task("c2", 4.0, 20));
  tg.add_comm(p1, c1, 4000);  // 4 ms on the 1-byte/us bus
  tg.add_comm(p2, c2, 4000);
  Architecture arch = make_cpu_fpga_architecture(1000, 0, 1'000'000);
  Solution sol(tg.task_count());
  sol.insert_on_processor(p1, 0, 0);
  sol.insert_on_processor(p2, 0, 1);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(c1, 1, ctx, 0, tg.task(c1).hw.at(0).clbs);
  sol.insert_in_context(c2, 1, ctx, 0, tg.task(c2).hw.at(0).clbs);

  const Evaluator ev(tg, arch);
  const auto m = ev.evaluate(sol);
  ASSERT_TRUE(m.has_value());
  // LP model: p2 ends at 2, + 4 transfer + 1 compute = 7 ms.
  EXPECT_EQ(m->makespan, from_ms(7.0));
  const Timeline tl = build_timeline(tg, arch, sol);
  // Serialized: transfer1 [1,5], transfer2 [5,9], c2 [9,10].
  EXPECT_EQ(tl.makespan, from_ms(10.0));
  EXPECT_GE(tl.makespan, m->makespan);
}

TEST(Timeline, TimelineNeverBeatsLongestPathOnMotionApp) {
  const Application app = make_motion_detection_app();
  Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  const Evaluator ev(app.graph, arch);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const Solution sol =
        Solution::random_partition(app.graph, arch, 0, 1, rng);
    const auto m = ev.evaluate(sol);
    ASSERT_TRUE(m.has_value());
    const Timeline tl = build_timeline(app.graph, arch, sol);
    EXPECT_GE(tl.makespan, m->makespan) << "seed " << seed;
  }
}

TEST(Timeline, ReconfigurationSlotsAppear) {
  TaskGraph tg;
  const TaskId a = tg.add_task(hw_task("a", 2.0, 100));
  const TaskId b = tg.add_task(hw_task("b", 2.0, 100));
  tg.add_comm(a, b, 100);
  Architecture arch = make_cpu_fpga_architecture(150, from_us(10), 1'000'000);
  Solution sol(tg.task_count());
  const std::size_t c0 = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(a, 1, c0, 0, tg.task(a).hw.at(0).clbs);
  const std::size_t c1 = sol.spawn_context_after(1, c0);
  sol.insert_in_context(b, 1, c1, 0, tg.task(b).hw.at(0).clbs);

  const Timeline tl = build_timeline(tg, arch, sol);
  int reconf_slots = 0;
  for (const auto& s : tl.slots) {
    if (s.kind == SlotKind::kReconfig) {
      ++reconf_slots;
      EXPECT_EQ(s.end - s.start, from_us(10) * 100);
    }
  }
  EXPECT_EQ(reconf_slots, 2);  // initial load + one dynamic reconfiguration
}

TEST(Timeline, AsciiRenderingContainsLanes) {
  TaskGraph tg;
  const TaskId a = tg.add_task(hw_task("alpha", 2.0, 50));
  const TaskId b = tg.add_task(hw_task("beta", 2.0, 50));
  tg.add_comm(a, b, 1000);
  Architecture arch = make_cpu_fpga_architecture(100, from_us(10), 1'000'000);
  Solution sol(tg.task_count());
  sol.insert_on_processor(a, 0, 0);
  const std::size_t ctx = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(b, 1, ctx, 0, tg.task(b).hw.at(0).clbs);
  const Timeline tl = build_timeline(tg, arch, sol);
  const std::string art = tl.to_ascii(60);
  EXPECT_NE(art.find("cpu0"), std::string::npos);
  EXPECT_NE(art.find("fpga0/C1"), std::string::npos);
  EXPECT_NE(art.find("bus"), std::string::npos);
  EXPECT_NE(art.find("fpga0/reconf"), std::string::npos);
  EXPECT_THROW((void)tl.to_ascii(5), Error);
}

TEST(Timeline, LanesFollowResourceThenContextNumber) {
  // A CPU source feeding a chain of 11 tasks, one per FPGA context: lane
  // names sort as "fpga0/C1" < "fpga0/C10" < "fpga0/C2" as strings, but the
  // Gantt must list the contexts by number, the reconfiguration lane after
  // them and the bus after every resource.
  constexpr int kContexts = 11;
  TaskGraph tg;
  const TaskId src = tg.add_task(hw_task("src", 1.0, 100));
  TaskId prev = src;
  for (int i = 0; i < kContexts; ++i) {
    const TaskId t = tg.add_task(hw_task("k" + std::to_string(i), 1.0, 100));
    tg.add_comm(prev, t, 1000);
    prev = t;
  }
  Architecture arch = make_cpu_fpga_architecture(150, from_us(1), 1'000'000);
  Solution sol(tg.task_count());
  sol.insert_on_processor(src, 0, 0);
  std::size_t ctx = Solution::kFront;
  for (TaskId t = 1; t < tg.task_count(); ++t) {
    ctx = sol.spawn_context_after(1, ctx);
    sol.insert_in_context(t, 1, ctx, 0, tg.task(t).hw.at(0).clbs);
  }

  const Timeline tl = build_timeline(tg, arch, sol);
  std::vector<std::string> lanes;
  for (const TimelineSlot& s : tl.slots) {
    if (lanes.empty() || lanes.back() != s.lane) lanes.push_back(s.lane);
  }
  std::vector<std::string> want{"cpu0"};
  for (int c = 1; c <= kContexts; ++c) {
    want.push_back("fpga0/C" + std::to_string(c));
  }
  want.push_back("fpga0/reconf");
  want.push_back("bus");
  EXPECT_EQ(lanes, want);  // each lane contiguous, in this order

  // Start order within a lane: the reconfigurations load C1 .. C11.
  std::vector<std::string> loads;
  for (std::size_t i = 0; i < tl.slots.size(); ++i) {
    const TimelineSlot& s = tl.slots[i];
    if (i > 0 && tl.slots[i - 1].lane == s.lane) {
      EXPECT_LE(tl.slots[i - 1].start, s.start) << s.lane;
    }
    if (s.kind == SlotKind::kReconfig) loads.push_back(s.label);
  }
  ASSERT_EQ(loads.size(), static_cast<std::size_t>(kContexts));
  for (int c = 0; c < kContexts; ++c) {
    EXPECT_EQ(loads[static_cast<std::size_t>(c)],
              "load C" + std::to_string(c + 1));
  }

  // The rendered chart lists its rows in the same order.
  const std::string art = tl.to_ascii(60);
  EXPECT_LT(art.find("fpga0/C2 "), art.find("fpga0/C10"));
  EXPECT_LT(art.find("fpga0/C11"), art.find("fpga0/reconf"));
  EXPECT_LT(art.find("fpga0/reconf"), art.find("bus"));
}

TEST(Timeline, InfeasibleSolutionThrows) {
  TaskGraph tg;
  const TaskId a = tg.add_task(hw_task("a", 1.0, 10));
  const TaskId b = tg.add_task(hw_task("b", 1.0, 10));
  tg.add_comm(a, b, 100);
  Architecture arch = make_cpu_fpga_architecture(100, 10, 1'000'000);
  Solution sol(tg.task_count());
  sol.insert_on_processor(b, 0, 0);
  sol.insert_on_processor(a, 0, 1);
  EXPECT_THROW((void)build_timeline(tg, arch, sol), Error);
}

}  // namespace
}  // namespace rdse
