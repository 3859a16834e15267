#pragma once
/// \file timeline.hpp
/// \brief Concrete schedule construction (Fig. 1(c)): per-resource lanes
/// with task slots, reconfiguration slots and a serialized communication
/// lane.
///
/// §3.3 requires "an ordering of the transactions on the shared
/// communication medium, i.e. a total order imposed on the transactions
/// consistent with the task execution ordering". The longest-path cost
/// model evaluates transfers independently; the timeline additionally
/// serializes them on the single bus: each resource-crossing application
/// edge becomes a transfer job, jobs are ordered by the longest-path ready
/// time of their producer (ties by edge id), and that total order is
/// enforced with zero-weight chaining edges in an extended graph. The
/// timeline makespan is therefore >= the longest-path makespan, with
/// equality whenever transfers never contend — a property exercised in the
/// test suite.

#include <string>
#include <vector>

#include "sched/evaluator.hpp"

namespace rdse {

enum class SlotKind : std::uint8_t { kTask, kReconfig, kTransfer };

/// One rendered occupation interval.
struct TimelineSlot {
  std::string lane;   ///< "cpu0", "fpga0/C1", "fpga0/reconf", "bus"
  std::string label;  ///< task name, "load C2", "A->B"
  SlotKind kind = SlotKind::kTask;
  TimeNs start = 0;
  TimeNs end = 0;
};

struct Timeline {
  /// Grouped by lane — resources by id, an RC's contexts by number and then
  /// its reconfiguration lane, the bus last — and by start time within one.
  std::vector<TimelineSlot> slots;
  TimeNs makespan = 0;

  /// ASCII Gantt chart (one row per lane, '#' task, 'r' reconfiguration,
  /// '=' transfer), `width` characters across the full makespan.
  [[nodiscard]] std::string to_ascii(int width = 78) const;
};

/// Build the bus-serialized timeline for an evaluated solution.
[[nodiscard]] Timeline build_timeline(const TaskGraph& tg,
                                      const Architecture& arch,
                                      const Solution& sol);

}  // namespace rdse
