#pragma once
/// \file solution.hpp
/// \brief A point in the design space (§3.3): spatial partitioning,
/// temporal partitioning, software ordering and implementation choices.
///
/// A Solution records, for every task,
///  - the resource executing it (processor / ASIC / reconfigurable circuit),
///  - for RC tasks: the run-time context (index into the RC's ordered
///    context list) and the chosen hardware implementation,
///  - for processor tasks: the position in that processor's total order.
///
/// The class stores the representation and maintains the mirror structures
/// (order lists <-> placements, order positions, and per-context CLB sums).
/// The CLB sums are exact by construction: insert_in_context and set_impl
/// take the implementation's CLB count, so context_clbs is an O(1) read and
/// the one place the §4.3 spawn rule and the §3.3 Ehw weights get a
/// context's occupancy from. *Semantic* feasibility — capacity bounds,
/// acyclicity of the induced search graph — is enforced by the move layer
/// and checked by mapping/validation.hpp. Solutions are value types that
/// the annealer changes in place: every mutator logs how to invert itself,
/// so a rejected move is undone instead of staged in a copy. They
/// deliberately hold no pointers to the task graph or architecture;
/// methods that need those take them as parameters, so a Solution can
/// outlive architecture snapshots.

#include <cstdint>
#include <span>
#include <vector>

#include "arch/architecture.hpp"
#include "model/task_graph.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rdse {

/// Where one task lives.
struct Placement {
  ResourceId resource = kInvalidResource;
  std::int32_t context = -1;  ///< context index on an RC; -1 otherwise
  std::uint32_t impl = 0;     ///< hardware implementation index (RC/ASIC)

  [[nodiscard]] bool assigned() const { return resource != kInvalidResource; }
  [[nodiscard]] bool operator==(const Placement&) const = default;
};

class Solution {
 public:
  /// All tasks unassigned (useful for hand-built scenarios and tests).
  explicit Solution(std::size_t task_count);

  /// Everything on one processor, in deterministic topological order —
  /// the paper's software-reference point (76.4 ms for motion detection).
  /// Both factories return an empty mutation journal.
  static Solution all_software(const TaskGraph& tg, ResourceId processor);

  /// The paper's initial solution (§5): start all-software, then move a
  /// random number of random hardware-capable tasks, one by one, to the RC
  /// with a random implementation; a new context is created whenever the
  /// capacity of the last context is exceeded.
  static Solution random_partition(const TaskGraph& tg,
                                   const Architecture& arch,
                                   ResourceId processor, ResourceId rc,
                                   Rng& rng);

  [[nodiscard]] std::size_t task_count() const { return placement_.size(); }
  [[nodiscard]] const Placement& placement(TaskId task) const {
    RDSE_REQUIRE(task < placement_.size(), "Solution: task id out of range");
    return placement_[task];
  }
  [[nodiscard]] ResourceId resource_of(TaskId task) const;

  // The accessors below sit on the annealing hot path (realization,
  // reconciliation, move generation) — with flat id-indexed mirrors they
  // are single indexed loads, defined inline.
  /// Total order of tasks on a processor (empty if none assigned).
  [[nodiscard]] std::span<const TaskId> processor_order(
      ResourceId processor) const {
    if (processor >= proc_order_.size()) return {};
    return proc_order_[processor];
  }
  /// Whether `task` sits in its resource's processor order at the slot the
  /// position mirror names — what order_position requires, without
  /// throwing (the validator's per-task check).
  [[nodiscard]] bool in_processor_order(TaskId task) const {
    const auto order = processor_order(placement(task).resource);
    const std::size_t pos = order_pos_[task];
    return pos < order.size() && order[pos] == task;
  }
  /// Position of a processor task within its order: an O(1) read of the
  /// position mirror, confirmed against the order slot it names.
  [[nodiscard]] std::size_t order_position(TaskId task) const {
    RDSE_REQUIRE(in_processor_order(task),
                 "order_position: task is not on a processor");
    return order_pos_[task];
  }

  /// Number of contexts currently allocated on an RC.
  [[nodiscard]] std::size_t context_count(ResourceId rc) const {
    return rc < rc_contexts_.size() ? rc_contexts_[rc].size() : 0;
  }
  /// Members of one context (unordered — locally partial order).
  [[nodiscard]] std::span<const TaskId> context_tasks(
      ResourceId rc, std::size_t ctx) const {
    RDSE_REQUIRE(rc < rc_contexts_.size() && ctx < rc_contexts_[rc].size(),
                 "context_tasks: no such context");
    return rc_contexts_[rc][ctx];
  }
  /// CLBs occupied by a context under the current implementation choices
  /// (nCLB(Ck) of §3.3/§4.3): an O(1) read of the per-context sum that the
  /// mutators keep exact.
  [[nodiscard]] std::int32_t context_clbs(ResourceId rc,
                                          std::size_t ctx) const {
    RDSE_REQUIRE(rc < rc_ctx_clbs_.size() && ctx < rc_ctx_clbs_[rc].size(),
                 "context_clbs: no such context");
    return rc_ctx_clbs_[rc][ctx];
  }
  /// Tasks placed on an ASIC (unordered).
  [[nodiscard]] std::span<const TaskId> asic_tasks(ResourceId asic) const;

  /// Tasks on any resource of the given id.
  [[nodiscard]] std::size_t tasks_on(ResourceId id) const;

  // ---- mutators ----------------------------------------------------------

  /// Detach a task from wherever it is (no-op if unassigned). Empties are
  /// collapsed: a context left without tasks is destroyed, as in §4.2/§4.3.
  void remove_task(TaskId task);

  /// Insert an unassigned task into a processor's total order at `position`
  /// (clamped to [0, size]).
  void insert_on_processor(TaskId task, ResourceId processor,
                           std::size_t position);

  /// Insert an unassigned task into an existing context with hardware
  /// implementation `impl`, whose CLB count is `clbs` (the task graph's
  /// `hw.at(impl).clbs`; the Solution holds no task graph to look it up).
  void insert_in_context(TaskId task, ResourceId rc, std::size_t ctx,
                         std::uint32_t impl, std::int32_t clbs);

  /// Insert an unassigned task on an ASIC.
  void insert_on_asic(TaskId task, ResourceId asic, std::uint32_t impl);

  /// Create an empty context right after `after` (pass npos to prepend at
  /// the front, or context_count()-1 to append). Returns the new index.
  /// The spawn logs no undo entry: an insert into the new context must
  /// follow, and undoing that insert collapses the context again.
  std::size_t spawn_context_after(ResourceId rc, std::size_t after);
  static constexpr std::size_t kFront = static_cast<std::size_t>(-1);

  /// Move a processor task to a new position within the same order.
  void reposition(TaskId task, std::size_t new_position);

  /// Change the hardware implementation of an RC task. `clbs` is the new
  /// implementation's CLB count (as for insert_in_context).
  void set_impl(TaskId task, std::uint32_t impl, std::int32_t clbs);

  /// Swap two contexts in the RC's execution order.
  void swap_contexts(ResourceId rc, std::size_t a, std::size_t b);

  /// Internal mirror-consistency check, CLB sums included (aborts on
  /// violation; tests).
  void check_mirrors() const;

  // ---- mutation journal ---------------------------------------------------
  // What the mutators changed since the last clear_touched(): the touched
  // resources and tasks, and an undo log of how to invert each change. The
  // journal is copied with the solution and ignored by operator==.

  /// Resources whose assignment, ordering or implementation content has been
  /// modified by a mutator since the last clear_touched(). The incremental
  /// evaluator uses this to scope re-realization of the search graph.
  [[nodiscard]] std::span<const ResourceId> touched_resources() const {
    return touched_;
  }
  /// Tasks whose own placement (resource, order position, context or
  /// implementation) was modified since the last clear_touched(). Context
  /// renumbering of bystander tasks is deliberately not journaled: it never
  /// changes a node weight, a communication weight (endpoints renumber
  /// together) or a release (handled per resource).
  [[nodiscard]] std::span<const TaskId> touched_tasks() const {
    return touched_tasks_;
  }
  /// Start a new journal: the changes so far are kept (a move is accepted).
  void clear_touched() {
    touched_.clear();
    touched_tasks_.clear();
    undo_.clear();
  }
  /// Revert every change since the last clear_touched() by replaying the
  /// undo log backwards through the mutators, then clear the journal. The
  /// state is restored exactly: placements, every processor order and the
  /// order of every context's and ASIC's members.
  void undo();

  /// Semantic equality (placements and mirrors; the journal is ignored —
  /// and so are trailing/empty mirror slots, which only record that a
  /// resource id was once used).
  [[nodiscard]] bool operator==(const Solution& other) const;

 private:
  /// How to invert one mutator call, replayed by undo() through the
  /// mutators themselves.
  struct UndoEntry {
    enum class Op : std::uint8_t {
      kInserted,            ///< remove_task(task)
      kRemovedFromOrder,    ///< insert_on_processor(task, resource, slot)
      kRemovedFromContext,  ///< re-spawn if collapsed, insert at slot
      kRemovedFromAsic,     ///< insert_on_asic, back at member slot
      kRepositioned,        ///< reposition(task, slot)
      kImplChanged,         ///< set_impl(task, impl, clbs)
      kContextsSwapped,     ///< swap_contexts(resource, slot, context)
    };
    Op op = Op::kInserted;
    bool collapsed = false;  ///< the context was destroyed by the removal
    TaskId task = 0;
    ResourceId resource = kInvalidResource;
    /// The old order slot, the index among a context's or an ASIC's
    /// members, or the first of two swapped contexts.
    std::uint32_t slot = 0;
    std::int32_t context = -1;  ///< context index (second swapped one)
    std::uint32_t impl = 0;     ///< the old implementation
    std::int32_t clbs = 0;      ///< and its CLB count
  };

  void touch(ResourceId id);
  void touch_task(TaskId id);
  /// Refresh the position mirror for order slots [begin, end).
  void renumber(std::span<const TaskId> order, std::size_t begin,
                std::size_t end);

  std::vector<Placement> placement_;
  // The mirrors are flat slots indexed by the dense, never-reused resource
  // ids (a slot for a resource the solution never saw is simply empty) —
  // the accessors on the annealing hot path (processor_order,
  // context_tasks, context_count) are one indexed load instead of a tree
  // walk.
  /// processor id -> total order
  std::vector<std::vector<TaskId>> proc_order_;
  /// task id -> index in its processor's total order. Meaningful only for
  /// tasks in a processor order (stale otherwise, which order_position
  /// detects); the mutators that shift an order renumber exactly the slots
  /// they shift. Derived from proc_order_, so excluded from operator==.
  std::vector<std::uint32_t> order_pos_;
  /// rc id -> ordered context list (members unordered within a context)
  std::vector<std::vector<std::vector<TaskId>>> rc_contexts_;
  /// rc id -> per-context CLB sums, structurally parallel to rc_contexts_
  /// (every spawn/collapse/swap updates both) and kept exact as deltas by
  /// the mutators. Derived from the implementation choices, so excluded
  /// from operator==.
  std::vector<std::vector<std::int32_t>> rc_ctx_clbs_;
  /// task id -> CLBs of the task's RC implementation (meaningful only for
  /// RC tasks); what remove_task and set_impl take off the context sum.
  std::vector<std::int32_t> task_clb_;
  /// asic id -> members
  std::vector<std::vector<TaskId>> asic_tasks_;
  /// Resources / tasks modified since clear_touched() (deduplicated, tiny).
  std::vector<ResourceId> touched_;
  std::vector<TaskId> touched_tasks_;
  /// One entry per mutator call since clear_touched(), oldest first.
  std::vector<UndoEntry> undo_;
};

}  // namespace rdse
