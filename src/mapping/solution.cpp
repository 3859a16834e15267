#include "mapping/solution.hpp"

#include <algorithm>

#include "graph/topo.hpp"
#include "util/assert.hpp"

namespace rdse {

namespace {

/// Grow-on-demand access to a flat resource-id-indexed slot vector.
template <typename Slots>
typename Slots::value_type& slot_at(Slots& slots, ResourceId id) {
  if (id >= slots.size()) {
    slots.resize(static_cast<std::size_t>(id) + 1);
  }
  return slots[id];
}

/// Slot-vector equality that ignores absent/empty slots: an empty slot only
/// records that a resource id was once used, which is not a semantic
/// difference between solutions.
template <typename Slots>
bool slots_equal(const Slots& a, const Slots& b) {
  const typename Slots::value_type empty{};
  const std::size_t n = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& va = i < a.size() ? a[i] : empty;
    const auto& vb = i < b.size() ? b[i] : empty;
    if (va != vb) return false;
  }
  return true;
}

/// Move a member list's last entry (a task just inserted) to `slot`,
/// keeping the order of the others.
void move_back_to(std::vector<TaskId>& members, std::size_t slot) {
  std::rotate(members.begin() + static_cast<std::ptrdiff_t>(slot),
              members.end() - 1, members.end());
}

}  // namespace

Solution::Solution(std::size_t task_count)
    : placement_(task_count),
      order_pos_(task_count, 0),
      task_clb_(task_count, 0) {}

bool Solution::operator==(const Solution& other) const {
  return placement_ == other.placement_ &&
         slots_equal(proc_order_, other.proc_order_) &&
         slots_equal(rc_contexts_, other.rc_contexts_) &&
         slots_equal(asic_tasks_, other.asic_tasks_);
}

Solution Solution::all_software(const TaskGraph& tg, ResourceId processor) {
  Solution sol(tg.task_count());
  const auto order = topological_order(tg.digraph());
  RDSE_REQUIRE(order.has_value(), "all_software: task graph is cyclic");
  for (TaskId t : *order) {
    sol.insert_on_processor(t, processor,
                            sol.processor_order(processor).size());
    // A fresh start has no move to journal; an empty journal keeps each
    // insert's de-duplication scan O(1) instead of O(tasks placed so far).
    sol.clear_touched();
  }
  return sol;
}

Solution Solution::random_partition(const TaskGraph& tg,
                                    const Architecture& arch,
                                    ResourceId processor, ResourceId rc,
                                    Rng& rng) {
  const Resource& dev = arch.reconfigurable(rc);

  std::vector<TaskId> candidates;
  for (TaskId t = 0; t < tg.task_count(); ++t) {
    // Only tasks with at least one implementation fitting the device.
    if (tg.task(t).hw_capable() && tg.task(t).hw.min_clbs() <= dev.n_clbs()) {
      candidates.push_back(t);
    }
  }
  if (candidates.empty()) {
    return all_software(tg, processor);
  }
  rng.shuffle(candidates);
  // "A random number of tasks are moved, one by one, to the RC."
  const std::size_t n_move = rng.index(candidates.size() + 1);
  std::vector<bool> to_hw(tg.task_count(), false);
  for (std::size_t i = 0; i < n_move; ++i) {
    to_hw[candidates[i]] = true;
  }

  // Realize everything in (ASAP level, id) order. This single linearization
  // is a valid linear extension of the precedence relation *and* keeps the
  // greedy context sequence level-monotone, so the mixed Esw/Ehw constraint
  // graph G' is acyclic by construction. (An arbitrary packing or software
  // order can deadlock across branches: a software order placing branch-A's
  // tail before branch-B's head conflicts with context sequencing edges
  // that order their contexts the other way.)
  const auto level = asap_levels(tg.digraph());
  std::vector<TaskId> order(tg.task_count());
  for (TaskId t = 0; t < tg.task_count(); ++t) order[t] = t;
  std::sort(order.begin(), order.end(), [&level](TaskId a, TaskId b) {
    return level[a] != level[b] ? level[a] < level[b] : a < b;
  });

  Solution sol(tg.task_count());
  for (const TaskId t : order) {
    sol.clear_touched();  // no journal for a fresh start (see all_software)
    if (!to_hw[t]) {
      sol.insert_on_processor(t, processor,
                              sol.processor_order(processor).size());
      continue;
    }
    const auto& impls = tg.task(t).hw;
    // Random implementation among those that fit an empty context.
    std::vector<std::uint32_t> fitting;
    for (std::uint32_t k = 0; k < impls.size(); ++k) {
      if (impls.at(k).clbs <= dev.n_clbs()) fitting.push_back(k);
    }
    RDSE_ASSERT(!fitting.empty());
    const std::uint32_t impl = fitting[rng.index(fitting.size())];

    // Pack into the last context; spawn when capacity is exceeded (§5).
    std::size_t ctx;
    if (sol.context_count(rc) == 0) {
      ctx = sol.spawn_context_after(rc, kFront);
    } else {
      ctx = sol.context_count(rc) - 1;
      if (sol.context_clbs(rc, ctx) + impls.at(impl).clbs > dev.n_clbs()) {
        ctx = sol.spawn_context_after(rc, ctx);
      }
    }
    sol.insert_in_context(t, rc, ctx, impl, impls.at(impl).clbs);
  }
  sol.clear_touched();
  return sol;
}

ResourceId Solution::resource_of(TaskId task) const {
  return placement(task).resource;
}

std::span<const TaskId> Solution::asic_tasks(ResourceId asic) const {
  if (asic >= asic_tasks_.size()) return {};
  return asic_tasks_[asic];
}

std::size_t Solution::tasks_on(ResourceId id) const {
  std::size_t n = 0;
  for (const Placement& p : placement_) {
    n += (p.resource == id) ? 1 : 0;
  }
  return n;
}

void Solution::renumber(std::span<const TaskId> order, std::size_t begin,
                        std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    order_pos_[order[i]] = static_cast<std::uint32_t>(i);
  }
}

void Solution::touch(ResourceId id) {
  if (std::find(touched_.begin(), touched_.end(), id) == touched_.end()) {
    touched_.push_back(id);
  }
}

void Solution::touch_task(TaskId id) {
  if (std::find(touched_tasks_.begin(), touched_tasks_.end(), id) ==
      touched_tasks_.end()) {
    touched_tasks_.push_back(id);
  }
}

void Solution::remove_task(TaskId task) {
  RDSE_REQUIRE(task < placement_.size(), "Solution: task id out of range");
  Placement& p = placement_[task];
  if (!p.assigned()) return;
  touch(p.resource);
  touch_task(task);

  if (p.resource < proc_order_.size()) {
    auto& order = proc_order_[p.resource];
    const std::size_t pos = order_pos_[task];
    if (pos < order.size() && order[pos] == task) {
      undo_.push_back({.op = UndoEntry::Op::kRemovedFromOrder,
                       .task = task,
                       .resource = p.resource,
                       .slot = static_cast<std::uint32_t>(pos)});
      order.erase(order.begin() + static_cast<std::ptrdiff_t>(pos));
      renumber(order, pos, order.size());
      p = Placement{};
      return;
    }
  }
  if (p.context >= 0) {
    RDSE_ASSERT(p.resource < rc_contexts_.size());
    auto& contexts = rc_contexts_[p.resource];
    RDSE_ASSERT(static_cast<std::size_t>(p.context) < contexts.size());
    auto& members = contexts[static_cast<std::size_t>(p.context)];
    const auto pos = std::find(members.begin(), members.end(), task);
    RDSE_ASSERT(pos != members.end());
    undo_.push_back({.op = UndoEntry::Op::kRemovedFromContext,
                     .collapsed = members.size() == 1,
                     .task = task,
                     .resource = p.resource,
                     .slot = static_cast<std::uint32_t>(pos - members.begin()),
                     .context = p.context,
                     .impl = p.impl,
                     .clbs = task_clb_[task]});
    members.erase(pos);
    auto& sums = rc_ctx_clbs_[p.resource];
    sums[static_cast<std::size_t>(p.context)] -= task_clb_[task];
    if (members.empty()) {
      // Destroy the emptied context and renumber the ones behind it.
      const auto dead = static_cast<std::int32_t>(p.context);
      contexts.erase(contexts.begin() + dead);
      sums.erase(sums.begin() + dead);
      for (Placement& q : placement_) {
        if (q.resource == p.resource && q.context > dead) {
          --q.context;
        }
      }
    }
    p = Placement{};
    return;
  }
  if (p.resource < asic_tasks_.size()) {
    auto& members = asic_tasks_[p.resource];
    const auto pos = std::find(members.begin(), members.end(), task);
    if (pos != members.end()) {
      undo_.push_back(
          {.op = UndoEntry::Op::kRemovedFromAsic,
           .task = task,
           .resource = p.resource,
           .slot = static_cast<std::uint32_t>(pos - members.begin()),
           .impl = p.impl});
      members.erase(pos);
      p = Placement{};
      return;
    }
  }
  RDSE_ASSERT_MSG(false, "Solution::remove_task: placement without mirror");
}

void Solution::insert_on_processor(TaskId task, ResourceId processor,
                                   std::size_t position) {
  RDSE_REQUIRE(task < placement_.size(), "Solution: task id out of range");
  RDSE_REQUIRE(!placement_[task].assigned(),
               "insert_on_processor: task already assigned");
  touch(processor);
  touch_task(task);
  undo_.push_back({.op = UndoEntry::Op::kInserted, .task = task});
  auto& order = slot_at(proc_order_, processor);
  position = std::min(position, order.size());
  order.insert(order.begin() + static_cast<std::ptrdiff_t>(position), task);
  renumber(order, position, order.size());
  placement_[task] = Placement{processor, -1, 0};
}

void Solution::insert_in_context(TaskId task, ResourceId rc, std::size_t ctx,
                                 std::uint32_t impl, std::int32_t clbs) {
  RDSE_REQUIRE(task < placement_.size(), "Solution: task id out of range");
  RDSE_REQUIRE(!placement_[task].assigned(),
               "insert_in_context: task already assigned");
  RDSE_REQUIRE(ctx < context_count(rc),
               "insert_in_context: no context " + std::to_string(ctx) +
                   " on resource " + std::to_string(rc) + " (" +
                   std::to_string(context_count(rc)) + " contexts)");
  touch(rc);
  touch_task(task);
  undo_.push_back({.op = UndoEntry::Op::kInserted, .task = task});
  rc_contexts_[rc][ctx].push_back(task);
  rc_ctx_clbs_[rc][ctx] += clbs;
  task_clb_[task] = clbs;
  placement_[task] = Placement{rc, static_cast<std::int32_t>(ctx), impl};
}

void Solution::insert_on_asic(TaskId task, ResourceId asic,
                              std::uint32_t impl) {
  RDSE_REQUIRE(task < placement_.size(), "Solution: task id out of range");
  RDSE_REQUIRE(!placement_[task].assigned(),
               "insert_on_asic: task already assigned");
  touch(asic);
  touch_task(task);
  undo_.push_back({.op = UndoEntry::Op::kInserted, .task = task});
  slot_at(asic_tasks_, asic).push_back(task);
  placement_[task] = Placement{asic, -1, impl};
}

std::size_t Solution::spawn_context_after(ResourceId rc, std::size_t after) {
  touch(rc);
  auto& contexts = slot_at(rc_contexts_, rc);
  auto& sums = slot_at(rc_ctx_clbs_, rc);
  std::size_t pos;
  if (after == kFront) {
    pos = 0;
  } else {
    RDSE_REQUIRE(after < contexts.size(),
                 "spawn_context_after: context index out of range");
    pos = after + 1;
  }
  // Note: an explicit element type is required here — a braced "{}" would
  // select the initializer_list overload and insert zero elements.
  contexts.insert(contexts.begin() + static_cast<std::ptrdiff_t>(pos),
                  std::vector<TaskId>{});
  // A fresh context holds nothing: its sum is known to be zero.
  sums.insert(sums.begin() + static_cast<std::ptrdiff_t>(pos), 0);
  for (Placement& q : placement_) {
    if (q.resource == rc && q.context >= static_cast<std::int32_t>(pos)) {
      ++q.context;
    }
  }
  return pos;
}

void Solution::reposition(TaskId task, std::size_t new_position) {
  const std::size_t old_position = order_position(task);  // on a processor
  const ResourceId processor = placement_[task].resource;
  touch(processor);
  touch_task(task);
  undo_.push_back({.op = UndoEntry::Op::kRepositioned,
                   .task = task,
                   .slot = static_cast<std::uint32_t>(old_position)});
  auto& order = proc_order_[processor];
  new_position = std::min(new_position, order.size() - 1);
  // Same result as erase-then-insert, but only the span between the two
  // slots moves, so only that span is renumbered.
  const auto at = [&order](std::size_t i) {
    return order.begin() + static_cast<std::ptrdiff_t>(i);
  };
  if (new_position < old_position) {
    std::rotate(at(new_position), at(old_position), at(old_position + 1));
    renumber(order, new_position, old_position + 1);
  } else if (new_position > old_position) {
    std::rotate(at(old_position), at(old_position + 1), at(new_position + 1));
    renumber(order, old_position, new_position + 1);
  }
}

void Solution::set_impl(TaskId task, std::uint32_t impl, std::int32_t clbs) {
  RDSE_REQUIRE(task < placement_.size(), "Solution: task id out of range");
  RDSE_REQUIRE(placement_[task].assigned() && placement_[task].context >= 0,
               "set_impl: task is not on a reconfigurable circuit");
  touch(placement_[task].resource);
  touch_task(task);
  undo_.push_back({.op = UndoEntry::Op::kImplChanged,
                   .task = task,
                   .impl = placement_[task].impl,
                   .clbs = task_clb_[task]});
  rc_ctx_clbs_[placement_[task].resource]
              [static_cast<std::size_t>(placement_[task].context)] +=
      clbs - task_clb_[task];
  task_clb_[task] = clbs;
  placement_[task].impl = impl;
}

void Solution::swap_contexts(ResourceId rc, std::size_t a, std::size_t b) {
  RDSE_REQUIRE(a < context_count(rc) && b < context_count(rc),
               "swap_contexts: context index out of range");
  if (a == b) return;
  touch(rc);
  undo_.push_back({.op = UndoEntry::Op::kContextsSwapped,
                   .resource = rc,
                   .slot = static_cast<std::uint32_t>(a),
                   .context = static_cast<std::int32_t>(b)});
  std::swap(rc_contexts_[rc][a], rc_contexts_[rc][b]);
  std::swap(rc_ctx_clbs_[rc][a], rc_ctx_clbs_[rc][b]);
  for (Placement& q : placement_) {
    if (q.resource != rc) continue;
    if (q.context == static_cast<std::int32_t>(a)) {
      q.context = static_cast<std::int32_t>(b);
    } else if (q.context == static_cast<std::int32_t>(b)) {
      q.context = static_cast<std::int32_t>(a);
    }
  }
}

void Solution::undo() {
  // Each inverse is a mutator call, which logs an entry of its own;
  // truncating to the replayed entry's index drops it with the entry.
  for (std::size_t n = undo_.size(); n-- > 0;) {
    const UndoEntry e = undo_[n];
    switch (e.op) {
      case UndoEntry::Op::kInserted: remove_task(e.task); break;
      case UndoEntry::Op::kRemovedFromOrder:
        insert_on_processor(e.task, e.resource, e.slot);
        break;
      case UndoEntry::Op::kRemovedFromContext: {
        // A collapse renumbered the contexts behind it: re-create the
        // context at its old index before putting the task back.
        const auto ctx = static_cast<std::size_t>(e.context);
        if (e.collapsed) {
          spawn_context_after(e.resource, ctx == 0 ? kFront : ctx - 1);
        }
        insert_in_context(e.task, e.resource, ctx, e.impl, e.clbs);
        move_back_to(rc_contexts_[e.resource][ctx], e.slot);
        break;
      }
      case UndoEntry::Op::kRemovedFromAsic:
        insert_on_asic(e.task, e.resource, e.impl);
        move_back_to(asic_tasks_[e.resource], e.slot);
        break;
      case UndoEntry::Op::kRepositioned: reposition(e.task, e.slot); break;
      case UndoEntry::Op::kImplChanged: set_impl(e.task, e.impl, e.clbs); break;
      case UndoEntry::Op::kContextsSwapped:
        swap_contexts(e.resource, e.slot, static_cast<std::size_t>(e.context));
        break;
    }
    undo_.resize(n);
  }
  clear_touched();
}

void Solution::check_mirrors() const {
  std::vector<int> seen(placement_.size(), 0);
  for (ResourceId proc = 0; proc < proc_order_.size(); ++proc) {
    const auto& order = proc_order_[proc];
    for (std::size_t i = 0; i < order.size(); ++i) {
      const TaskId t = order[i];
      RDSE_ASSERT(t < placement_.size());
      RDSE_ASSERT(placement_[t].resource == proc);
      RDSE_ASSERT(placement_[t].context == -1);
      RDSE_ASSERT_MSG(order_pos_[t] == i,
                      "Solution: order-position mirror out of step");
      ++seen[t];
    }
  }
  RDSE_ASSERT_MSG(rc_ctx_clbs_.size() == rc_contexts_.size(),
                  "Solution: CLB-sum mirror out of step with contexts");
  for (ResourceId rc = 0; rc < rc_contexts_.size(); ++rc) {
    const auto& contexts = rc_contexts_[rc];
    RDSE_ASSERT_MSG(rc_ctx_clbs_[rc].size() == contexts.size(),
                    "Solution: CLB-sum mirror out of step with contexts");
    for (std::size_t c = 0; c < contexts.size(); ++c) {
      RDSE_ASSERT_MSG(!contexts[c].empty(),
                      "Solution: empty context not collapsed");
      std::int32_t clbs = 0;
      for (TaskId t : contexts[c]) {
        RDSE_ASSERT(t < placement_.size());
        RDSE_ASSERT(placement_[t].resource == rc);
        RDSE_ASSERT(placement_[t].context == static_cast<std::int32_t>(c));
        clbs += task_clb_[t];
        ++seen[t];
      }
      RDSE_ASSERT_MSG(rc_ctx_clbs_[rc][c] == clbs,
                      "Solution: context CLB sum out of step with members");
    }
  }
  for (ResourceId asic = 0; asic < asic_tasks_.size(); ++asic) {
    for (TaskId t : asic_tasks_[asic]) {
      RDSE_ASSERT(t < placement_.size());
      RDSE_ASSERT(placement_[t].resource == asic);
      ++seen[t];
    }
  }
  for (TaskId t = 0; t < placement_.size(); ++t) {
    RDSE_ASSERT(seen[t] == (placement_[t].assigned() ? 1 : 0));
  }
}

}  // namespace rdse
