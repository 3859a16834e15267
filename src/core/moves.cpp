#include "core/moves.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rdse {
namespace {

/// Implementation indices of `task` that fit an empty context of `dev`.
std::vector<std::uint32_t> fitting_impls(const Task& task,
                                         const Resource& dev) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t k = 0; k < task.hw.size(); ++k) {
    if (task.hw.at(k).clbs <= dev.n_clbs()) out.push_back(k);
  }
  return out;
}

}  // namespace

const char* to_string(MoveKind kind) {
  switch (kind) {
    case MoveKind::kReorderSw: return "m1-reorder-sw";
    case MoveKind::kReassign: return "m2-reassign";
    case MoveKind::kRemoveResource: return "m3-remove-resource";
    case MoveKind::kCreateResource: return "m4-create-resource";
    case MoveKind::kChangeImpl: return "change-impl";
    case MoveKind::kReorderContexts: return "reorder-contexts";
  }
  return "?";
}

bool apply_reorder_sw(const TaskGraph& tg, const Architecture& arch,
                      Solution& sol, TaskId vs, TaskId vd, bool after,
                      Rng& /*rng*/) {
  if (vs == vd) return false;
  const Placement& ps = sol.placement(vs);
  const Placement& pd = sol.placement(vd);
  if (!ps.assigned() || ps.resource != pd.resource) return false;
  if (arch.resource(ps.resource).kind() != ResourceKind::kProcessor) {
    return false;  // §4.2: on an ASIC or RC context no move is performed
  }
  // Positions come from the solution's O(1) order mirror; "without vs"
  // indices shift every task behind vs one slot forward.
  const std::size_t vs_idx = sol.order_position(vs);
  const auto index_without_vs = [&](TaskId t) {
    const std::size_t pos = sol.order_position(t);
    return pos - (pos > vs_idx ? 1 : 0);
  };
  std::size_t target = index_without_vs(vd) + (after ? 1 : 0);

  // Clamp into the window allowed by *direct* same-processor precedence so
  // most draws stay coherent (§4.2); transitive conflicts through other
  // resources are still caught by the cycle check at evaluation. The window
  // costs O(deg(vs)).
  std::size_t lo = 0;  // slots of the order without vs: [0, |order| - 1]
  std::size_t hi = sol.processor_order(ps.resource).size() - 1;
  const Digraph& g = tg.digraph();
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
  if (lo > hi) return false;  // direct precedence leaves no slot
  target = std::clamp(target, lo, hi);
  if (target == vs_idx) return false;  // no-op draw
  sol.reposition(vs, target);
  return true;
}

bool apply_reassign(const TaskGraph& tg, const Architecture& arch,
                    Solution& sol, TaskId vs, TaskId vd, Rng& rng) {
  if (vs == vd) return false;
  const Placement ps = sol.placement(vs);
  const Placement pd_before = sol.placement(vd);
  if (!ps.assigned() || !pd_before.assigned()) return false;
  if (ps.resource == pd_before.resource && ps.context == pd_before.context) {
    return false;  // same processor (m1 territory), same context, same ASIC
  }

  const Resource& dest = arch.resource(pd_before.resource);
  switch (dest.kind()) {
    case ResourceKind::kProcessor: {
      if (ps.resource == pd_before.resource) return false;  // m1 territory
      sol.remove_task(vs);
      const std::size_t pos =
          sol.order_position(vd) + (rng.bernoulli(0.5) ? 1 : 0);
      sol.insert_on_processor(vs, pd_before.resource, pos);
      return true;
    }
    case ResourceKind::kReconfigurable: {
      const Task& task = tg.task(vs);
      if (!task.hw_capable()) return false;
      const auto& dev = arch.reconfigurable(pd_before.resource);
      const auto fits = fitting_impls(task, dev);
      if (fits.empty()) return false;

      // Keep the current implementation when it fits the device, otherwise
      // draw one; the dedicated kChangeImpl move explores the rest.
      std::uint32_t impl = fits[rng.index(fits.size())];
      if (ps.context >= 0 && ps.resource == pd_before.resource &&
          std::find(fits.begin(), fits.end(), ps.impl) != fits.end()) {
        impl = ps.impl;
      }

      sol.remove_task(vs);
      // Removing vs may have collapsed a context on the destination RC:
      // re-read the destination task's placement.
      const Placement pd = sol.placement(vd);
      RDSE_ASSERT(pd.context >= 0);
      const auto ctx = static_cast<std::size_t>(pd.context);
      if (sol.context_clbs(pd.resource, ctx) + task.hw.at(impl).clbs <=
          dev.n_clbs()) {
        sol.insert_in_context(vs, pd.resource, ctx, impl,
                              task.hw.at(impl).clbs);
      } else {
        // §4.3: "another context will be spawned if
        // nCLB(R(vd)) + C(vs) > NCLB".
        const std::size_t fresh = sol.spawn_context_after(pd.resource, ctx);
        sol.insert_in_context(vs, pd.resource, fresh, impl,
                              task.hw.at(impl).clbs);
      }
      return true;
    }
    case ResourceKind::kAsic: {
      const Task& task = tg.task(vs);
      if (!task.hw_capable()) return false;
      sol.remove_task(vs);
      const auto impl =
          static_cast<std::uint32_t>(rng.index(task.hw.size()));
      sol.insert_on_asic(vs, pd_before.resource, impl);
      return true;
    }
  }
  return false;
}

bool apply_reassign_to_resource(const TaskGraph& tg, const Architecture& arch,
                                Solution& sol, TaskId vs, ResourceId target,
                                Rng& rng) {
  const Placement ps = sol.placement(vs);
  if (!ps.assigned() || !arch.alive(target)) return false;
  const Resource& dest = arch.resource(target);
  switch (dest.kind()) {
    case ResourceKind::kProcessor: {
      if (ps.resource == target) return false;  // repositioning is m1
      sol.remove_task(vs);
      const std::size_t size = sol.processor_order(target).size();
      sol.insert_on_processor(vs, target, rng.index(size + 1));
      return true;
    }
    case ResourceKind::kReconfigurable: {
      const Task& task = tg.task(vs);
      if (!task.hw_capable()) return false;
      const auto& dev = arch.reconfigurable(target);
      const auto fits = fitting_impls(task, dev);
      if (fits.empty()) return false;
      const std::uint32_t impl = fits[rng.index(fits.size())];
      sol.remove_task(vs);
      // Draw an existing context or "one past the end" = spawn a new tail
      // context; an overflowing existing choice also spawns (§4.3 rule).
      const std::size_t n_ctx = sol.context_count(target);
      std::size_t ctx = rng.index(n_ctx + 1);
      if (ctx == n_ctx) {
        ctx = sol.spawn_context_after(
            target, n_ctx == 0 ? Solution::kFront : n_ctx - 1);
      } else if (sol.context_clbs(target, ctx) + task.hw.at(impl).clbs >
                 dev.n_clbs()) {
        ctx = sol.spawn_context_after(target, ctx);
      }
      sol.insert_in_context(vs, target, ctx, impl, task.hw.at(impl).clbs);
      return true;
    }
    case ResourceKind::kAsic: {
      const Task& task = tg.task(vs);
      if (!task.hw_capable()) return false;
      if (ps.resource == target) return false;
      sol.remove_task(vs);
      sol.insert_on_asic(vs, target,
                         static_cast<std::uint32_t>(rng.index(task.hw.size())));
      return true;
    }
  }
  return false;
}

bool apply_change_impl(const TaskGraph& tg, const Architecture& arch,
                       Solution& sol, TaskId vs, Rng& rng) {
  const Placement& p = sol.placement(vs);
  if (!p.assigned()) return false;
  const Resource& res = arch.resource(p.resource);
  if (res.kind() == ResourceKind::kProcessor) return false;
  const Task& task = tg.task(vs);
  if (task.hw.size() < 2) return false;

  // Draw a different implementation; for RC tasks it must keep the context
  // within the device capacity (implementation growth does not spawn).
  std::vector<std::uint32_t> options;
  for (std::uint32_t k = 0; k < task.hw.size(); ++k) {
    if (k == p.impl) continue;
    if (res.kind() == ResourceKind::kReconfigurable) {
      const auto& dev = arch.reconfigurable(p.resource);
      const std::int32_t used =
          sol.context_clbs(p.resource, static_cast<std::size_t>(p.context));
      const std::int32_t next =
          used - task.hw.at(p.impl).clbs + task.hw.at(k).clbs;
      if (next > dev.n_clbs()) continue;
    }
    options.push_back(k);
  }
  if (options.empty()) return false;
  const std::uint32_t impl = options[rng.index(options.size())];
  if (res.kind() == ResourceKind::kReconfigurable) {
    sol.set_impl(vs, impl, task.hw.at(impl).clbs);
  } else {
    // ASIC: re-stage the placement to update the implementation.
    const ResourceId asic = p.resource;
    sol.remove_task(vs);
    sol.insert_on_asic(vs, asic, impl);
  }
  return true;
}

bool apply_reorder_contexts(const Architecture& arch, Solution& sol,
                            Rng& rng) {
  std::vector<ResourceId> candidates;
  for (ResourceId rc : arch.reconfigurable_ids()) {
    if (sol.context_count(rc) >= 2) candidates.push_back(rc);
  }
  if (candidates.empty()) return false;
  const ResourceId rc = candidates[rng.index(candidates.size())];
  const std::size_t k = rng.index(sol.context_count(rc) - 1);
  sol.swap_contexts(rc, k, k + 1);
  return true;
}

bool apply_remove_resource(const TaskGraph& tg, Architecture& arch,
                           Solution& sol, TaskId vd, Rng& rng) {
  const Placement pd = sol.placement(vd);
  if (!pd.assigned()) return false;

  // Candidates: live resources holding exactly one task, other than vd's,
  // and never the last processor (software-only tasks need a home).
  std::vector<ResourceId> lone;
  const std::size_t n_proc = arch.processor_ids().size();
  for (ResourceId id : arch.live_ids()) {
    if (id == pd.resource) continue;
    if (sol.tasks_on(id) != 1) continue;
    if (arch.resource(id).kind() == ResourceKind::kProcessor && n_proc <= 1) {
      continue;
    }
    lone.push_back(id);
  }
  if (lone.empty()) return false;
  const ResourceId victim = lone[rng.index(lone.size())];

  // The single task on the victim joins vd's resource (m2 realization).
  TaskId refugee = kInvalidNode;
  for (TaskId t = 0; t < sol.task_count(); ++t) {
    if (sol.resource_of(t) == victim) {
      refugee = t;
      break;
    }
  }
  RDSE_ASSERT(refugee != kInvalidNode);
  if (!apply_reassign(tg, arch, sol, refugee, vd, rng)) {
    return false;
  }
  arch.remove(victim);
  return true;
}

bool apply_create_resource(const TaskGraph& tg, Architecture& arch,
                           Solution& sol, TaskId vs, Rng& rng) {
  const Placement ps = sol.placement(vs);
  if (!ps.assigned()) return false;
  const Task& task = tg.task(vs);

  // Pick a resource kind the task can use.
  std::vector<ResourceKind> kinds{ResourceKind::kProcessor};
  if (task.hw_capable()) {
    kinds.push_back(ResourceKind::kReconfigurable);
    kinds.push_back(ResourceKind::kAsic);
  }
  const ResourceKind kind = kinds[rng.index(kinds.size())];
  const auto slot = static_cast<std::uint32_t>(arch.slot_count());

  switch (kind) {
    case ResourceKind::kProcessor: {
      const ResourceId id =
          arch.add_processor("cpu" + std::to_string(slot));
      sol.remove_task(vs);
      sol.insert_on_processor(vs, id, 0);
      return true;
    }
    case ResourceKind::kReconfigurable: {
      // Clone the geometry of an existing RC when there is one, so the
      // explored systems stay in the same technology family.
      std::int32_t clbs = 1000;
      TimeNs tr = 22'500;
      const auto rcs = arch.reconfigurable_ids();
      if (!rcs.empty()) {
        const auto& proto = arch.reconfigurable(rcs[rng.index(rcs.size())]);
        clbs = proto.n_clbs();
        tr = proto.tr_per_clb();
      }
      const ResourceId id =
          arch.add_reconfigurable("fpga" + std::to_string(slot), clbs, tr);
      const auto fits = fitting_impls(task, arch.reconfigurable(id));
      if (fits.empty()) {
        arch.remove(id);
        return false;
      }
      sol.remove_task(vs);
      const std::size_t ctx = sol.spawn_context_after(id, Solution::kFront);
      const std::uint32_t impl = fits[rng.index(fits.size())];
      sol.insert_in_context(vs, id, ctx, impl, task.hw.at(impl).clbs);
      return true;
    }
    case ResourceKind::kAsic: {
      const ResourceId id = arch.add_asic("asic" + std::to_string(slot));
      sol.remove_task(vs);
      sol.insert_on_asic(
          vs, id, static_cast<std::uint32_t>(rng.index(task.hw.size())));
      return true;
    }
  }
  return false;
}

MoveOutcome generate_move(const TaskGraph& tg, Architecture& arch,
                          Solution& sol, const MoveConfig& config, Rng& rng) {
  const auto n = static_cast<std::int64_t>(tg.task_count());

  // Auxiliary degrees of freedom drawn up front with fixed probabilities.
  if (config.p_change_impl > 0.0 && rng.bernoulli(config.p_change_impl)) {
    const auto vs = static_cast<TaskId>(rng.index(tg.task_count()));
    return MoveOutcome{MoveKind::kChangeImpl,
                       apply_change_impl(tg, arch, sol, vs, rng)};
  }
  if (config.p_reorder_contexts > 0.0 &&
      rng.bernoulli(config.p_reorder_contexts)) {
    return MoveOutcome{MoveKind::kReorderContexts,
                       apply_reorder_contexts(arch, sol, rng)};
  }
  if (config.enable_reassign && config.p_resource_target > 0.0 &&
      rng.bernoulli(config.p_resource_target)) {
    const auto vs = static_cast<TaskId>(rng.index(tg.task_count()));
    const auto ids = arch.live_ids();
    const ResourceId target = ids[rng.index(ids.size())];
    return MoveOutcome{
        MoveKind::kReassign,
        apply_reassign_to_resource(tg, arch, sol, vs, target, rng)};
  }

  // §4.2: draw source and destination indices in [0, N]; index 0 requests
  // an architecture move and its probability is configurable (0 by default).
  const std::int64_t s =
      rng.bernoulli(config.p_zero) ? 0 : rng.uniform_int(1, n);
  const std::int64_t d =
      rng.bernoulli(config.p_zero) ? 0 : rng.uniform_int(1, n);

  if (s == 0 && d == 0) {
    return MoveOutcome{MoveKind::kRemoveResource, false};
  }
  if (s == 0) {
    const auto vd = static_cast<TaskId>(d - 1);
    return MoveOutcome{MoveKind::kRemoveResource,
                       apply_remove_resource(tg, arch, sol, vd, rng)};
  }
  if (d == 0) {
    const auto vs = static_cast<TaskId>(s - 1);
    return MoveOutcome{MoveKind::kCreateResource,
                       apply_create_resource(tg, arch, sol, vs, rng)};
  }

  const auto vs = static_cast<TaskId>(s - 1);
  const auto vd = static_cast<TaskId>(d - 1);
  const Placement& ps = sol.placement(vs);
  const Placement& pd = sol.placement(vd);

  if (ps.resource == pd.resource && ps.context == pd.context) {
    // Same resource. m1 on a processor; null on an ASIC or inside a context.
    if (!config.enable_reorder_sw) {
      return MoveOutcome{MoveKind::kReorderSw, false};
    }
    return MoveOutcome{
        MoveKind::kReorderSw,
        apply_reorder_sw(tg, arch, sol, vs, vd, rng.bernoulli(0.5), rng)};
  }
  if (!config.enable_reassign) {
    return MoveOutcome{MoveKind::kReassign, false};
  }
  return MoveOutcome{MoveKind::kReassign,
                     apply_reassign(tg, arch, sol, vs, vd, rng)};
}

}  // namespace rdse
