#include "mapping/search_graph.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rdse {

void context_boundary_into(const TaskGraph& tg, const Solution& sol,
                           ResourceId rc, std::size_t ctx,
                           ContextBoundary& out) {
  out.initials.clear();
  out.terminals.clear();
  const auto members = sol.context_tasks(rc, ctx);
  auto in_context = [&](TaskId t) {
    const Placement& p = sol.placement(t);
    return p.resource == rc &&
           p.context == static_cast<std::int32_t>(ctx);
  };
  for (TaskId t : members) {
    bool has_inner_pred = false;
    for (const HalfEdge& h : tg.digraph().in_half(t)) {
      if (in_context(h.node)) {
        has_inner_pred = true;
        break;
      }
    }
    if (!has_inner_pred) out.initials.push_back(t);

    bool has_inner_succ = false;
    for (const HalfEdge& h : tg.digraph().out_half(t)) {
      if (in_context(h.node)) {
        has_inner_succ = true;
        break;
      }
    }
    if (!has_inner_succ) out.terminals.push_back(t);
  }
}

ContextBoundary context_boundary(const TaskGraph& tg, const Solution& sol,
                                 ResourceId rc, std::size_t ctx) {
  ContextBoundary b;
  context_boundary_into(tg, sol, rc, ctx, b);
  return b;
}

namespace {

struct RealizationCounters {
  std::int64_t* bounds_reused = nullptr;
  std::int64_t* bounds_computed = nullptr;
};

void compute_rc_realization(const TaskGraph& tg, const Solution& sol,
                            ResourceId rc, RcRealization& out,
                            const RcRealization* hint,
                            const RealizationCounters& counters = {}) {
  const std::size_t n_ctx = sol.context_count(rc);
  // Shrink/grow without discarding inner vector capacity.
  if (out.members.size() > n_ctx) out.members.resize(n_ctx);
  while (out.members.size() < n_ctx) out.members.emplace_back();
  if (out.bounds.size() > n_ctx) out.bounds.resize(n_ctx);
  while (out.bounds.size() < n_ctx) out.bounds.emplace_back();
  for (std::size_t c = 0; c < n_ctx; ++c) {
    const auto members = sol.context_tasks(rc, c);
    out.members[c].assign(members.begin(), members.end());

    // Reuse from the hint's context with an identical member list — exact
    // for the boundary, which depends only on the member set and the
    // application edges. Try the same index first (the common case), then
    // search (contexts renumber under collapse/spawn/swap).
    const ContextBoundary* reuse = nullptr;
    if (hint != nullptr) {
      if (c < hint->members.size() && hint->members[c] == out.members[c]) {
        reuse = &hint->bounds[c];
      } else {
        for (std::size_t k = 0; k < hint->members.size(); ++k) {
          if (hint->members[k] == out.members[c]) {
            reuse = &hint->bounds[k];
            break;
          }
        }
      }
    }
    if (reuse != nullptr) {
      if (counters.bounds_reused != nullptr) ++*counters.bounds_reused;
      out.bounds[c].initials.assign(reuse->initials.begin(),
                                    reuse->initials.end());
      out.bounds[c].terminals.assign(reuse->terminals.begin(),
                                     reuse->terminals.end());
    } else {
      if (counters.bounds_computed != nullptr) ++*counters.bounds_computed;
      context_boundary_into(tg, sol, rc, c, out.bounds[c]);
    }
  }
}

}  // namespace

void SearchGraphCache::begin_build() { staged_live_.clear(); }

void SearchGraphCache::ensure_slot(ResourceId rc) {
  if (rc >= committed_.size()) {
    committed_.resize(rc + 1);
    committed_present_.resize(rc + 1, 0);
    staged_.resize(rc + 1);
  }
}

const RcRealization* SearchGraphCache::committed_entry(ResourceId rc) const {
  if (rc >= committed_present_.size() || committed_present_[rc] == 0) {
    return nullptr;
  }
  return &committed_[rc];
}

const RcRealization& SearchGraphCache::realize(const TaskGraph& tg,
                                               const Solution& sol,
                                               ResourceId rc) {
  // Asked again in this build: serve the staged entry (recomputing it would
  // list `rc` twice for commit, whose second swap would undo the first).
  if (std::find(staged_live_.begin(), staged_live_.end(), rc) !=
      staged_live_.end()) {
    return staged_[rc];
  }
  ensure_slot(rc);
  ++misses_;
  RcRealization& out = staged_[rc];
  compute_rc_realization(tg, sol, rc, out, committed_entry(rc),
                         {&bounds_reused_, &bounds_computed_});
  staged_live_.push_back(rc);
  return out;
}

void SearchGraphCache::commit() {
  // Swap rather than move so the displaced committed storage becomes the
  // next build's staging capacity.
  for (ResourceId rc : staged_live_) {
    RcRealization& fresh = staged_[rc];
    RcRealization& kept = committed_[rc];
    kept.members.swap(fresh.members);
    kept.bounds.swap(fresh.bounds);
    committed_present_[rc] = 1;
  }
  staged_live_.clear();
}

void SearchGraphCache::discard() { staged_live_.clear(); }

void SearchGraphCache::erase(ResourceId rc) {
  if (rc < committed_.size()) {
    committed_present_[rc] = 0;
    committed_[rc] = RcRealization();  // release storage; ids never reused
    staged_[rc] = RcRealization();
  }
}

void SearchGraphCache::adopt(SearchGraphCache&& fresh) {
  committed_ = std::move(fresh.committed_);
  committed_present_ = std::move(fresh.committed_present_);
  staged_ = std::move(fresh.staged_);
  staged_live_.clear();
  misses_ += fresh.misses_;
  bounds_reused_ += fresh.bounds_reused_;
  bounds_computed_ += fresh.bounds_computed_;
}

TimeNs assigned_exec_time(const TaskGraph& tg, const Architecture& arch,
                          const Solution& sol, TaskId t) {
  const Placement& p = sol.placement(t);
  RDSE_REQUIRE(p.assigned(), "assigned_exec_time: task '" + tg.task(t).name +
                                 "' is unassigned");
  const Resource& res = arch.resource(p.resource);
  if (res.kind() == ResourceKind::kProcessor) {
    return res.execution_time(tg.task(t).sw_time);
  }
  const auto& impls = tg.task(t).hw;
  RDSE_REQUIRE(p.impl < impls.size(),
               "assigned_exec_time: implementation index out of range");
  return impls.at(p.impl).time;
}

TimeNs comm_edge_weight(const TaskGraph& tg, const Bus& bus,
                        const Solution& sol, EdgeId e) {
  const CommEdge& c = tg.comm(e);
  return co_located(sol, c.src, c.dst) ? 0 : bus.transfer_time(c.bytes);
}

SearchGraph build_search_graph(const TaskGraph& tg, const Architecture& arch,
                               const Solution& sol) {
  SearchGraph sg;
  build_search_graph_into(sg, tg, arch, sol);
  return sg;
}

void begin_search_graph(SearchGraph& sg, const TaskGraph& tg,
                        const Architecture& arch, const Solution& sol) {
  RDSE_REQUIRE(sol.task_count() == tg.task_count(),
               "build_search_graph: solution/task-graph size mismatch");
  sg.release.assign(tg.task_count(), 0);
  sg.comm_cross = 0;
  sg.edge_kind.assign(tg.comm_count(), SearchEdgeKind::kComm);

  // --- node weights: execution time on the assigned resource -------------
  sg.node_weight.resize(tg.task_count());
  for (TaskId t = 0; t < tg.task_count(); ++t) {
    sg.node_weight[t] = assigned_exec_time(tg, arch, sol, t);
  }
}

void add_sequentialization_edges(SearchGraph& sg, const TaskGraph& tg,
                                 const Architecture& arch,
                                 const Solution& sol,
                                 SearchGraphCache* cache) {
  // --- Esw: processor total orders ----------------------------------------
  for (ResourceId proc : arch.processor_ids()) {
    const auto order = sol.processor_order(proc);
    for (std::size_t i = 1; i < order.size(); ++i) {
      (void)sg.add_weighted_edge(order[i - 1], order[i], 0,
                                 SearchEdgeKind::kSwSeq);
    }
  }

  // --- Ehw: context sequentialization + first-context release ------------
  RcRealization local;  // fallback when no cache is supplied
  for (ResourceId rc : arch.reconfigurable_ids()) {
    const std::size_t n_ctx = sol.context_count(rc);
    if (n_ctx == 0) continue;
    const Resource& dev = arch.reconfigurable(rc);

    const RcRealization* real;
    if (cache != nullptr) {
      real = &cache->realize(tg, sol, rc);
    } else {
      compute_rc_realization(tg, sol, rc, local, nullptr);
      real = &local;
    }

    const TimeNs first_load = dev.reconfiguration_time(sol.context_clbs(rc, 0));
    for (TaskId t : real->bounds[0].initials) {
      sg.release[t] = std::max(sg.release[t], first_load);
    }

    for (std::size_t c = 0; c + 1 < n_ctx; ++c) {
      const TimeNs reconf =
          dev.reconfiguration_time(sol.context_clbs(rc, c + 1));
      for (TaskId from : real->bounds[c].terminals) {
        for (TaskId to : real->bounds[c + 1].initials) {
          (void)sg.add_weighted_edge(from, to, reconf, SearchEdgeKind::kHwSeq);
        }
      }
    }
  }
  account_contexts(sg, arch, sol);
}

void account_contexts(SearchGraph& sg, const Architecture& arch,
                      const Solution& sol) {
  sg.init_reconfig = sg.dyn_reconfig = 0;
  sg.n_contexts = 0;
  sg.clbs_loaded = sg.max_context_clbs = 0;
  for (ResourceId rc = 0; rc < arch.slot_count(); ++rc) {
    if (!arch.alive(rc) ||
        arch.resource(rc).kind() != ResourceKind::kReconfigurable) {
      continue;
    }
    const Resource& dev = arch.reconfigurable(rc);
    const std::size_t n_ctx = sol.context_count(rc);
    sg.n_contexts += static_cast<int>(n_ctx);
    for (std::size_t c = 0; c < n_ctx; ++c) {
      const std::int32_t clbs = sol.context_clbs(rc, c);
      (c == 0 ? sg.init_reconfig : sg.dyn_reconfig) +=
          dev.reconfiguration_time(clbs);
      sg.clbs_loaded += clbs;
      sg.max_context_clbs = std::max(sg.max_context_clbs, clbs);
    }
  }
}

void build_search_graph_into(SearchGraph& sg, const TaskGraph& tg,
                             const Architecture& arch, const Solution& sol) {
  begin_search_graph(sg, tg, arch, sol);
  sg.graph = tg.digraph();  // value copy: application edges keep their ids

  // --- application edges: bus time when crossing -------------------------
  const Bus& bus = arch.bus();
  for (EdgeId e = 0; e < tg.comm_count(); ++e) {
    const TimeNs w = comm_edge_weight(tg, bus, sol, e);
    sg.graph.set_edge_weight(e, w);
    sg.comm_cross += w;
  }

  add_sequentialization_edges(sg, tg, arch, sol);
}

}  // namespace rdse
