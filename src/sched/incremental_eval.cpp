#include "sched/incremental_eval.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/assert.hpp"

namespace rdse {

std::optional<Metrics> IncrementalEvaluator::reset(const Architecture& arch,
                                                   const Solution& sol) {
  // Realize the state into fresh storage and adopt it only once it is known
  // to be acyclic, so a rejected state leaves this evaluator as it was.
  SearchGraph next;
  begin_search_graph(next, *tg_, arch, sol);
  const Digraph& app = tg_->digraph();
  // Application edges keep their TaskGraph ids and start parked, copied in
  // bulk. Past them, room for two sequentialization edges per task: at
  // most one Esw edge per task, and as many Ehw edges again, which covers
  // what annealing runs from the all-software start add. The edge table
  // is then allocated once per reset instead of doubling partway through
  // a run (a state with more Ehw edges still grows it as it needs).
  const std::size_t edge_room = tg_->comm_count() + 2 * tg_->task_count();
  next.graph = Digraph::parked_copy(app, edge_room);
  next.edge_kind.reserve(edge_room);
  // Adjacency room for every application edge plus one Esw edge each way,
  // so a move that unparks an edge attaches it without reallocating.
  for (TaskId t = 0; t < tg_->task_count(); ++t) {
    next.graph.reserve_degree(t, app.out_degree(t) + 1, app.in_degree(t) + 1);
  }
  std::vector<std::uint8_t> on_proc(tg_->task_count());
  for (TaskId t = 0; t < tg_->task_count(); ++t) {
    on_proc[t] = arch.resource(sol.placement(t).resource).kind() ==
                         ResourceKind::kProcessor
                     ? 1
                     : 0;
  }

  // An application edge between two tasks on one processor stays parked:
  // the zero-weight Esw chain orders the pair, so the edge never raises a
  // start time, and G' is acyclic iff the sparse graph is and every parked
  // edge runs forward. Every other edge is attached, in id order, with its
  // weight. Each bus transfer time is computed once, for the weight and
  // the memo.
  std::vector<TimeNs> bus_time(tg_->comm_count());
  std::int64_t parked = 0;
  for (EdgeId e = 0; e < tg_->comm_count(); ++e) {
    const CommEdge& c = tg_->comm(e);
    bus_time[e] = arch.bus().transfer_time(c.bytes);
    if (on_proc[c.src] != 0 &&
        sol.placement(c.src).resource == sol.placement(c.dst).resource) {
      if (sol.order_position(c.src) > sol.order_position(c.dst)) {
        return std::nullopt;  // runs backwards: a cycle through the chain
      }
      ++parked;
    } else {
      const TimeNs w = co_located(sol, c.src, c.dst) ? 0 : bus_time[e];
      next.graph.unpark_edge(e);
      next.graph.set_edge_weight(e, w);
      next.comm_cross += w;
    }
  }
  SearchGraphCache realized;
  realized.begin_build();
  add_sequentialization_edges(next, *tg_, arch, sol, &realized);
  const WeightedDag dag{&next.graph, next.node_weight,
                        next.graph.edge_weights(), next.release};
  if (!relaxer_.reset(dag)) return std::nullopt;

  // ---- acyclic: adopt the state ------------------------------------------
  sg_ = std::move(next);
  realized.commit();
  cache_.adopt(std::move(realized));
  bus_time_.swap(bus_time);
  task_on_proc_.swap(on_proc);
  comm_parked_ = parked;

  // Index the sequentialization edges: an Esw edge is its endpoints'
  // links, an Ehw edge joins its source RC's list. They follow the
  // application edges with ascending ids, each RC's in chain order, so this
  // id-ordered scan reproduces chain order per list — the invariant the
  // position diff relies on.
  chain_out_.assign(tg_->task_count(), kInvalidEdge);
  chain_in_.assign(tg_->task_count(), kInvalidEdge);
  for (auto& list : seq_edges_) list.clear();
  if (seq_edges_.size() < arch.slot_count()) {
    seq_edges_.resize(arch.slot_count());
  }
  for (EdgeId e = tg_->comm_count(); e < sg_.graph.edge_capacity(); ++e) {
    const Digraph::Edge& ed = sg_.graph.edge(e);
    if (sg_.edge_kind[e] == SearchEdgeKind::kSwSeq) {
      chain_out_[ed.src] = e;
      chain_in_[ed.dst] = e;
    } else {
      seq_list(sol.placement(ed.src).resource).push_back(e);
    }
  }

  // Task-partition sums (maintained as deltas from here on).
  sw_busy_ = hw_busy_ = 0;
  sw_tasks_ = hw_tasks_ = 0;
  for (TaskId t = 0; t < tg_->task_count(); ++t) {
    if (task_on_proc_[t] != 0) {
      ++sw_tasks_;
      sw_busy_ += sg_.node_weight[t];
    } else {
      ++hw_tasks_;
      hw_busy_ += sg_.node_weight[t];
    }
  }
  pending_ = false;
  return metrics(relaxer_.makespan());
}

Metrics IncrementalEvaluator::metrics(TimeNs makespan) const {
  Metrics m;
  m.makespan = makespan;
  m.init_reconfig = sg_.init_reconfig;
  m.dyn_reconfig = sg_.dyn_reconfig;
  m.comm_cross = sg_.comm_cross;
  m.sw_busy = sw_busy_;
  m.hw_busy = hw_busy_;
  m.sw_tasks = sw_tasks_;
  m.hw_tasks = hw_tasks_;
  m.n_contexts = sg_.n_contexts;
  m.clbs_loaded = sg_.clbs_loaded;
  m.max_context_clbs = sg_.max_context_clbs;
  return m;
}

bool IncrementalEvaluator::rank_conflict(const Solution& cand_sol, TaskId t,
                                         bool on_processor) const {
  const Digraph& app = tg_->digraph();
  const ResourceId r = cand_sol.placement(t).resource;
  const auto rank = [&](TaskId u) -> std::size_t {
    return on_processor
               ? cand_sol.order_position(u)
               : static_cast<std::size_t>(cand_sol.placement(u).context);
  };
  const std::size_t own = rank(t);
  for (const HalfEdge& h : app.in_half(t)) {
    if (cand_sol.placement(h.node).resource == r && rank(h.node) > own) {
      return true;
    }
  }
  for (const HalfEdge& h : app.out_half(t)) {
    if (cand_sol.placement(h.node).resource == r && rank(h.node) < own) {
      return true;
    }
  }
  return false;
}

void IncrementalEvaluator::stage_node_weight(NodeId v, TimeNs w) {
  if (sg_.node_weight[v] == w) return;
  node_weight_undo_.push_back({v, sg_.node_weight[v]});
  sg_.node_weight[v] = w;
  seeds_.push_back(v);
}

void IncrementalEvaluator::stage_comm_weight(EdgeId e, TimeNs w) {
  const TimeNs old = sg_.graph.edge_weight(e);
  if (old == w) return;
  comm_undo_.push_back({e, old, EdgeOp::kWeight});
  sg_.comm_cross += w - old;
  sg_.graph.set_edge_weight(e, w);
  seeds_.push_back(sg_.graph.edge(e).dst);
}

void IncrementalEvaluator::stage_park(EdgeId e) {
  if (!sg_.graph.edge_alive(e)) return;  // already parked
  // Co-located now: its crossing weight leaves comm_cross.
  stage_comm_weight(e, 0);
  comm_undo_.push_back({e, 0, EdgeOp::kPark});
  sg_.graph.park_edge(e);
  seeds_.push_back(tg_->comm(e).dst);
  ++comm_parked_;
}

void IncrementalEvaluator::stage_unpark(EdgeId e) {
  if (!sg_.graph.edge_parked(e)) return;  // already live
  comm_undo_.push_back({e, 0, EdgeOp::kUnpark});
  sg_.graph.unpark_edge(e);
  new_edges_.push_back(e);
  seeds_.push_back(tg_->comm(e).dst);
  --comm_parked_;
}

void IncrementalEvaluator::stage_release(NodeId v, TimeNs r) {
  if (sg_.release[v] == r) return;
  release_undo_.push_back({v, sg_.release[v]});
  sg_.release[v] = r;
  seeds_.push_back(v);
}

void IncrementalEvaluator::stage_release_pending(NodeId v, TimeNs r) {
  for (NodeUndo& p : release_pending_) {
    if (p.node == v) {
      p.value = r;
      return;
    }
  }
  release_pending_.push_back({v, r});
}

std::vector<EdgeId>& IncrementalEvaluator::seq_list(ResourceId r) {
  if (r >= seq_edges_.size()) {
    seq_edges_.resize(static_cast<std::size_t>(r) + 1);
  }
  return seq_edges_[r];
}

EdgeId IncrementalEvaluator::link(TaskId src, TaskId dst) {
  RDSE_DCHECK(chain_out_[src] == kInvalidEdge && chain_in_[dst] == kInvalidEdge,
              "Esw link added over a live one");
  const EdgeId id = sg_.add_weighted_edge(src, dst, 0, SearchEdgeKind::kSwSeq);
  chain_out_[src] = id;
  chain_in_[dst] = id;
  return id;
}

void IncrementalEvaluator::unlink(EdgeId e) {
  const Digraph::Edge ed = sg_.graph.edge_unchecked(e);
  chain_out_[ed.src] = kInvalidEdge;
  chain_in_[ed.dst] = kInvalidEdge;
  sg_.graph.remove_edge(e);
}

// Processor chains by edge identity. A task's successor can change only if
// the task moved, or if a moved task left or entered the slot right after
// it: the mutators keep the relative order of every untouched task on its
// processor. So the dirty tasks are the moved ones, each one's committed
// predecessor (chain_in_) and its candidate predecessor (the order mirror).
void IncrementalEvaluator::reconcile_links(
    const Solution& cand_sol, std::span<const TaskId> touched_tasks) {
  dirty_.clear();
  const auto mark = [&](TaskId t) {
    for (const DirtyLink& d : dirty_) {
      if (d.task == t) return;
    }
    dirty_.push_back({t, kInvalidNode});
  };
  for (TaskId t : touched_tasks) {
    mark(t);
    if (chain_in_[t] != kInvalidEdge) {
      mark(sg_.graph.edge_unchecked(chain_in_[t]).src);
    }
    if (task_on_proc_[t] != 0) {
      const std::size_t pos = cand_sol.order_position(t);
      if (pos > 0) {
        mark(cand_sol.processor_order(cand_sol.placement(t).resource)[pos - 1]);
      }
    }
  }
  if (dirty_.empty()) return;
  ++reconciles_;

  // Remove every stale link first...
  for (DirtyLink& d : dirty_) {
    if (task_on_proc_[d.task] != 0) {
      const auto order =
          cand_sol.processor_order(cand_sol.placement(d.task).resource);
      const std::size_t pos = cand_sol.order_position(d.task);
      if (pos + 1 < order.size()) d.next = order[pos + 1];
    }
    const EdgeId e = chain_out_[d.task];
    if (e == kInvalidEdge) continue;
    const NodeId dst = sg_.graph.edge_unchecked(e).dst;
    if (dst == d.next) {
      ++seq_kept_;
      continue;
    }
    removed_links_.emplace_back(d.task, dst);
    seeds_.push_back(dst);
    unlink(e);
    ++seq_removed_;
  }
  // ...then add the missing ones: each successor's old in-link is gone by
  // now, since its old predecessor is dirty too.
  for (const DirtyLink& d : dirty_) {
    if (d.next == kInvalidNode || chain_out_[d.task] != kInvalidEdge) continue;
    const EdgeId id = link(d.task, d.next);
    added_links_.push_back(id);
    new_edges_.push_back(id);
    seeds_.push_back(d.next);
    ++seq_added_;
  }
}

void IncrementalEvaluator::stage_seq_weight(EdgeId e, TimeNs w) {
  // In-place re-weighting of a surviving Ehw edge (same undo record as
  // communication weights; unlike those it leaves comm_cross untouched).
  comm_undo_.push_back({e, sg_.graph.edge_weight(e), EdgeOp::kWeight});
  sg_.graph.set_edge_weight(e, w);
  seeds_.push_back(sg_.graph.edge_unchecked(e).dst);
  ++seq_reweighted_;
}

// An RC's Ehw list against desired_, by position: a local change to its
// contexts leaves a common prefix and suffix, and only the window in
// between needs surgery. An edge whose endpoints match but whose weight
// differs (the common case when a context's reconfiguration time changed
// under an implementation move) is re-weighted in place instead of torn
// down and re-inserted: it stays out of new_edges_, so it can neither
// violate the committed ranks nor trigger a rank repair.
void IncrementalEvaluator::reconcile_seq_edges(ResourceId r) {
  auto& list = seq_list(r);
  ++reconciles_;
  const std::size_t n_old = list.size();
  const std::size_t n_new = desired_.size();
  const auto keep = [&](EdgeId id, const DesiredEdge& d) {
    const Digraph::Edge& ed = sg_.graph.edge_unchecked(id);
    RDSE_DCHECK(sg_.edge_kind[id] == SearchEdgeKind::kHwSeq,
                "RC chain holds a non-Ehw edge");
    if (d.src != ed.src || d.dst != ed.dst) return false;
    if (d.weight != sg_.graph.edge_weight(id)) stage_seq_weight(id, d.weight);
    return true;
  };
  std::size_t prefix = 0;
  while (prefix < n_old && prefix < n_new &&
         keep(list[prefix], desired_[prefix])) {
    ++prefix;
  }
  std::size_t suffix = 0;
  while (suffix < n_old - prefix && suffix < n_new - prefix &&
         keep(list[n_old - 1 - suffix], desired_[n_new - 1 - suffix])) {
    ++suffix;
  }
  seq_kept_ += static_cast<std::int64_t>(prefix + suffix);
  if (prefix == n_old && prefix == n_new) return;  // lists identical

  ReconcileUndo undo;
  undo.res = r;
  undo.prefix = static_cast<std::uint32_t>(prefix);
  undo.suffix = static_cast<std::uint32_t>(suffix);
  undo.removed_begin = static_cast<std::uint32_t>(removed_seq_.size());
  undo.added_begin = static_cast<std::uint32_t>(added_ids_.size());

  // Tear down the differing window of the old list...
  for (std::size_t i = prefix; i < n_old - suffix; ++i) {
    const EdgeId id = list[i];
    const Digraph::Edge& ed = sg_.graph.edge_unchecked(id);
    removed_seq_.push_back({ed.src, ed.dst, sg_.graph.edge_weight(id)});
    seeds_.push_back(ed.dst);
    sg_.graph.remove_edge(id);
  }
  seq_removed_ += static_cast<std::int64_t>(n_old - suffix - prefix);

  // ...and splice the desired window in, keeping the list in chain order.
  splice_.clear();
  splice_.insert(splice_.end(), list.begin(),
                 list.begin() + static_cast<std::ptrdiff_t>(prefix));
  for (std::size_t k = prefix; k < n_new - suffix; ++k) {
    const DesiredEdge& d = desired_[k];
    const EdgeId id =
        sg_.add_weighted_edge(d.src, d.dst, d.weight, SearchEdgeKind::kHwSeq);
    splice_.push_back(id);
    added_ids_.push_back(id);
    new_edges_.push_back(id);
    seeds_.push_back(d.dst);
  }
  seq_added_ += static_cast<std::int64_t>(n_new - suffix - prefix);
  splice_.insert(splice_.end(),
                 list.end() - static_cast<std::ptrdiff_t>(suffix),
                 list.end());
  list.swap(splice_);

  undo.removed_end = static_cast<std::uint32_t>(removed_seq_.size());
  undo.added_end = static_cast<std::uint32_t>(added_ids_.size());
  reconcile_undo_.push_back(undo);
}

std::optional<Metrics> IncrementalEvaluator::evaluate_candidate(
    const Architecture& cand_arch, const Solution& cand_sol,
    std::span<const ResourceId> touched_resources,
    std::span<const TaskId> touched_tasks) {
  RDSE_REQUIRE(!pending_,
               "IncrementalEvaluator: previous candidate not resolved");
  ++builds_;

  // Micro-profile phase clock: one running timestamp, advanced at each
  // phase boundary (two clock reads per phase, opt-in).
  using ProfileClock = std::chrono::steady_clock;
  ProfileClock::time_point prof_t{};
  if (profile_) prof_t = ProfileClock::now();
  const auto profile_lap = [&](std::int64_t& slot) {
    const auto now = ProfileClock::now();
    slot += std::chrono::duration_cast<std::chrono::nanoseconds>(now - prof_t)
                .count();
    prof_t = now;
  };

  // ---- 0. direct cycle checks, before any surgery: a moved task with an
  // application predecessor after it (or successor before it) on its own
  // resource closes a cycle through the chain — the Esw chain on a
  // processor, where only moved tasks can turn a parked edge backwards;
  // the Ehw edges between contexts on an RC. Each check is O(degree).
  for (TaskId t : touched_tasks) {
    const ResourceKind kind =
        cand_arch.resource(cand_sol.placement(t).resource).kind();
    if (kind == ResourceKind::kAsic) continue;
    const bool on_processor = kind == ResourceKind::kProcessor;
    if (rank_conflict(cand_sol, t, on_processor)) {
      ++(on_processor ? order_rejects_ : context_rejects_);
      if (profile_) profile_lap(prof_stage_ns_);
      return std::nullopt;
    }
  }

  seeds_.clear();
  new_edges_.clear();
  removed_links_.clear();
  added_links_.clear();
  removed_seq_.clear();
  added_ids_.clear();
  reconcile_undo_.clear();
  comm_undo_.clear();
  node_weight_undo_.clear();
  release_undo_.clear();
  side_undo_.clear();
  dead_resources_.clear();
  touched_snapshot_.assign(touched_resources.begin(),
                           touched_resources.end());
  snap_.init_reconfig = sg_.init_reconfig;
  snap_.dyn_reconfig = sg_.dyn_reconfig;
  snap_.comm_cross = sg_.comm_cross;
  snap_.n_contexts = sg_.n_contexts;
  snap_.clbs_loaded = sg_.clbs_loaded;
  snap_.max_context_clbs = sg_.max_context_clbs;
  snap_.sw_busy = sw_busy_;
  snap_.hw_busy = hw_busy_;
  snap_.sw_tasks = sw_tasks_;
  snap_.hw_tasks = hw_tasks_;
  snap_.comm_parked = comm_parked_;
  cache_.begin_build();

  // ---- 1. moved tasks: node weights, partition sums, incident
  // communication edges ------------------------------------------------------
  // comm_edge_weight with the memoized bus time (co_located is the shared
  // crossing predicate, so the two paths cannot drift apart).
  const auto comm_weight = [&](EdgeId e) -> TimeNs {
    const CommEdge& c = tg_->comm(e);
    return co_located(cand_sol, c.src, c.dst) ? 0 : bus_time_[e];
  };
  const Digraph& app = tg_->digraph();
  for (TaskId t : touched_tasks) {
    const TimeNs old_w = sg_.node_weight[t];
    const TimeNs new_w = assigned_exec_time(*tg_, cand_arch, cand_sol, t);
    const bool was_sw = task_on_proc_[t] != 0;
    const bool now_sw =
        cand_arch.resource(cand_sol.placement(t).resource).kind() ==
        ResourceKind::kProcessor;
    if (was_sw) {
      --sw_tasks_;
      sw_busy_ -= old_w;
    } else {
      --hw_tasks_;
      hw_busy_ -= old_w;
    }
    if (now_sw) {
      ++sw_tasks_;
      sw_busy_ += new_w;
    } else {
      ++hw_tasks_;
      hw_busy_ += new_w;
    }
    if (was_sw != now_sw) {
      side_undo_.emplace_back(t, task_on_proc_[t]);
      task_on_proc_[t] = now_sw ? 1 : 0;
    }
    stage_node_weight(t, new_w);
    // An edge to a task on the same processor is parked; every other one
    // is live at its crossing weight. (An edge between two moved tasks is
    // visited twice; the second visit finds it staged and does nothing.)
    const ResourceId proc =
        now_sw ? cand_sol.placement(t).resource : kInvalidResource;
    const auto stage_comm = [&](const HalfEdge& h) {
      if (cand_sol.placement(h.node).resource == proc) {
        stage_park(h.edge);
      } else {
        stage_unpark(h.edge);
        stage_comm_weight(h.edge, comm_weight(h.edge));
      }
    };
    for (const HalfEdge& h : app.in_half(t)) stage_comm(h);
    for (const HalfEdge& h : app.out_half(t)) stage_comm(h);
  }

  if (profile_) profile_lap(prof_stage_ns_);

  // ---- 2a. clear releases contributed by touched RCs' old first contexts
  // (before any re-set, so a task migrating between two touched first
  // contexts sees its release cleared before the new one lands, whatever
  // the order of the touched list). Clears and re-sets are coalesced in
  // release_pending_ and staged once at their *net* value below — a first
  // context whose initials and load the move left alone then stages
  // nothing, seeding no relaxation.
  release_pending_.clear();
  for (ResourceId r : touched_snapshot_) {
    if (const RcRealization* old = cache_.committed_entry(r);
        old != nullptr && !old->bounds.empty()) {
      for (TaskId t : old->bounds[0].initials) stage_release_pending(t, 0);
    }
  }

  // ---- 2b. processor chains: the dirty tasks' Esw links ------------------
  reconcile_links(cand_sol, touched_tasks);

  // ---- 2c. touched RCs: re-realize and diff the Ehw lists -----------------
  // Step 3 runs only when a touched resource is an RC of the candidate or
  // gave the committed state contexts (an m3-removed device).
  bool rc_relevant = false;
  for (ResourceId r : touched_snapshot_) {
    desired_.clear();
    if (!cand_arch.alive(r)) {
      dead_resources_.push_back(r);  // an m3 move removed the resource
      const RcRealization* old = cache_.committed_entry(r);
      rc_relevant = rc_relevant || (old != nullptr && !old->bounds.empty());
    } else if (cand_arch.resource(r).kind() != ResourceKind::kReconfigurable) {
      continue;  // a processor's chain is its tasks' links; an ASIC has none
    } else {
      rc_relevant = true;
      // Realize even when the RC lost its last context: the staged (empty)
      // entry replaces the committed one on accept, so a later move
      // touching this RC cannot tear down releases from a stale
      // realization.
      const RcRealization& real = cache_.realize(*tg_, cand_sol, r);
      const std::size_t n_ctx = cand_sol.context_count(r);
      if (n_ctx > 0) {
        const auto& dev = cand_arch.reconfigurable(r);
        const TimeNs first_load =
            dev.reconfiguration_time(cand_sol.context_clbs(r, 0));
        for (TaskId t : real.bounds[0].initials) {
          stage_release_pending(t, first_load);
        }
        for (std::size_t c = 0; c + 1 < n_ctx; ++c) {
          const TimeNs reconf =
              dev.reconfiguration_time(cand_sol.context_clbs(r, c + 1));
          for (TaskId from : real.bounds[c].terminals) {
            for (TaskId to : real.bounds[c + 1].initials) {
              desired_.push_back({from, to, reconf});
            }
          }
        }
      }
    }
    reconcile_seq_edges(r);
  }
  for (const auto& [task, release] : release_pending_) {
    stage_release(task, release);  // no-op (and no seed) when unchanged
  }

  if (profile_) profile_lap(prof_reconcile_ns_);

  // ---- 3. context accounting ---------------------------------------------
  if (rc_relevant) account_contexts(sg_, cand_arch, cand_sol);

  if (profile_) profile_lap(prof_context_ns_);

  // ---- 4. incremental relaxation ------------------------------------------
  const WeightedDag dag{&sg_.graph, sg_.node_weight,
                        sg_.graph.edge_weights(), sg_.release};
  const auto makespan = relaxer_.probe(dag, seeds_, new_edges_);
  if (profile_) profile_lap(prof_relax_ns_);
  if (!makespan.has_value()) {
    rollback();
    cache_.discard();
    return std::nullopt;
  }

  pending_ = true;
  return metrics(*makespan);
}

void IncrementalEvaluator::rollback() {
  // Restore the relaxer's committed start/finish values first (in-place
  // candidate layout: a successful probe wrote over them under journal
  // protection; a cyclic probe journaled nothing, so this is a no-op).
  relaxer_.discard();
  // Undo the Ehw splices in reverse: each record turns
  // `prefix + added-window + suffix` back into
  // `prefix + re-added removed-window + suffix`, so the list is restored in
  // chain order exactly (re-added edges get fresh ids — nothing outside the
  // per-RC id lists and the Esw links holds sequentialization edge ids).
  for (auto it = reconcile_undo_.rbegin(); it != reconcile_undo_.rend();
       ++it) {
    auto& list = seq_edges_[it->res];
    const std::size_t n_added = it->added_end - it->added_begin;
    for (std::size_t k = it->added_begin; k < it->added_end; ++k) {
      sg_.graph.remove_edge(added_ids_[k]);
    }
    splice_.clear();
    splice_.insert(splice_.end(), list.begin(), list.begin() + it->prefix);
    for (std::size_t k = it->removed_begin; k < it->removed_end; ++k) {
      const RemovedSeqEdge& re = removed_seq_[k];
      splice_.push_back(sg_.add_weighted_edge(re.src, re.dst, re.weight,
                                              SearchEdgeKind::kHwSeq));
    }
    splice_.insert(
        splice_.end(),
        list.begin() + static_cast<std::ptrdiff_t>(it->prefix + n_added),
        list.end());
    list.swap(splice_);
  }
  // The Esw links: drop every added one before restoring any removed one.
  for (EdgeId e : added_links_) unlink(e);
  for (const auto& [src, dst] : removed_links_) (void)link(src, dst);
  for (auto it = comm_undo_.rbegin(); it != comm_undo_.rend(); ++it) {
    switch (it->op) {
      case EdgeOp::kWeight:
        sg_.graph.set_edge_weight(it->edge, it->weight);
        break;
      case EdgeOp::kPark:
        sg_.graph.unpark_edge(it->edge);
        break;
      case EdgeOp::kUnpark:
        sg_.graph.park_edge(it->edge);
        break;
    }
  }
  comm_parked_ = snap_.comm_parked;
  for (auto it = node_weight_undo_.rbegin(); it != node_weight_undo_.rend();
       ++it) {
    sg_.node_weight[it->node] = it->value;
  }
  for (auto it = release_undo_.rbegin(); it != release_undo_.rend(); ++it) {
    sg_.release[it->node] = it->value;
  }
  sg_.init_reconfig = snap_.init_reconfig;
  sg_.dyn_reconfig = snap_.dyn_reconfig;
  sg_.comm_cross = snap_.comm_cross;
  sg_.n_contexts = snap_.n_contexts;
  sg_.clbs_loaded = snap_.clbs_loaded;
  sg_.max_context_clbs = snap_.max_context_clbs;
  sw_busy_ = snap_.sw_busy;
  hw_busy_ = snap_.hw_busy;
  sw_tasks_ = snap_.sw_tasks;
  hw_tasks_ = snap_.hw_tasks;
  for (auto it = side_undo_.rbegin(); it != side_undo_.rend(); ++it) {
    task_on_proc_[it->first] = it->second;
  }
}

void IncrementalEvaluator::commit() {
  RDSE_REQUIRE(pending_, "IncrementalEvaluator::commit: no candidate staged");
  relaxer_.commit();
  cache_.commit();
  for (ResourceId r : dead_resources_) {
    cache_.erase(r);
    // Emptied by the diff against no desired edges; release the storage
    // (the slot stays — resource ids are never reused).
    std::vector<EdgeId>().swap(seq_list(r));
  }
  dead_resources_.clear();
  pending_ = false;
}

void IncrementalEvaluator::discard() {
  if (pending_) {
    rollback();
    cache_.discard();
  }
  pending_ = false;
}

IncrementalEvalStats IncrementalEvaluator::stats() const {
  IncrementalEvalStats s;
  s.relax = relaxer_.stats();
  s.builds = builds_;
  s.order_rejects = order_rejects_;
  s.context_rejects = context_rejects_;
  s.comm_edges_parked = comm_parked_;
  s.cache_misses = cache_.misses();
  s.bounds_reused = cache_.bounds_reused();
  s.bounds_computed = cache_.bounds_computed();
  s.reconciles = reconciles_;
  s.seq_edges_kept = seq_kept_;
  s.seq_edges_removed = seq_removed_;
  s.seq_edges_added = seq_added_;
  s.seq_edges_reweighted = seq_reweighted_;
  s.profile_stage_ns = prof_stage_ns_;
  s.profile_reconcile_ns = prof_reconcile_ns_;
  s.profile_context_ns = prof_context_ns_;
  s.profile_relax_ns = prof_relax_ns_;
  return s;
}

}  // namespace rdse
