#pragma once
/// \file incremental_eval.hpp
/// \brief Incremental candidate evaluation for the annealing hot path.
///
/// DseProblem::propose historically realized and re-relaxed the whole search
/// graph for every move. This evaluator instead keeps the committed
/// realization resident and applies each move as a *delta*:
///
///  - the maintained graph is G' made sparse: every communication edge
///    between two tasks on one processor is *parked* (id, endpoints and
///    weight kept, not attached — Digraph::park_edge). The processor's
///    zero-weight Esw chain already orders such a pair, so the edge can
///    never raise a start time, and G' is acyclic iff the sparse graph is
///    and every parked edge runs forward in its processor's order. reset()
///    builds this graph in bulk: the application edges are copied in
///    parked under their own ids (Digraph::parked_copy) with room for the
///    run's sequentialization edges, the edges that cross processors are
///    attached in id order, and one topological sort is the start's cycle
///    verdict, the relaxer's ranks and its first relaxation. Staging a
///    moved task parks, unparks or re-weights its communication edges;
///  - the committed search graph is edited in place — node weights and
///    communication-edge weights of the moved tasks are updated, and only
///    the sequentialization edges (Esw/Ehw) and release times the move can
///    change are reconciled. Processor chains are reconciled by edge
///    identity: each task keeps its Esw links (chain_out_/chain_in_), and
///    only a moved task, its old predecessor and its new one can have a
///    stale link, so a reposition removes 3 edges and adds 3 wherever the
///    slots lie. An RC's Ehw list is diffed by position (common
///    prefix/suffix of the old vs. new list kept in place), so a local
///    change to its contexts costs O(window), not O(chain);
///  - a moved task whose application predecessor sits after it (or
///    successor before it) on its own resource closes a cycle: through the
///    Esw chain on a processor (only a moved task can turn a parked edge
///    backwards), through the Ehw edges on an RC, where every member of a
///    context reaches every member of a later one. An O(degree) check
///    rejects such candidates before any surgery;
///  - per-RC context boundaries are recomputed only for touched RCs
///    (SearchGraphCache), reusing the committed boundary of any context
///    whose members did not change; context CLB sums are read from the
///    candidate Solution, which keeps them exact;
///  - only the affected region of G' is re-relaxed (DeltaRelaxer), seeded
///    with exactly the nodes whose local inputs changed;
///  - a rejected candidate is rolled back from an undo log instead of
///    rebuilding; an accepted one commits by swapping buffers.
///
/// All scratch storage is pooled, so steady-state proposals allocate
/// nothing. Results are bit-identical to Evaluator::evaluate, which keeps
/// the full G' (property-tested on random graphs x random move sequences).

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "mapping/search_graph.hpp"
#include "sched/evaluator.hpp"
#include "sched/incremental.hpp"

namespace rdse {

/// Counters for benchmarks and tests.
struct IncrementalEvalStats {
  DeltaRelaxStats relax;
  std::int64_t builds = 0;  ///< candidates evaluated (incl. early rejects)
  std::int64_t cache_misses = 0;     ///< RC realizations computed
  std::int64_t bounds_reused = 0;    ///< boundaries copied (membership same)
  std::int64_t bounds_computed = 0;  ///< boundaries recomputed from scratch
  /// Chain reconciliations: one per RC (or removed resource) Ehw diff and
  /// one per processor link pass.
  std::int64_t reconciles = 0;
  /// Chain edges left in place (seeding no relaxation) vs. torn down /
  /// inserted. On a processor these count the dirty tasks' Esw links: a
  /// link checked and still right is kept, a stale one removed, a missing
  /// one added. On an RC they count the Ehw edges of the position diff:
  /// matched in the common prefix/suffix vs. inside the differing window.
  /// kept / (kept + removed) is the diff hit rate.
  std::int64_t seq_edges_kept = 0;
  std::int64_t seq_edges_removed = 0;
  std::int64_t seq_edges_added = 0;
  /// Chain edges whose endpoints survived but whose weight changed —
  /// re-weighted in place (counted inside seq_edges_kept) instead of a
  /// remove + insert pair, so they never enter new_edges or rank repair.
  std::int64_t seq_edges_reweighted = 0;
  /// Candidates rejected by the parked-edge order check (a moved task now
  /// runs before a predecessor, or after a successor, on its processor) —
  /// infeasible before any surgery, so they never reach the relaxer.
  std::int64_t order_rejects = 0;
  /// Candidates rejected by the context-order check (a moved task on an RC
  /// has a predecessor in a later context, or a successor in an earlier
  /// one, of that RC) — cyclic through the Ehw edges, decided before any
  /// surgery.
  std::int64_t context_rejects = 0;
  /// Communication edges parked in the maintained graph right now (staged
  /// candidate included): the application edges the processor chains
  /// imply, absent from every relaxation and rank repair.
  std::int64_t comm_edges_parked = 0;
  /// Opt-in micro-profile (set_profile(true)): cumulative wall time per
  /// evaluation phase, in nanoseconds. All zero while profiling is off —
  /// the headline timings never pay for the clock reads.
  std::int64_t profile_stage_ns = 0;      ///< phase 1: moved-task staging
  std::int64_t profile_reconcile_ns = 0;  ///< phase 2: chain diffs + realize
  std::int64_t profile_context_ns = 0;    ///< phase 3: RC context accounting
  std::int64_t profile_relax_ns = 0;      ///< phase 4: delta relaxation
};

/// Stateful evaluator bound to one task graph; the architecture and solution
/// are supplied per call because architecture moves (m3/m4) mutate them.
class IncrementalEvaluator {
 public:
  explicit IncrementalEvaluator(const TaskGraph& tg) : tg_(&tg) {}

  /// Re-synchronize with a new committed state (initial solution, or an
  /// external replacement such as replica exchange) in one pass, and return
  /// its metrics, equal to Evaluator::evaluate's. The sparse graph starts
  /// as a parked copy of the application graph (every edge keeps its
  /// TaskGraph id), with edge room for two sequentialization edges per
  /// task beyond it, so a run does not regrow the edge table; an edge whose
  /// endpoints share a processor stays parked after an order check, and
  /// every other one is attached. This realization is also the state's
  /// cycle verdict: on a cyclic state (a parked edge running backwards, or
  /// a cyclic sparse graph) it returns std::nullopt and leaves the
  /// evaluator exactly as it was. The state must pass validate_structure
  /// (mapping/validation.hpp).
  [[nodiscard]] std::optional<Metrics> reset(const Architecture& arch,
                                             const Solution& sol);

  /// Evaluate a candidate derived from the committed state by one move.
  /// `touched_resources` / `touched_tasks` are the move's mutation journal
  /// (Solution::touched_resources() / touched_tasks()). Returns std::nullopt
  /// when the realized search graph is cyclic (the move is infeasible,
  /// §4.3) — the committed state is already restored in that case.
  [[nodiscard]] std::optional<Metrics> evaluate_candidate(
      const Architecture& cand_arch, const Solution& cand_sol,
      std::span<const ResourceId> touched_resources,
      std::span<const TaskId> touched_tasks);

  /// Adopt the last successful candidate as the committed state.
  void commit();

  /// Roll the last successful candidate back (undo log).
  void discard();

  [[nodiscard]] IncrementalEvalStats stats() const;

  /// Toggle the per-phase micro-profile. Off by default: the phase timers
  /// cost two clock reads per phase per evaluation, which is real money on
  /// the hot path, so benches enable it only for a dedicated profiled pass.
  void set_profile(bool on) { profile_ = on; }

  /// The maintained realization: the committed graph, or the staged
  /// candidate between a successful evaluate_candidate() and its
  /// commit()/discard(). Communication edges between tasks on one
  /// processor are parked in it (not live). Exposed for tests and
  /// debugging.
  [[nodiscard]] const SearchGraph& search_graph() const { return sg_; }

 private:
  /// One Ehw edge of an RC's desired list.
  struct DesiredEdge {
    NodeId src;
    NodeId dst;
    TimeNs weight;
  };

  /// Metrics of the maintained graph under the given makespan.
  [[nodiscard]] Metrics metrics(TimeNs makespan) const;
  /// True when a moved task `t` has an application predecessor ranked
  /// after it, or a successor ranked before it, on its own resource — the
  /// rank being the order position on a processor (a parked edge running
  /// backwards against the Esw chain) and the context on an RC (every
  /// member of a context reaches every member of a later one through the
  /// Ehw edges). Either way the edge closes a cycle.
  [[nodiscard]] bool rank_conflict(const Solution& cand_sol, TaskId t,
                                   bool on_processor) const;
  void stage_node_weight(NodeId v, TimeNs w);
  void stage_comm_weight(EdgeId e, TimeNs w);
  /// Park a live communication edge whose endpoints now share a processor
  /// (its weight drops to 0 first, leaving comm_cross) — undo-logged.
  void stage_park(EdgeId e);
  /// Unpark a parked communication edge whose endpoints no longer share a
  /// processor; it joins new_edges_ for the relaxer's rank check.
  void stage_unpark(EdgeId e);
  /// Re-weight a surviving Ehw edge in place (undo-logged; does not touch
  /// comm_cross).
  void stage_seq_weight(EdgeId e, TimeNs w);
  void stage_release(NodeId v, TimeNs r);
  /// Record a release in release_pending_ (last write per task wins); the
  /// coalesced values are staged in one pass so a clear-then-reset to the
  /// committed value stages nothing and seeds no relaxation.
  void stage_release_pending(NodeId v, TimeNs r);
  /// Bring the Esw links of the move's dirty tasks in line with the
  /// candidate's processor orders: every stale link is removed before any
  /// new one is added, so no task ever holds two Esw edges in one
  /// direction. Removed (src, dst) pairs and added ids are undo-logged.
  void reconcile_links(const Solution& cand_sol,
                       std::span<const TaskId> touched_tasks);
  /// Insert the Esw edge `src -> dst` and record it as both tasks' link.
  EdgeId link(TaskId src, TaskId dst);
  /// Remove Esw edge `e` and clear both of its endpoints' links.
  void unlink(EdgeId e);
  /// Replace RC (or removed resource) `r`'s Ehw list with `desired_` by a
  /// position diff: the common prefix and suffix stay in place (an edge
  /// whose weight alone changed is re-weighted there) and seed no
  /// relaxation; only the edges of the differing window are torn down and
  /// re-inserted. Cost is proportional to the window, not the list.
  void reconcile_seq_edges(ResourceId r);
  /// The (possibly empty) Ehw edge-id list of RC `r`, grown on demand —
  /// resource ids are dense and never reused, so a flat vector replaces a
  /// map on the hot path.
  [[nodiscard]] std::vector<EdgeId>& seq_list(ResourceId r);
  void rollback();

  const TaskGraph* tg_ = nullptr;
  SearchGraph sg_;  ///< committed realization, surgically edited per move
  SearchGraphCache cache_;
  DeltaRelaxer relaxer_;
  /// Bus transfer time per application edge, memoized at reset: the data
  /// amount and the bus rate are move-invariant (no move operator edits the
  /// bus), so the hot path never repeats the wide division in
  /// Bus::transfer_time. comm_edge_weight(e) == placements crossing ?
  /// bus_time_[e] : 0 by construction.
  std::vector<TimeNs> bus_time_;
  /// Esw links per task: the id of the edge from `t` to its successor in
  /// its processor's order (chain_out_[t]) and from its predecessor
  /// (chain_in_[t]); kInvalidEdge at a chain end and off a processor.
  std::vector<EdgeId> chain_out_;
  std::vector<EdgeId> chain_in_;
  /// Ehw edge ids per RC, indexed by ResourceId, each list in chain order
  /// (context by context), which is what makes the position diff local.
  std::vector<std::vector<EdgeId>> seq_edges_;

  // ---- per-candidate scratch and undo log --------------------------------
  std::vector<NodeId> seeds_;
  std::vector<EdgeId> new_edges_;
  /// Tasks whose Esw link the move may have changed, each with the
  /// candidate's successor (kInvalidNode: none).
  struct DirtyLink {
    TaskId task;
    TaskId next;
  };
  std::vector<DirtyLink> dirty_;
  std::vector<std::pair<TaskId, TaskId>> removed_links_;  ///< (src, dst)
  std::vector<EdgeId> added_links_;
  struct RemovedSeqEdge {
    NodeId src;
    NodeId dst;
    TimeNs weight;
  };
  std::vector<RemovedSeqEdge> removed_seq_;
  std::vector<EdgeId> added_ids_;  ///< Ehw edges inserted by diffs, in order
  /// One record per Ehw diff that changed anything: the splice window and
  /// the ranges into removed_seq_ / added_ids_ it produced, so rollback can
  /// restore the exact list (prefix + re-added window + suffix).
  struct ReconcileUndo {
    ResourceId res;
    std::uint32_t prefix;
    std::uint32_t suffix;
    std::uint32_t removed_begin;
    std::uint32_t removed_end;
    std::uint32_t added_begin;
    std::uint32_t added_end;
  };
  std::vector<ReconcileUndo> reconcile_undo_;
  std::vector<DesiredEdge> desired_;  ///< reconciliation scratch
  std::vector<EdgeId> splice_;        ///< chain-splice scratch
  /// Edge-level undo record, replayed in reverse: a re-weight restores
  /// `weight`; a park is undone by unparking and vice versa. Parking logs
  /// its drop to weight 0 first and unparking its re-weight after, so the
  /// reverse replay only ever re-weights a live edge.
  enum class EdgeOp : std::uint8_t { kWeight, kPark, kUnpark };
  struct EdgeUndo {
    EdgeId edge;
    TimeNs weight;
    EdgeOp op;
  };
  std::vector<EdgeUndo> comm_undo_;
  struct NodeUndo {
    NodeId node;
    TimeNs value;
  };
  std::vector<NodeUndo> node_weight_undo_;
  std::vector<NodeUndo> release_undo_;
  std::vector<NodeUndo> release_pending_;  ///< coalesced release writes
  std::vector<ResourceId> touched_snapshot_;
  /// Resources removed by the staged move (m3): their cache and edge-list
  /// entries are dropped on commit so footprint stays bounded over long
  /// create/remove churn (resource ids are never reused).
  std::vector<ResourceId> dead_resources_;
  struct ScalarSnapshot {
    TimeNs init_reconfig;
    TimeNs dyn_reconfig;
    TimeNs comm_cross;
    int n_contexts;
    std::int32_t clbs_loaded;
    std::int32_t max_context_clbs;
    TimeNs sw_busy;
    TimeNs hw_busy;
    int sw_tasks;
    int hw_tasks;
    std::int64_t comm_parked;
  };
  ScalarSnapshot snap_{};

  // Task-partition sums, maintained as deltas over the moved tasks instead
  // of an O(tasks) walk per evaluation.
  std::vector<std::uint8_t> task_on_proc_;
  std::vector<std::pair<TaskId, std::uint8_t>> side_undo_;
  TimeNs sw_busy_ = 0;
  TimeNs hw_busy_ = 0;
  int sw_tasks_ = 0;
  int hw_tasks_ = 0;

  std::int64_t comm_parked_ = 0;

  std::int64_t builds_ = 0;
  std::int64_t order_rejects_ = 0;
  std::int64_t context_rejects_ = 0;
  std::int64_t reconciles_ = 0;
  bool profile_ = false;
  std::int64_t prof_stage_ns_ = 0;
  std::int64_t prof_reconcile_ns_ = 0;
  std::int64_t prof_context_ns_ = 0;
  std::int64_t prof_relax_ns_ = 0;
  std::int64_t seq_kept_ = 0;
  std::int64_t seq_removed_ = 0;
  std::int64_t seq_added_ = 0;
  std::int64_t seq_reweighted_ = 0;
  bool pending_ = false;
};

}  // namespace rdse
