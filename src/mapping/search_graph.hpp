#pragma once
/// \file search_graph.hpp
/// \brief Realization of a solution as the search graph
/// G' = <V, E ∪ Esw ∪ Ehw> of §3.3/§4.3.
///
/// Starting from the application graph, the builder adds
///  - Esw: zero-weight sequentialization edges between consecutive tasks of
///    each processor's total order (black dashed arrows in Fig. 1(b));
///  - Ehw: context sequentialization edges from every terminal node of
///    context Ck to every initial node of context Ck+1, weighted by the
///    partial reconfiguration time tR * nCLB(Ck+1) (white dashed arrows;
///    nCLB is Solution::context_clbs, the one copy of each context's sum);
///  - a release time tR * nCLB(C1) on the initial nodes of the first
///    context of each RC (the device must be configured before anything
///    runs on it; this is Fig. 3's "initial reconfiguration time").
///
/// Node weights are the execution times on the assigned resources; original
/// edges are weighted with the bus transfer time when they cross resources
/// (or cross contexts within the RC — data is staged through the shared
/// memory), zero otherwise.
///
/// The paper rejects moves whose realization creates a cycle; here a cyclic
/// solution simply fails evaluation (topological sort fails), which the
/// move layer treats as infeasible.
///
/// The builder always emits the full G'. The incremental evaluator builds
/// a sparse copy (sched/incremental_eval.hpp): it copies the application
/// edges in parked (Digraph::parked_copy) and attaches only those whose
/// endpoints do not share a processor. The processor's Esw chain already
/// orders such a pair, so the sparse copy has the same longest path and
/// the same feasibility as long as every parked edge runs forward in the
/// order. Both realizations share begin_search_graph and
/// add_sequentialization_edges; only the application-edge pass differs.

#include <cstdint>
#include <vector>

#include "arch/architecture.hpp"
#include "graph/digraph.hpp"
#include "mapping/solution.hpp"
#include "model/task_graph.hpp"

namespace rdse {

enum class SearchEdgeKind : std::uint8_t {
  kComm,   ///< original application edge
  kSwSeq,  ///< processor total-order edge (Esw)
  kHwSeq,  ///< context sequentialization edge (Ehw)
};

/// G' plus the per-node/per-edge weights needed for longest-path evaluation
/// and the aggregate reconfiguration/communication statistics. Edge weights
/// are first-class Digraph state (dense array + packed half-edge mirrors,
/// see graph/digraph.hpp) — read them via `graph.edge_weight(e)` /
/// `graph.edge_weights()`, write via `graph.set_edge_weight(e, w)`.
struct SearchGraph {
  Digraph graph;
  std::vector<TimeNs> node_weight;       ///< execution time per task
  std::vector<SearchEdgeKind> edge_kind; ///< indexed by EdgeId
  std::vector<TimeNs> release;           ///< earliest start per task

  TimeNs init_reconfig = 0;  ///< sum of first-context loads over all RCs
  TimeNs dyn_reconfig = 0;   ///< sum of inter-context reconfigurations
  TimeNs comm_cross = 0;     ///< summed bus time of crossing transfers

  // Context accounting gathered during realization (read from the
  // Solution's per-context CLB sums, so downstream metric fills need not
  // re-walk the solution).
  int n_contexts = 0;                ///< total contexts over all RCs
  std::int32_t clbs_loaded = 0;      ///< CLBs summed over all contexts
  std::int32_t max_context_clbs = 0;

  /// Insert an edge together with its weight/kind, growing the per-edge
  /// kind array as needed (shared by the builder, the incremental
  /// evaluator's surgery and its rollback). The weight travels with the
  /// edge into the graph's packed adjacency.
  EdgeId add_weighted_edge(NodeId src, NodeId dst, TimeNs weight,
                           SearchEdgeKind kind) {
    const EdgeId id = graph.add_edge(src, dst, weight);
    if (id >= edge_kind.size()) {
      edge_kind.resize(id + 1, SearchEdgeKind::kComm);
    }
    edge_kind[id] = kind;
    return id;
  }
};

/// Initial/terminal members of one context w.r.t. the application edges
/// restricted to the context (§3.3).
struct ContextBoundary {
  std::vector<TaskId> initials;   ///< no immediate predecessor inside
  std::vector<TaskId> terminals;  ///< no immediate successor inside
};

/// Compute the boundary of context `ctx` of `rc` under `sol`.
[[nodiscard]] ContextBoundary context_boundary(const TaskGraph& tg,
                                               const Solution& sol,
                                               ResourceId rc,
                                               std::size_t ctx);

/// Same, writing into `out` (inner storage is reused across calls).
void context_boundary_into(const TaskGraph& tg, const Solution& sol,
                           ResourceId rc, std::size_t ctx,
                           ContextBoundary& out);

/// Everything the builder derives per reconfigurable circuit from the
/// member sets: the boundary of each context. (A context's CLB occupancy is
/// read from the Solution, which keeps it exact.) Kept across moves by
/// SearchGraphCache; the member lists are kept so a recomputation can reuse
/// the boundary of any context whose membership is unchanged (boundaries
/// depend only on the member set and the application graph, not on the
/// context index).
struct RcRealization {
  std::vector<std::vector<TaskId>> members;  ///< one per context
  std::vector<ContextBoundary> bounds;       ///< one per context
};

/// Double-buffered per-RC realizations for the incremental hot path.
/// `begin_build()` opens a candidate build: every RC realized in it is
/// recomputed into a staging slot, copying the committed boundary of each
/// context whose members did not change. `commit()` adopts the staged
/// entries after the candidate is accepted; `discard()` is O(1). Staged
/// storage is recycled between builds, so steady-state builds allocate
/// nothing.
class SearchGraphCache {
 public:
  void begin_build();
  /// Realization of `rc` valid for `sol`, computed on the first request of
  /// the build.
  const RcRealization& realize(const TaskGraph& tg, const Solution& sol,
                               ResourceId rc);
  /// Committed realization of `rc` (state of the last commit), or nullptr.
  /// May be stale for an RC whose context count dropped to zero — callers
  /// use it only to tear down state the RC no longer contributes.
  [[nodiscard]] const RcRealization* committed_entry(ResourceId rc) const;
  void commit();
  void discard();
  /// Drop all entries for `rc` (a removed resource; ids are never reused).
  void erase(ResourceId rc);
  /// Replace every entry with `fresh`'s committed ones (the realization of
  /// a new committed state, built in its own cache so that a rejected
  /// state never touched this one) and add its counters to this cache's.
  void adopt(SearchGraphCache&& fresh);

  /// RC realizations computed.
  [[nodiscard]] std::int64_t misses() const { return misses_; }
  /// Boundaries copied from a content-matched committed context vs computed
  /// from scratch during recomputations.
  [[nodiscard]] std::int64_t bounds_reused() const { return bounds_reused_; }
  [[nodiscard]] std::int64_t bounds_computed() const {
    return bounds_computed_;
  }

 private:
  /// Grow the flat slots to cover `rc` (ids are dense and never reused, so
  /// a vector indexed by ResourceId replaces a tree map on the hot path).
  void ensure_slot(ResourceId rc);

  std::vector<RcRealization> committed_;
  std::vector<std::uint8_t> committed_present_;  ///< flat-slot occupancy
  std::vector<RcRealization> staged_;
  std::vector<ResourceId> staged_live_;  ///< staged keys filled this build
  std::int64_t misses_ = 0;
  std::int64_t bounds_reused_ = 0;
  std::int64_t bounds_computed_ = 0;
};

/// Execution time of task `t` on its assigned resource — the single
/// definition shared by the builder and the incremental evaluator (their
/// bit-identity depends on it). Requires the task to be assigned.
[[nodiscard]] TimeNs assigned_exec_time(const TaskGraph& tg,
                                        const Architecture& arch,
                                        const Solution& sol, TaskId t);

/// True when two tasks share a placement (same resource and context) — the
/// single definition of "no bus transfer needed", shared by the builder's
/// comm_edge_weight and the incremental evaluator's memoized-bus fast path.
[[nodiscard]] inline bool co_located(const Solution& sol, TaskId a,
                                     TaskId b) {
  const Placement& pa = sol.placement(a);
  const Placement& pb = sol.placement(b);
  return pa.resource == pb.resource && pa.context == pb.context;
}

/// Weight of application edge `e` under `sol`: the bus transfer time iff
/// the endpoints are not co-located (same resource and context).
[[nodiscard]] TimeNs comm_edge_weight(const TaskGraph& tg, const Bus& bus,
                                      const Solution& sol, EdgeId e);

/// Build the weighted search graph for a structurally complete solution
/// (every task assigned; impl indices valid). Does not check acyclicity.
[[nodiscard]] SearchGraph build_search_graph(const TaskGraph& tg,
                                             const Architecture& arch,
                                             const Solution& sol);

/// Same, building into `sg` with storage reuse (after warm-up no
/// allocation is needed).
void build_search_graph_into(SearchGraph& sg, const TaskGraph& tg,
                             const Architecture& arch, const Solution& sol);

/// The two halves of every realization, around its application edges.
/// build_search_graph_into and the incremental evaluator's sparse reset
/// both call them and differ only in how they add the application edges
/// (ids 0..comm_count()-1), so the two realizations cannot drift apart.
///
/// begin_search_graph: node weights, zero releases and statistics, and
/// edge kinds for the application edges. Leaves `sg.graph` to the caller.
void begin_search_graph(SearchGraph& sg, const TaskGraph& tg,
                        const Architecture& arch, const Solution& sol);

/// add_sequentialization_edges: the Esw chains, the Ehw edges, the
/// first-context releases and the context accounting, appended after the
/// application edges in chain order. With a non-null `cache` (inside a
/// begin_build() window) the per-RC realizations are staged in it.
void add_sequentialization_edges(SearchGraph& sg, const TaskGraph& tg,
                                 const Architecture& arch,
                                 const Solution& sol,
                                 SearchGraphCache* cache = nullptr);

/// Recompute the context accounting of `sg` from every live RC of `sol`:
/// the one definition the builder and the incremental evaluator share.
void account_contexts(SearchGraph& sg, const Architecture& arch,
                      const Solution& sol);

}  // namespace rdse
