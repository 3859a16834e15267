#pragma once
/// \file incremental.hpp
/// \brief Incremental longest-path maintenance.
///
/// §4.4: "Exploiting the property that simulated annealing is a local search
/// method, the longest path may in some cases be obtained incrementally by
/// means of a Woodbury-type update formula." We implement the same idea with
/// a dirty-set propagation: after a local edit (edges added/removed around a
/// few nodes), only the affected downstream region is re-relaxed; when
/// values stop changing, propagation stops. Results are bit-identical to a
/// full recomputation (property-tested) and the saving is benchmarked in
/// EXP-M1.
///
/// The §4.3 cycle test ("would this move close a cycle?") needs no
/// transitive closure: deletions cannot create a cycle, and the inserted
/// edges are checked against the committed topological ranks. When an
/// edge descends, a two-way search inside its rank window certifies the
/// verdict and one pass over the window repairs the ranks (see
/// DeltaRelaxer).
///
/// The engine reads edge weights from the graph's packed half-edge
/// adjacency (one flat (neighbor, weight) array per node — see
/// graph/digraph.hpp), so the relax inner loop is a single sequential
/// stream instead of an id-list walk through the edge table and a separate
/// weight array.

#include <optional>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/longest_path.hpp"
#include "util/time.hpp"

namespace rdse {

/// Lifetime counters of a DeltaRelaxer. `relaxed_nodes / probes` against
/// `total_nodes / probes` is the EXP-M1 saving: a full evaluation relaxes
/// every node, the delta path only the affected region.
struct DeltaRelaxStats {
  std::int64_t probes = 0;          ///< candidate evaluations
  std::int64_t commits = 0;         ///< probes adopted as the new base
  std::int64_t cyclic = 0;          ///< probes rejected: candidate was cyclic
  std::int64_t seed_nodes = 0;      ///< nodes whose local inputs changed
  std::int64_t relaxed_nodes = 0;   ///< nodes actually re-relaxed
  std::int64_t total_nodes = 0;     ///< summed node count (full-relax cost)
  std::int64_t rank_refreshes = 0;  ///< probes whose committed ranks needed
                                    ///< repair (an inserted edge descended)
  /// Inserted edges that descended when adopted (each one searched).
  std::int64_t rank_repairs = 0;
  /// Nodes whose rank a repair changed: the window pass re-packs every
  /// node between the inserted edge's endpoints.
  std::int64_t rank_repair_nodes = 0;
  /// Nodes the two-way search popped, both sides: per repaired edge at most
  /// one more than twice the smaller side's set.
  std::int64_t rank_search_nodes = 0;
  /// Probes whose makespan required a full O(V) finish-time rescan (the
  /// committed argmax set emptied and no relaxed node reached it); every
  /// other probe derived the makespan from the relaxed-node delta alone.
  std::int64_t makespan_rescans = 0;
  /// Undo-journal records written: one per node whose start/finish a probe
  /// actually changed. journal_entries / probes is the per-probe rollback
  /// cost, which replaced the two O(V) candidate-buffer copies of v3.
  std::int64_t journal_entries = 0;
};

/// Warm-start longest-path engine for the annealing hot path (§4.4, EXP-M1).
///
/// The annealer stages one candidate search graph per move, derived from the
/// committed one by a *local* edit (the caller mutates the graph in place
/// and rolls it back on rejection). The relaxer keeps only the committed
/// longest-path fixed point (start/finish values and topological ranks), no
/// graph: probe() is handed the edited graph, the set of *seed* nodes whose
/// local inputs changed, and the edges the edit inserted. It inherits the
/// committed values everywhere else and re-relaxes in topological-rank
/// order only while values keep changing — the dirty-set propagation of
/// §4.4, generalized to multi-seed deltas. Results are bit-identical to a
/// full recomputation (property-tested).
///
/// Candidate values are written *in place* over the committed start/finish
/// arrays, guarded by a compact undo journal of (node, old start, old
/// finish) records — one per changed node. v3 copied both O(V) arrays into
/// candidate buffers on every probe; now a probe touches only O(relaxed)
/// memory: commit() truncates the journal (O(1)), and a rejected probe
/// replays it backwards to restore the committed fixed point bit-exactly.
/// Between probe() and commit()/discard(), start_of()/finish_of() therefore
/// read the *staged candidate*; makespan() always reads the committed value.
///
/// Acyclicity is decided for free in the common case: deletions and weight
/// changes cannot create a cycle, so only the inserted edges are checked
/// against the committed ranks. If every inserted edge ascends, the ranks
/// remain a valid topological numbering and the candidate is acyclic.
/// Otherwise the ranks are *repaired locally*: inserted edges are adopted
/// one at a time, and a descending edge (x -> y) with rank window
/// [lb, ub] = [rank(y), rank(x)] gets
///  - a two-way search (Haeupler et al., ACM TALG 2012): forward from y
///    (ranks <= ub) and backward from x (ranks >= lb) in lockstep, one
///    popped node per side per turn, until the first side runs dry. A node
///    reached from both sides is the cycle certificate. The ranks are valid
///    for the graph minus the pending edges, so every y -> x path lies
///    inside the window, and one complete side without the other endpoint
///    certifies acyclicity;
///  - one pass over the window (Marchetti-Spaccamela, Nanni and Rohnert,
///    IPL 1996): a complete backward set moves to the window's bottom, a
///    complete forward set to its top, every group in its old relative
///    order.
/// The search costs about twice the smaller side, not the window; the pass
/// is one sequential sweep of the window's rank slots. A cyclic probe is
/// rejected before any value is written, so it leaves no journal to
/// unwind.
///
/// The makespan is maintained incrementally as well: the relaxer carries
/// the multiplicity of the committed maximum (how many nodes finish exactly
/// at it) and derives each probe's makespan from the relaxed-node delta —
/// a changed node exceeding the old maximum dominates outright, and as long
/// as the argmax set stays populated the old maximum stands. Only when the
/// set empties while nothing relaxed reaches it can the new maximum hide
/// among untouched nodes, and only then does probe() fall back to a full
/// finish-time rescan (counted in DeltaRelaxStats::makespan_rescans).
///
/// All scratch storage is reused — steady-state probes allocate nothing
/// (asserted via the journal/scratch capacity watermarks in tests).
class DeltaRelaxer {
 public:
  /// Bind to the initial committed snapshot: one topological sort of the
  /// graph gives the cycle verdict, the ranks and the order of the full
  /// relaxation. Returns false, leaving the relaxer as it was, when the
  /// graph is cyclic. The relaxer keeps no reference to `dag`.
  [[nodiscard]] bool reset(const WeightedDag& dag);

  /// Evaluate the edited graph against the committed fixed point.
  ///  - `seeds`: every node whose local relaxation inputs changed (release,
  ///    node weight, incoming edge set or incoming edge weights). Duplicates
  ///    are fine. Under-seeding yields silently wrong values — callers are
  ///    property-tested against full evaluation.
  ///  - `new_edges`: edges present in `dag` but not in the committed graph
  ///    (the only possible rank violations / cycle sources).
  /// Returns the candidate makespan, or std::nullopt if the edited graph is
  /// cyclic. An unresolved previous probe is rolled back first, so the
  /// committed fixed point is the baseline either way.
  [[nodiscard]] std::optional<TimeNs> probe(const WeightedDag& dag,
                                            std::span<const NodeId> seeds,
                                            std::span<const EdgeId> new_edges);

  /// Adopt the last successful probe as the committed state (truncates the
  /// journal, O(1)).
  void commit();

  /// Roll the last probe back: replay the journal in reverse, restoring the
  /// committed start/finish values bit-exactly. No-op when nothing is
  /// staged.
  void discard();

  [[nodiscard]] TimeNs makespan() const { return makespan_; }
  /// Committed value — or the staged candidate's, between a successful
  /// probe() and its commit()/discard() (in-place layout).
  [[nodiscard]] TimeNs start_of(NodeId node) const {
    RDSE_DCHECK(node < start_.size(), "DeltaRelaxer::start_of: bad node");
    return start_[node];
  }
  [[nodiscard]] TimeNs finish_of(NodeId node) const {
    RDSE_DCHECK(node < finish_.size(), "DeltaRelaxer::finish_of: bad node");
    return finish_[node];
  }
  [[nodiscard]] const DeltaRelaxStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t last_relaxed() const { return last_relaxed_; }
  /// Undo-journal records staged by the last probe (cleared by
  /// commit()/discard()).
  [[nodiscard]] std::size_t journal_size() const { return journal_.size(); }
  /// Scratch-capacity watermarks — steady-state probes must not move them
  /// (the "allocates nothing" property the tests pin down).
  [[nodiscard]] std::size_t journal_capacity() const {
    return journal_.capacity();
  }
  [[nodiscard]] std::size_t queued_capacity() const {
    return queued_.capacity();
  }
  /// Summed capacity of the rank-repair scratch: search stacks, window
  /// buffer, rank journals, and the rank and edge stamps.
  [[nodiscard]] std::size_t repair_capacity() const {
    return fwd_stack_.capacity() + back_stack_.capacity() +
           moved_.capacity() + rank_journal_.capacity() +
           order_journal_.capacity() + visit_mark_.capacity() +
           edge_batch_pos_.capacity() + edge_batch_mark_.capacity();
  }
  /// Committed rank — or the staged candidate's, between a successful
  /// probe() and its commit()/discard().
  [[nodiscard]] std::uint32_t rank_of(NodeId node) const {
    RDSE_DCHECK(node < rank_.size(), "DeltaRelaxer::rank_of: bad node");
    return rank_[node];
  }
  /// Rank audit (aborts on violation; tests): the rank and order arrays
  /// are inverse permutations, and every live edge of `g` ascends.
  void check_ranks(const Digraph& g) const;

 private:
  /// One changed node's committed values, recorded before the in-place
  /// overwrite. Rollback replays these in reverse.
  struct JournalEntry {
    NodeId node;
    TimeNs start;
    TimeNs finish;
  };

  // Committed longest-path fixed point — start/finish are overwritten in
  // place by probes under journal protection. `order_` is the inverse rank
  // permutation (rank index -> node). `count_at_max_` is the number of
  // nodes whose finish equals makespan_ — the argmax multiplicity that
  // lets probe() update the maximum from the relaxed delta alone.
  std::vector<TimeNs> start_;
  std::vector<TimeNs> finish_;
  std::vector<std::uint32_t> rank_;
  std::vector<NodeId> order_;
  TimeNs makespan_ = 0;
  std::int64_t count_at_max_ = 0;

  // Last probe (valid until the next probe, commit or discard).
  std::vector<JournalEntry> journal_;
  /// Rank-repair journals: old rank per moved node / old occupant per
  /// reassigned order slot. Rank repair edits rank_/order_ in place (no
  /// O(V) candidate copies); rollback replays these in reverse.
  struct RankUndo {
    NodeId node;
    std::uint32_t rank;
  };
  struct OrderUndo {
    std::uint32_t slot;
    NodeId node;
  };
  std::vector<RankUndo> rank_journal_;
  std::vector<OrderUndo> order_journal_;
  TimeNs cand_makespan_ = 0;
  std::int64_t cand_count_at_max_ = 0;
  bool probe_valid_ = false;
  std::uint32_t last_relaxed_ = 0;

  /// Local repair of rank_/order_ in place (under the rank journals) after
  /// `new_edges` were inserted into `g`: a two-way search and one window
  /// pass per descending edge. Returns false when the insertions close a
  /// cycle — the partial repair is already rolled back in that case. Only
  /// nodes inside each violating edge's rank window are moved.
  [[nodiscard]] bool repair_ranks(const Digraph& g,
                                  std::span<const EdgeId> new_edges);
  void rollback_ranks();
  /// Replay all journals in reverse (committed values and ranks restored
  /// bit-exactly).
  void rollback_probe();

  /// Rank-indexed schedule bitmask: relaxation processes ranks in ascending
  /// order and every queued rank is strictly above the scan position (edges
  /// ascend), so one pass over the words replaces a priority queue.
  std::vector<std::uint64_t> queued_;

  // repair_ranks scratch, reused across probes (steady state: no
  // allocation). visit_mark_ is indexed by rank, so the window pass reads
  // it sequentially, and epoch-stamped, so searches never clear it: each
  // repaired edge takes one epoch per search side.
  std::vector<std::uint32_t> visit_mark_;
  std::uint32_t visit_epoch_ = 0;
  std::vector<NodeId> fwd_stack_;
  std::vector<NodeId> back_stack_;
  /// The complete side's nodes in window order, parked by the window pass
  /// while it compacts the others.
  std::vector<NodeId> moved_;
  /// O(1) "is this edge a not-yet-adopted insertion?" test: per-edge batch
  /// position, epoch-stamped. The arrays grow with the graph's edge
  /// capacity and are zeroed only when the epoch wraps: a stale stamp
  /// belongs to an earlier epoch, so it never matches.
  std::vector<std::uint32_t> edge_batch_pos_;
  std::vector<std::uint32_t> edge_batch_mark_;
  std::uint32_t edge_batch_epoch_ = 0;

  DeltaRelaxStats stats_;
};

}  // namespace rdse
