#include "sched/incremental.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "graph/topo.hpp"
#include "util/assert.hpp"

namespace rdse {

namespace {

/// Maximum finish time and its multiplicity — the argmax bookkeeping the
/// relaxer seeds its incremental tracking with on a full rescan.
struct MaxMultiplicity {
  TimeNs max = 0;
  std::int64_t count = 0;
};

MaxMultiplicity max_and_multiplicity(std::span<const TimeNs> finish) {
  MaxMultiplicity m;
  for (const TimeNs f : finish) {
    if (f > m.max) {
      m.max = f;
      m.count = 1;
    } else if (f == m.max) {
      ++m.count;
    }
  }
  return m;
}

}  // namespace

// ---- DeltaRelaxer ----------------------------------------------------------

bool DeltaRelaxer::reset(const WeightedDag& dag) {
  // One sort is the cycle verdict, the ranks and the first relaxation's
  // order.
  std::optional<std::vector<NodeId>> order = topological_order(*dag.graph);
  if (!order.has_value()) return false;
  LongestPathResult r = longest_path(dag, *order);
  start_ = std::move(r.start);
  finish_ = std::move(r.finish);
  const MaxMultiplicity m = max_and_multiplicity(finish_);
  RDSE_ASSERT(m.max == r.makespan);
  makespan_ = m.max;
  count_at_max_ = m.count;

  order_ = std::move(*order);
  rank_.assign(order_.size(), 0);
  for (std::size_t i = 0; i < order_.size(); ++i) {
    rank_[order_[i]] = static_cast<std::uint32_t>(i);
  }

  journal_.clear();
  rank_journal_.clear();
  order_journal_.clear();
  probe_valid_ = false;
  return true;
}

void DeltaRelaxer::rollback_ranks() {
  for (auto it = rank_journal_.rbegin(); it != rank_journal_.rend(); ++it) {
    rank_[it->node] = it->rank;
  }
  for (auto it = order_journal_.rbegin(); it != order_journal_.rend();
       ++it) {
    order_[it->slot] = it->node;
  }
  rank_journal_.clear();
  order_journal_.clear();
}

void DeltaRelaxer::rollback_probe() {
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
    start_[it->node] = it->start;
    finish_[it->node] = it->finish;
  }
  journal_.clear();
  rollback_ranks();
  probe_valid_ = false;
}

void DeltaRelaxer::discard() { rollback_probe(); }

std::optional<TimeNs> DeltaRelaxer::probe(const WeightedDag& dag,
                                          std::span<const NodeId> seeds,
                                          std::span<const EdgeId> new_edges) {
  // An unresolved previous probe left its candidate values in place —
  // restore the committed fixed point before staging a new candidate.
  rollback_probe();

  const Digraph& g = *dag.graph;
  const std::size_t n = g.node_count();
  RDSE_REQUIRE(n == rank_.size(), "DeltaRelaxer::probe: node count changed");
  ++stats_.probes;
  stats_.total_nodes += static_cast<std::int64_t>(n);

  // 1. Topological ranks. Deletions and weight changes cannot introduce a
  // cycle or invalidate the committed ranks — only the inserted edges can.
  // If every inserted edge ascends, the committed ranks remain a valid
  // numbering of the edited graph; otherwise repair the ranks locally (a
  // two-way search and a window pass), which also decides acyclicity.
  // This happens before any value is written, so a cyclic candidate
  // leaves no journal to unwind.
  bool ranks_ok = true;
  for (EdgeId e : new_edges) {
    const Digraph::Edge& ed = g.edge_unchecked(e);
    if (rank_[ed.src] >= rank_[ed.dst]) {
      ranks_ok = false;
      break;
    }
  }
  if (!ranks_ok) {
    ++stats_.rank_refreshes;
    if (!repair_ranks(g, new_edges)) {
      ++stats_.cyclic;  // repair_ranks already rolled its edits back
      return std::nullopt;
    }
  }
  const std::vector<std::uint32_t>& rank = rank_;
  const std::vector<NodeId>& order = order_;
  stats_.seed_nodes += static_cast<std::int64_t>(seeds.size());

  // 2. Multi-seed dirty propagation in ascending rank order via the
  // schedule bitmask. Every node is processed at most once: its
  // predecessors (lower rank) are final when its bit is consumed, because
  // bits are only ever set above the scan position (edges ascend in rank)
  // or by the up-front seeding. Candidate values are written directly over
  // the committed arrays; each changed node's committed values go into the
  // journal first, so a rejected probe replays it backwards instead of a
  // v3-style O(V) buffer copy per probe.
  queued_.assign((n + 63) / 64, 0);
  for (NodeId v : seeds) {
    const std::uint32_t r = rank[v];
    queued_[r >> 6] |= std::uint64_t{1} << (r & 63);
  }

  // Incremental makespan bookkeeping: `at_max` tracks how many candidate
  // nodes still finish exactly at the committed makespan (changed nodes
  // migrate out of / into the set as they are overwritten), `changed_max`
  // the maximum (and multiplicity) over the values written this probe.
  std::uint32_t relaxed = 0;
  std::int64_t at_max = count_at_max_;
  TimeNs changed_max = 0;
  std::int64_t changed_max_count = 0;
  for (std::size_t w = 0; w < queued_.size(); ++w) {
    while (queued_[w] != 0) {
      const auto bit =
          static_cast<std::uint32_t>(std::countr_zero(queued_[w]));
      queued_[w] &= queued_[w] - 1;
      const NodeId v = order[(w << 6) | bit];
      ++relaxed;
      TimeNs s = dag.release.empty() ? 0 : dag.release[v];
      for (const HalfEdge& h : g.in_half(v)) {
        RDSE_DCHECK(h.weight == dag.edge_weight[h.edge],
                    "DeltaRelaxer::probe: half-edge weight mirror desynced");
        s = std::max(s, finish_[h.node] + h.weight);
      }
      const TimeNs f = s + dag.node_weight[v];
      if (s == start_[v] && f == finish_[v]) {
        continue;  // unchanged: downstream unaffected through this node
      }
      journal_.push_back({v, start_[v], finish_[v]});
      if (finish_[v] == makespan_) --at_max;
      start_[v] = s;
      finish_[v] = f;
      if (f == makespan_) ++at_max;
      if (f > changed_max) {
        changed_max = f;
        changed_max_count = 1;
      } else if (f == changed_max) {
        ++changed_max_count;
      }
      for (const HalfEdge& h : g.out_half(v)) {
        const std::uint32_t r = rank[h.node];
        queued_[r >> 6] |= std::uint64_t{1} << (r & 63);
      }
    }
  }
  last_relaxed_ = relaxed;
  stats_.relaxed_nodes += relaxed;
  stats_.journal_entries += static_cast<std::int64_t>(journal_.size());

  if (changed_max > makespan_) {
    // A changed node dominates every untouched one (all <= the committed
    // makespan): the probe maximum is known without any scan.
    cand_makespan_ = changed_max;
    cand_count_at_max_ = changed_max_count;
  } else if (at_max > 0) {
    // The committed maximum survives (someone still finishes there) and
    // nothing changed exceeds it.
    cand_makespan_ = makespan_;
    cand_count_at_max_ = at_max;
  } else {
    // Argmax set emptied and no changed node reached it: the new maximum
    // may hide among untouched nodes — the lazy full-rescan fallback
    // (finish_ holds the candidate values in place).
    ++stats_.makespan_rescans;
    const MaxMultiplicity m = max_and_multiplicity(finish_);
    cand_makespan_ = m.max;
    cand_count_at_max_ = m.count;
  }
  probe_valid_ = true;
  return cand_makespan_;
}

bool DeltaRelaxer::repair_ranks(const Digraph& g,
                                std::span<const EdgeId> new_edges) {
  // Adopt the inserted edges one at a time into rank_/order_ *in place*,
  // journaling every write (the committed numbering stayed valid under
  // deletions and weight changes, so it is the correct starting point). The
  // loop invariant: before edge i is adopted, the numbering is valid for the
  // whole edited graph *minus* new_edges[i..]. So both searches may follow
  // every edge except that not-yet-adopted suffix, and every y -> x path
  // they could find lies inside the rank window. On a detected cycle the
  // partial repair is rolled back here, leaving the committed numbering
  // bit-intact.
  //
  // Each violating edge advances the epoch twice; re-zero the marks when
  // the remaining headroom could not cover this whole batch (wrapping
  // mid-call would alias stale marks and corrupt the searches).
  const std::uint32_t needed =
      2 * static_cast<std::uint32_t>(new_edges.size()) + 2;
  if (visit_mark_.size() != rank_.size() ||
      visit_epoch_ >= std::numeric_limits<std::uint32_t>::max() - needed) {
    visit_mark_.assign(rank_.size(), 0);
    visit_epoch_ = 0;
  }
  // Stamp each inserted edge with its batch position so the searches decide
  // "still pending?" with one epoch-checked load instead of scanning
  // new_edges per visited half-edge. Ascending writes keep the max position
  // for a (theoretical) duplicate id, matching the scan's any-of semantics.
  if (edge_batch_mark_.size() < g.edge_capacity()) {
    // Grow in place within a 1/16 headroom, which covers the few edges a
    // run adds past its start. Beyond it, reallocate to the capacity plus a
    // new headroom: resize alone would double the arrays, megabytes of
    // resident memory on large graphs.
    if (edge_batch_mark_.capacity() < g.edge_capacity()) {
      const std::size_t room = g.edge_capacity() + g.edge_capacity() / 16;
      edge_batch_pos_.reserve(room);
      edge_batch_mark_.reserve(room);
    }
    edge_batch_pos_.resize(g.edge_capacity());
    edge_batch_mark_.resize(g.edge_capacity());
  }
  if (edge_batch_epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(edge_batch_mark_.begin(), edge_batch_mark_.end(), 0);
    edge_batch_epoch_ = 0;
  }
  ++edge_batch_epoch_;
  for (std::size_t j = 0; j < new_edges.size(); ++j) {
    edge_batch_pos_[new_edges[j]] = static_cast<std::uint32_t>(j);
    edge_batch_mark_[new_edges[j]] = edge_batch_epoch_;
  }
  const auto pending = [&](EdgeId e, std::size_t next) {
    return edge_batch_mark_[e] == edge_batch_epoch_ &&
           edge_batch_pos_[e] >= next;
  };
  // Journaled move of node v into rank slot `slot`; no-op when it is
  // already there.
  const auto move_to = [&](NodeId v, std::uint32_t slot) {
    if (rank_[v] == slot) return;
    rank_journal_.push_back({v, rank_[v]});
    order_journal_.push_back({slot, order_[slot]});
    rank_[v] = slot;
    order_[slot] = v;
    ++stats_.rank_repair_nodes;
  };
  for (std::size_t i = 0; i < new_edges.size(); ++i) {
    const Digraph::Edge& ed = g.edge_unchecked(new_edges[i]);
    const NodeId x = ed.src;
    const NodeId y = ed.dst;
    const std::uint32_t lb = rank_[y];
    const std::uint32_t ub = rank_[x];
    // Already ascends under the repaired numbering? (lb == ub would be a
    // self-loop, which Digraph rejects.)
    if (ub < lb) continue;
    ++stats_.rank_repairs;

    // Two-way search, marks by rank: forward from y (ranks <= ub) and
    // backward from x (ranks >= lb), one popped node per side per turn,
    // until one side's stack runs dry — that side's set is complete. A node
    // reached from both sides (x forward and y backward included, as the
    // roots carry their side's mark) is a y -> x path: x -> y closes a
    // cycle.
    const std::uint32_t fwd = ++visit_epoch_;
    const std::uint32_t back = ++visit_epoch_;
    visit_mark_[lb] = fwd;
    visit_mark_[ub] = back;
    fwd_stack_.assign(1, y);
    back_stack_.assign(1, x);
    bool forward_complete = false;
    for (;;) {
      NodeId v = fwd_stack_.back();
      fwd_stack_.pop_back();
      ++stats_.rank_search_nodes;
      for (const HalfEdge& h : g.out_half(v)) {
        if (pending(h.edge, i)) continue;
        const std::uint32_t r = rank_[h.node];
        if (r > ub || visit_mark_[r] == fwd) continue;
        if (visit_mark_[r] == back) {
          rollback_ranks();
          return false;
        }
        visit_mark_[r] = fwd;
        fwd_stack_.push_back(h.node);
      }
      if (fwd_stack_.empty()) {
        forward_complete = true;
        break;
      }
      v = back_stack_.back();
      back_stack_.pop_back();
      ++stats_.rank_search_nodes;
      for (const HalfEdge& h : g.in_half(v)) {
        if (pending(h.edge, i)) continue;
        const std::uint32_t r = rank_[h.node];
        if (r < lb || visit_mark_[r] == back) continue;
        if (visit_mark_[r] == fwd) {
          rollback_ranks();
          return false;
        }
        visit_mark_[r] = back;
        back_stack_.push_back(h.node);
      }
      if (back_stack_.empty()) break;
    }

    // One pass over the window re-packs it: the complete forward set (y and
    // its in-window successors) to the top, or the complete backward set
    // (x and its in-window predecessors) to the bottom. The pass starts at
    // the other end: every other node compacts toward it, the complete set
    // is parked and then fills the slots left over, and every group keeps
    // its old relative order, so every non-pending edge still ascends. The
    // write cursor never passes the read cursor, so each slot is read
    // before it is written, and only changed slots are written.
    const std::uint32_t complete = forward_complete ? fwd : back;
    const auto slot = [&](std::uint32_t i) {
      return forward_complete ? lb + i : ub - i;
    };
    std::uint32_t kept = 0;
    moved_.clear();
    for (std::uint32_t i = 0; i <= ub - lb; ++i) {
      const std::uint32_t r = slot(i);
      if (visit_mark_[r] == complete) {
        moved_.push_back(order_[r]);
      } else {
        move_to(order_[r], slot(kept++));
      }
    }
    for (const NodeId v : moved_) move_to(v, slot(kept++));
  }
  return true;
}

void DeltaRelaxer::check_ranks(const Digraph& g) const {
  RDSE_ASSERT_MSG(rank_.size() == g.node_count() &&
                      order_.size() == g.node_count(),
                  "DeltaRelaxer: rank arrays out of step with the graph");
  for (std::size_t i = 0; i < order_.size(); ++i) {
    RDSE_ASSERT_MSG(order_[i] < rank_.size() && rank_[order_[i]] == i,
                    "DeltaRelaxer: rank and order are not inverse");
  }
  for (EdgeId e = 0; e < g.edge_capacity(); ++e) {
    if (!g.edge_alive(e)) continue;
    const Digraph::Edge& ed = g.edge_unchecked(e);
    RDSE_ASSERT_MSG(rank_[ed.src] < rank_[ed.dst],
                    "DeltaRelaxer: a live edge descends in rank");
  }
}

void DeltaRelaxer::commit() {
  RDSE_REQUIRE(probe_valid_,
               "DeltaRelaxer::commit: no successful probe staged");
  // start_/finish_ (and any repaired ranks) already hold the candidate
  // values in place: adopting them is just truncating the journals.
  journal_.clear();
  rank_journal_.clear();
  order_journal_.clear();
  makespan_ = cand_makespan_;
  count_at_max_ = cand_count_at_max_;
  probe_valid_ = false;
  ++stats_.commits;
}

}  // namespace rdse
