#pragma once
/// \file digraph.hpp
/// \brief Dynamic directed graph used for both the application precedence
/// graph (§3.1) and the search graph G' with its churning sequentialization
/// edges (§4.3).
///
/// Edges carry stable ids: removing an edge leaves a tombstone whose id is
/// recycled by later insertions, so edge handles held by move/undo machinery
/// stay valid until their own edge is removed. Node count is fixed after
/// construction growth (nodes are never deleted; the search graph always
/// covers all application tasks).
///
/// Adjacency is stored as packed half-edge arrays: each node owns one
/// contiguous array of (neighbor node, edge id, weight) records per
/// direction, so the relaxation inner loops walk a single flat array
/// instead of chasing an edge-id list into the edge table and a separate
/// weight array (three dependent loads per edge collapse into one
/// sequential stream). The per-edge weight is first-class graph state —
/// `add_edge` takes it, `set_edge_weight` updates it — and the dense
/// `edge_weights()` view keeps the full-evaluation reference path on the
/// same values, so the mirror cannot drift from what full recomputation
/// sees. A per-edge back-index into each adjacency array makes
/// `remove_edge` and weight updates O(1) (swap-and-pop, no linear scan).
///
/// An edge can also be *parked*: detached from both adjacency arrays like a
/// removed edge, but its id stays reserved (never handed out again by
/// `add_edge`) together with its endpoints and weight, so `unpark_edge`
/// re-attaches it under the same id. A parked edge is not live: traversals,
/// `edge_count()` and `edge()` do not see it. `parked_copy` builds a graph
/// whose edges all start parked, in one bulk step. The incremental
/// evaluator parks the communication edges a processor's total order
/// already implies.

#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/time.hpp"

namespace rdse {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

/// One packed adjacency record: the far endpoint of an incident edge, the
/// edge's stable id, and a mirror of its weight. 16 bytes, four records per
/// cache line — the unit the relax/reconcile hot loops stream over.
struct HalfEdge {
  NodeId node = kInvalidNode;  ///< src for in-lists, dst for out-lists
  EdgeId edge = kInvalidEdge;
  TimeNs weight = 0;
};

class Digraph {
 public:
  struct Edge {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
  };

  Digraph() = default;
  explicit Digraph(std::size_t node_count);

  /// A graph on `source`'s nodes holding every edge of `source` parked
  /// under the same id, with its endpoints and weight, in one bulk copy:
  /// nothing is attached and no id is free, so `unpark_edge` attaches an
  /// edge with the weight it was copied with and `add_edge` hands out ids
  /// after the copied ones. Per-edge storage is reserved for `edge_room`
  /// ids, so adding edges up to that many ids never reallocates it.
  /// `source` must have no removed edges.
  [[nodiscard]] static Digraph parked_copy(const Digraph& source,
                                           std::size_t edge_room);

  /// Append a node, returning its id (ids are dense, 0..node_count-1).
  NodeId add_node();

  /// Reserve adjacency room for `out` outgoing and `in` incoming live edges
  /// of `node`: attaching up to that many never reallocates.
  void reserve_degree(NodeId node, std::size_t out, std::size_t in);

  [[nodiscard]] std::size_t node_count() const { return out_.size(); }
  /// Number of live edges (neither removed nor parked).
  [[nodiscard]] std::size_t edge_count() const { return live_edges_; }
  /// Upper bound over edge ids ever allocated (for dense per-edge arrays).
  [[nodiscard]] std::size_t edge_capacity() const { return edges_.size(); }

  /// Insert an edge src -> dst carrying `weight`. Parallel edges are allowed
  /// (the search graph may stack a communication edge and a
  /// sequentialization edge on the same node pair). Self-loops are rejected.
  EdgeId add_edge(NodeId src, NodeId dst, TimeNs weight = 0);

  /// Remove a live edge by id — O(1) via the per-edge back-index
  /// (swap-and-pop in both adjacency arrays).
  void remove_edge(EdgeId edge);

  /// Detach a live edge from the adjacency but keep its id, endpoints and
  /// weight reserved — O(1), like remove_edge, except that the id does not
  /// return to the free list.
  void park_edge(EdgeId edge);

  /// Re-attach a parked edge under its id with the weight it was parked
  /// with — O(1).
  void unpark_edge(EdgeId edge);

  /// Update a live edge's weight in the dense array and both half-edge
  /// mirrors — O(1) via the back-index.
  void set_edge_weight(EdgeId edge, TimeNs weight) {
    RDSE_DCHECK(edge_alive(edge), "Digraph::set_edge_weight: edge not alive");
    weight_[edge] = weight;
    const Edge& e = edges_[edge];
    out_[e.src][out_pos_[edge]].weight = weight;
    in_[e.dst][in_pos_[edge]].weight = weight;
  }

  // The per-edge/per-node accessors below are the innermost operations of
  // the relaxation and reconciliation hot loops (tens of millions of calls
  // per sweep); they are inline, and their bounds checks compile away in
  // Release (RDSE_DCHECK — full checks stay on in Debug and sanitizer
  // builds).
  [[nodiscard]] bool edge_alive(EdgeId edge) const {
    return edge < edges_.size() && state_[edge] == EdgeState::kLive;
  }
  [[nodiscard]] bool edge_parked(EdgeId edge) const {
    return edge < edges_.size() && state_[edge] == EdgeState::kParked;
  }
  [[nodiscard]] const Edge& edge(EdgeId edge) const {
    RDSE_REQUIRE(edge_alive(edge), "Digraph::edge: edge not alive");
    return edges_[edge];
  }
  /// Unchecked endpoint access for ids the caller knows are live
  /// (relaxation and chain-diff inner loops — the liveness re-check is
  /// measurable there).
  [[nodiscard]] const Edge& edge_unchecked(EdgeId edge) const {
    RDSE_DCHECK(edge_alive(edge), "Digraph::edge_unchecked: edge not alive");
    return edges_[edge];
  }
  [[nodiscard]] TimeNs edge_weight(EdgeId edge) const {
    RDSE_DCHECK(edge_alive(edge), "Digraph::edge_weight: edge not alive");
    return weight_[edge];
  }
  /// Dense per-edge weights, indexed by EdgeId up to edge_capacity() (dead
  /// slots keep their last value). This is the array the full-evaluation
  /// reference path reads, so mirror and reference see identical values.
  [[nodiscard]] std::span<const TimeNs> edge_weights() const {
    return weight_;
  }

  /// Packed half-edge adjacency, the one way to walk a node's live edges:
  /// one contiguous array of (neighbor, edge id, weight) records per node
  /// and direction.
  [[nodiscard]] std::span<const HalfEdge> out_half(NodeId node) const {
    RDSE_DCHECK(node < node_count(), "Digraph::out_half: node out of range");
    return out_[node];
  }
  [[nodiscard]] std::span<const HalfEdge> in_half(NodeId node) const {
    RDSE_DCHECK(node < node_count(), "Digraph::in_half: node out of range");
    return in_[node];
  }

  [[nodiscard]] std::size_t out_degree(NodeId node) const {
    return out_half(node).size();
  }
  [[nodiscard]] std::size_t in_degree(NodeId node) const {
    return in_half(node).size();
  }

  /// True if at least one live edge src -> dst exists (linear in degree).
  [[nodiscard]] bool has_edge(NodeId src, NodeId dst) const;
  /// First live edge src -> dst, or kInvalidEdge.
  [[nodiscard]] EdgeId find_edge(NodeId src, NodeId dst) const;

  /// Remove all edges, keeping nodes.
  void clear_edges();

  /// Validate internal adjacency consistency, including the half-edge
  /// mirrors, back-indexes and the free/parked id bookkeeping (tests /
  /// debugging).
  void check_consistency() const;

 private:
  enum class EdgeState : std::uint8_t { kFree, kLive, kParked };

  /// Append `edge`'s half-edge records (and back-indexes) to both
  /// adjacency arrays; the edge counts as live from here on.
  void attach(EdgeId edge);
  /// Swap-and-pop `edge`'s half-edge records out of both adjacency arrays;
  /// the edge no longer counts as live.
  void detach(EdgeId edge);
  void detach(std::vector<std::vector<HalfEdge>>& lists,
              std::vector<std::uint32_t>& pos, NodeId node, EdgeId edge);

  std::vector<std::vector<HalfEdge>> out_;
  std::vector<std::vector<HalfEdge>> in_;
  std::vector<Edge> edges_;
  std::vector<TimeNs> weight_;
  /// Back-indexes: position of edge id `e` inside out_[src(e)] / in_[dst(e)]
  /// — what makes detach and weight updates O(1).
  std::vector<std::uint32_t> out_pos_;
  std::vector<std::uint32_t> in_pos_;
  std::vector<EdgeState> state_;
  std::vector<EdgeId> free_;
  std::size_t live_edges_ = 0;
};

}  // namespace rdse
