#include "graph/digraph.hpp"

#include <algorithm>

namespace rdse {

Digraph::Digraph(std::size_t node_count)
    : out_(node_count), in_(node_count) {}

NodeId Digraph::add_node() {
  out_.emplace_back();
  in_.emplace_back();
  return static_cast<NodeId>(out_.size() - 1);
}

Digraph Digraph::parked_copy(const Digraph& source, std::size_t edge_room) {
  RDSE_REQUIRE(source.free_.empty(),
               "Digraph::parked_copy: source has removed edges");
  Digraph g(source.node_count());
  const std::size_t ids = source.edges_.size();
  const std::size_t room = std::max(edge_room, ids);
  g.edges_.reserve(room);
  g.edges_.assign(source.edges_.begin(), source.edges_.end());
  g.weight_.reserve(room);
  g.weight_.assign(source.weight_.begin(), source.weight_.end());
  g.state_.reserve(room);
  g.state_.assign(ids, EdgeState::kParked);
  g.out_pos_.reserve(room);
  g.out_pos_.assign(ids, 0);
  g.in_pos_.reserve(room);
  g.in_pos_.assign(ids, 0);
  return g;
}

void Digraph::reserve_degree(NodeId node, std::size_t out, std::size_t in) {
  RDSE_REQUIRE(node < node_count(),
               "Digraph::reserve_degree: node out of range");
  out_[node].reserve(out);
  in_[node].reserve(in);
}

EdgeId Digraph::add_edge(NodeId src, NodeId dst, TimeNs weight) {
  RDSE_REQUIRE(src < node_count() && dst < node_count(),
               "Digraph::add_edge: node id out of range");
  RDSE_REQUIRE(src != dst, "Digraph::add_edge: self loops are not allowed");
  EdgeId id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
    edges_[id] = Edge{src, dst};
    weight_[id] = weight;
    state_[id] = EdgeState::kLive;
  } else {
    id = static_cast<EdgeId>(edges_.size());
    edges_.push_back(Edge{src, dst});
    weight_.push_back(weight);
    state_.push_back(EdgeState::kLive);
    out_pos_.push_back(0);
    in_pos_.push_back(0);
  }
  attach(id);
  return id;
}

void Digraph::attach(EdgeId edge) {
  const Edge& e = edges_[edge];
  out_pos_[edge] = static_cast<std::uint32_t>(out_[e.src].size());
  out_[e.src].push_back(HalfEdge{e.dst, edge, weight_[edge]});
  in_pos_[edge] = static_cast<std::uint32_t>(in_[e.dst].size());
  in_[e.dst].push_back(HalfEdge{e.src, edge, weight_[edge]});
  ++live_edges_;
}

void Digraph::detach(std::vector<std::vector<HalfEdge>>& lists,
                     std::vector<std::uint32_t>& pos, NodeId node,
                     EdgeId edge) {
  std::vector<HalfEdge>& list = lists[node];
  const std::uint32_t at = pos[edge];
  RDSE_ASSERT(at < list.size() && list[at].edge == edge);
  const HalfEdge moved = list.back();
  list[at] = moved;
  pos[moved.edge] = at;  // self-assignment when `edge` was last: harmless
  list.pop_back();
}

void Digraph::detach(EdgeId edge) {
  const Edge& e = edges_[edge];
  detach(out_, out_pos_, e.src, edge);
  detach(in_, in_pos_, e.dst, edge);
  --live_edges_;
}

void Digraph::remove_edge(EdgeId edge) {
  RDSE_REQUIRE(edge_alive(edge), "Digraph::remove_edge: edge not alive");
  detach(edge);
  state_[edge] = EdgeState::kFree;
  free_.push_back(edge);
}

void Digraph::park_edge(EdgeId edge) {
  RDSE_REQUIRE(edge_alive(edge), "Digraph::park_edge: edge not alive");
  detach(edge);
  state_[edge] = EdgeState::kParked;
}

void Digraph::unpark_edge(EdgeId edge) {
  RDSE_REQUIRE(edge_parked(edge), "Digraph::unpark_edge: edge not parked");
  attach(edge);
  state_[edge] = EdgeState::kLive;
}

bool Digraph::has_edge(NodeId src, NodeId dst) const {
  return find_edge(src, dst) != kInvalidEdge;
}

EdgeId Digraph::find_edge(NodeId src, NodeId dst) const {
  for (const HalfEdge& h : out_half(src)) {
    if (h.node == dst) {
      return h.edge;
    }
  }
  return kInvalidEdge;
}

void Digraph::clear_edges() {
  for (auto& lst : out_) lst.clear();
  for (auto& lst : in_) lst.clear();
  edges_.clear();
  weight_.clear();
  out_pos_.clear();
  in_pos_.clear();
  state_.clear();
  free_.clear();
  live_edges_ = 0;
}

void Digraph::check_consistency() const {
  std::size_t live = 0;
  std::size_t free_slots = 0;
  for (EdgeId id = 0; id < edges_.size(); ++id) {
    if (state_[id] == EdgeState::kFree) ++free_slots;
    if (state_[id] != EdgeState::kLive) continue;
    ++live;
    const Edge& e = edges_[id];
    RDSE_ASSERT(e.src < node_count() && e.dst < node_count());
    // The back-index must point at this edge's half-edge record in each
    // adjacency array, and the record must mirror endpoint and weight.
    RDSE_ASSERT(out_pos_[id] < out_[e.src].size());
    const HalfEdge& ho = out_[e.src][out_pos_[id]];
    RDSE_ASSERT(ho.edge == id && ho.node == e.dst &&
                ho.weight == weight_[id]);
    RDSE_ASSERT(in_pos_[id] < in_[e.dst].size());
    const HalfEdge& hi = in_[e.dst][in_pos_[id]];
    RDSE_ASSERT(hi.edge == id && hi.node == e.src &&
                hi.weight == weight_[id]);
  }
  RDSE_ASSERT(live == live_edges_);
  // The free list holds removed ids only, as many as there are — a parked
  // id must never be on it (add_edge would hand it out while reserved).
  RDSE_ASSERT(free_.size() == free_slots);
  for (const EdgeId id : free_) {
    RDSE_ASSERT(id < edges_.size() && state_[id] == EdgeState::kFree);
  }
  std::size_t half_out = 0;
  std::size_t half_in = 0;
  for (NodeId v = 0; v < node_count(); ++v) {
    half_out += out_[v].size();
    half_in += in_[v].size();
    for (const HalfEdge& h : out_[v]) {
      RDSE_ASSERT(edge_alive(h.edge) && edges_[h.edge].src == v &&
                  edges_[h.edge].dst == h.node);
    }
    for (const HalfEdge& h : in_[v]) {
      RDSE_ASSERT(edge_alive(h.edge) && edges_[h.edge].dst == v &&
                  edges_[h.edge].src == h.node);
    }
  }
  RDSE_ASSERT(half_out == live_edges_ && half_in == live_edges_);
}

}  // namespace rdse
