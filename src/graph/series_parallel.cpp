#include "graph/series_parallel.hpp"

#include <functional>

namespace rdse {

SpExpr SpExpr::chain(std::size_t length) {
  RDSE_REQUIRE(length >= 1, "SpExpr::chain: length must be >= 1");
  SpExpr e(Kind::kChain, length);
  e.chain_length_ = length;
  return e;
}

SpExpr SpExpr::series(SpExpr first, SpExpr second) {
  SpExpr e(Kind::kSeries, first.node_count() + second.node_count());
  e.left_ = std::make_shared<const SpExpr>(std::move(first));
  e.right_ = std::make_shared<const SpExpr>(std::move(second));
  return e;
}

SpExpr SpExpr::parallel(SpExpr left, SpExpr right) {
  SpExpr e(Kind::kParallel, left.node_count() + right.node_count());
  e.left_ = std::make_shared<const SpExpr>(std::move(left));
  e.right_ = std::make_shared<const SpExpr>(std::move(right));
  return e;
}

U128 SpExpr::linear_extensions() const {
  switch (kind_) {
    case Kind::kChain:
      return 1;
    case Kind::kSeries:
      return checked_mul(left_->linear_extensions(),
                         right_->linear_extensions());
    case Kind::kParallel: {
      const U128 both = checked_mul(left_->linear_extensions(),
                                    right_->linear_extensions());
      return checked_mul(both, interleavings(left_->node_count(),
                                             right_->node_count()));
    }
  }
  RDSE_ASSERT_MSG(false, "SpExpr: unknown kind");
  return 0;
}

SpExpr::Materialized SpExpr::materialize(Digraph& g) const {
  switch (kind_) {
    case Kind::kChain: {
      Materialized m;
      NodeId prev = kInvalidNode;
      for (std::size_t i = 0; i < chain_length_; ++i) {
        const NodeId v = g.add_node();
        if (prev != kInvalidNode) {
          g.add_edge(prev, v);
        } else {
          m.sources.push_back(v);
        }
        prev = v;
      }
      m.sinks.push_back(prev);
      return m;
    }
    case Kind::kSeries: {
      Materialized a = left_->materialize(g);
      Materialized b = right_->materialize(g);
      for (NodeId s : a.sinks) {
        for (NodeId t : b.sources) {
          g.add_edge(s, t);
        }
      }
      return Materialized{std::move(a.sources), std::move(b.sinks)};
    }
    case Kind::kParallel: {
      Materialized a = left_->materialize(g);
      const Materialized b = right_->materialize(g);
      a.sources.insert(a.sources.end(), b.sources.begin(), b.sources.end());
      a.sinks.insert(a.sinks.end(), b.sinks.begin(), b.sinks.end());
      return a;
    }
  }
  RDSE_ASSERT_MSG(false, "SpExpr: unknown kind");
  return {};
}

Digraph SpExpr::to_digraph() const {
  Digraph g;
  (void)materialize(g);
  RDSE_ASSERT(g.node_count() == node_count_);
  return g;
}

U128 count_linear_extensions_bruteforce(const Digraph& g) {
  const std::size_t n = g.node_count();
  RDSE_REQUIRE(n <= 12, "brute-force extension count limited to 12 nodes");
  std::vector<std::uint32_t> indeg(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    indeg[v] = static_cast<std::uint32_t>(g.in_degree(v));
  }
  U128 count = 0;
  std::vector<bool> placed(n, false);
  std::function<void(std::size_t)> rec = [&](std::size_t depth) {
    if (depth == n) {
      count = checked_add(count, 1);
      return;
    }
    for (NodeId v = 0; v < n; ++v) {
      if (placed[v] || indeg[v] != 0) continue;
      placed[v] = true;
      for (const HalfEdge& h : g.out_half(v)) --indeg[h.node];
      rec(depth + 1);
      for (const HalfEdge& h : g.out_half(v)) ++indeg[h.node];
      placed[v] = false;
    }
  };
  rec(0);
  return count;
}

SpExpr motion_detection_structure() {
  // §5: "the 28 nodes form a 7-node chain followed by a 7-node chain in
  // parallel with one of 3 14-node chains", the 14-node part being a 6-node
  // chain, then a 2-node chain in parallel with one node, then 5 nodes.
  SpExpr branch_b = SpExpr::series(
      SpExpr::chain(6),
      SpExpr::series(SpExpr::parallel(SpExpr::chain(2), SpExpr::chain(1)),
                     SpExpr::chain(5)));
  return SpExpr::series(
      SpExpr::chain(7),
      SpExpr::parallel(SpExpr::chain(7), std::move(branch_b)));
}

}  // namespace rdse
