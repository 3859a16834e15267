/// Tests for the dynamic digraph container.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace rdse {
namespace {

TEST(Digraph, EmptyGraph) {
  Digraph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Digraph, AddNodesAndEdges) {
  Digraph g(3);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.edge(e01).src, 0u);
  EXPECT_EQ(g.edge(e01).dst, 1u);
  EXPECT_EQ(g.out_degree(1), 1u);
  EXPECT_EQ(g.in_degree(1), 1u);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(2, 1));
  EXPECT_EQ(g.find_edge(1, 2), e12);
}

TEST(Digraph, AddNodeGrows) {
  Digraph g;
  EXPECT_EQ(g.add_node(), 0u);
  EXPECT_EQ(g.add_node(), 1u);
  EXPECT_EQ(g.node_count(), 2u);
}

TEST(Digraph, RejectsSelfLoopAndBadIds) {
  Digraph g(2);
  EXPECT_THROW((void)g.add_edge(0, 0), Error);
  EXPECT_THROW((void)g.add_edge(0, 5), Error);
  EXPECT_THROW((void)g.add_edge(5, 0), Error);
}

TEST(Digraph, ParallelEdgesAllowed) {
  Digraph g(2);
  const EdgeId a = g.add_edge(0, 1);
  const EdgeId b = g.add_edge(0, 1);
  EXPECT_NE(a, b);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.out_degree(0), 2u);
}

TEST(Digraph, RemoveEdge) {
  Digraph g(3);
  const EdgeId e = g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.remove_edge(e);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_FALSE(g.edge_alive(e));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_THROW(g.remove_edge(e), Error);  // double remove
}

TEST(Digraph, EdgeIdRecycling) {
  Digraph g(2);
  const EdgeId a = g.add_edge(0, 1);
  g.remove_edge(a);
  const EdgeId b = g.add_edge(1, 0);
  EXPECT_EQ(a, b);  // tombstone recycled
  EXPECT_EQ(g.edge_capacity(), 1u);
}

TEST(Digraph, ClearEdgesKeepsNodes) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.clear_edges();
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.out_degree(0), 0u);
}

TEST(Digraph, CopyIsIndependent) {
  Digraph g(2);
  g.add_edge(0, 1);
  Digraph h = g;
  h.add_edge(1, 0);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(h.edge_count(), 2u);
}

TEST(Digraph, DeadEdgeAccessThrows) {
  Digraph g(2);
  const EdgeId e = g.add_edge(0, 1);
  g.remove_edge(e);
  EXPECT_THROW((void)g.edge(e), Error);
}

TEST(Digraph, EdgeWeightsTravelWithEdges) {
  Digraph g(3);
  const EdgeId a = g.add_edge(0, 1, 7);
  const EdgeId b = g.add_edge(1, 2);  // default weight 0
  EXPECT_EQ(g.edge_weight(a), 7);
  EXPECT_EQ(g.edge_weight(b), 0);
  g.set_edge_weight(b, 42);
  EXPECT_EQ(g.edge_weight(b), 42);
  // The packed half-edge mirrors carry the same weight on both sides.
  EXPECT_EQ(g.out_half(1)[0].weight, 42);
  EXPECT_EQ(g.in_half(2)[0].weight, 42);
  EXPECT_EQ(g.edge_weights()[a], 7);
  // A recycled edge id must not inherit the dead edge's weight.
  g.remove_edge(a);
  const EdgeId c = g.add_edge(2, 0);
  EXPECT_EQ(c, a);
  EXPECT_EQ(g.edge_weight(c), 0);
  g.check_consistency();
}

TEST(Digraph, SwapAndPopDetachKeepsBackIndexesValid) {
  // Regression for the O(1) removal path: removing an edge from the middle
  // of an adjacency array swap-and-pops the last half-edge into its slot,
  // which must also repair that moved edge's back-index — otherwise its own
  // later removal (or weight update) corrupts the adjacency.
  Digraph g(5);
  const EdgeId e1 = g.add_edge(0, 1, 10);
  const EdgeId e2 = g.add_edge(0, 2, 20);
  const EdgeId e3 = g.add_edge(0, 3, 30);
  const EdgeId e4 = g.add_edge(0, 4, 40);

  g.remove_edge(e1);  // e4's half-edge moves into slot 0 of out_[0]
  g.check_consistency();
  // The moved edge must still be addressable in O(1): weight updates and
  // removal go through its (repaired) back-index.
  g.set_edge_weight(e4, 44);
  EXPECT_EQ(g.edge_weight(e4), 44);
  EXPECT_EQ(g.find_edge(0, 4), e4);
  g.remove_edge(e4);
  g.check_consistency();
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_TRUE(g.edge_alive(e2));
  EXPECT_TRUE(g.edge_alive(e3));
  EXPECT_EQ(g.edge_weight(e2), 20);
  EXPECT_EQ(g.edge_weight(e3), 30);
  // Removing the tail element is the self-swap edge case.
  g.remove_edge(e3);
  g.check_consistency();
  EXPECT_EQ(g.find_edge(0, 2), e2);
}

// ---- parked edges -----------------------------------------------------------

TEST(DigraphPark, AddEdgeNeverHandsOutAParkedId) {
  Digraph g(4);
  const EdgeId a = g.add_edge(0, 1, 5);
  const EdgeId b = g.add_edge(1, 2, 6);
  g.park_edge(a);
  // A removed id is recycled; the parked one stays reserved through any
  // amount of later insertion and removal.
  g.remove_edge(b);
  EXPECT_EQ(g.add_edge(2, 3), b);
  for (int i = 0; i < 20; ++i) {
    const EdgeId e = g.add_edge(static_cast<NodeId>(i % 3),
                                static_cast<NodeId>(i % 3 + 1));
    EXPECT_NE(e, a);
    if (i % 2 == 0) g.remove_edge(e);
  }
  EXPECT_TRUE(g.edge_parked(a));
  EXPECT_FALSE(g.edge_alive(a));
  g.check_consistency();
}

TEST(DigraphPark, UnparkRestoresRecordBackIndexAndWeight) {
  Digraph g(5);
  const EdgeId e1 = g.add_edge(0, 1, 10);
  const EdgeId e2 = g.add_edge(0, 2, 20);
  const EdgeId e3 = g.add_edge(0, 3, 30);
  const EdgeId e4 = g.add_edge(4, 2, 40);

  // Parking from the middle of out_[0] and the front of in_[2]
  // swap-and-pops the tail records into place, as removal does.
  g.park_edge(e2);
  g.check_consistency();
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(2), 1u);
  EXPECT_EQ(g.find_edge(0, 2), kInvalidEdge);
  // The records that moved keep working through their back-indexes.
  g.set_edge_weight(e3, 33);
  g.set_edge_weight(e4, 44);
  g.check_consistency();

  g.unpark_edge(e2);
  g.check_consistency();
  EXPECT_TRUE(g.edge_alive(e2));
  EXPECT_EQ(g.edge(e2).src, 0u);
  EXPECT_EQ(g.edge(e2).dst, 2u);
  EXPECT_EQ(g.edge_weight(e2), 20);
  EXPECT_EQ(g.find_edge(0, 2), e2);
  // Both half-edge records are back, carrying the parked weight, and the
  // back-index addresses them: a weight update reaches both mirrors.
  g.set_edge_weight(e2, 21);
  bool seen_out = false;
  for (const HalfEdge& h : g.out_half(0)) {
    if (h.edge == e2) {
      seen_out = true;
      EXPECT_EQ(h.node, 2u);
      EXPECT_EQ(h.weight, 21);
    }
  }
  bool seen_in = false;
  for (const HalfEdge& h : g.in_half(2)) {
    if (h.edge == e2) {
      seen_in = true;
      EXPECT_EQ(h.node, 0u);
      EXPECT_EQ(h.weight, 21);
    }
  }
  EXPECT_TRUE(seen_out);
  EXPECT_TRUE(seen_in);
  g.remove_edge(e2);
  g.remove_edge(e1);
  g.check_consistency();
}

TEST(DigraphPark, EdgeCountCountsLiveEdgesOnly) {
  Digraph g(3);
  const EdgeId a = g.add_edge(0, 1);
  const EdgeId b = g.add_edge(1, 2);
  g.park_edge(a);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.edge_capacity(), 2u);
  g.park_edge(b);
  EXPECT_EQ(g.edge_count(), 0u);
  g.unpark_edge(a);
  EXPECT_EQ(g.edge_count(), 1u);
  g.check_consistency();
}

TEST(DigraphPark, ParkedEdgeAccessThrows) {
  Digraph g(2);
  const EdgeId e = g.add_edge(0, 1);
  const EdgeId live = g.add_edge(1, 0);
  g.park_edge(e);
  // edge() throws as on a removed edge; a parked edge can be neither
  // removed nor parked again, and only a parked edge can be unparked.
  EXPECT_THROW((void)g.edge(e), Error);
  EXPECT_THROW(g.remove_edge(e), Error);
  EXPECT_THROW(g.park_edge(e), Error);
  EXPECT_THROW(g.unpark_edge(live), Error);
  g.remove_edge(live);
  EXPECT_THROW(g.unpark_edge(live), Error);
  g.unpark_edge(e);
  EXPECT_NO_THROW((void)g.edge(e));
}

TEST(DigraphAddParked, ReservedIdIsNeverHandedOutByAddEdge) {
  Digraph g(4);
  const EdgeId live = g.add_edge(0, 1, 3);
  const EdgeId parked = g.add_parked_edge(1, 2, 7);
  EXPECT_EQ(parked, live + 1);  // allocated like add_edge's next id
  EXPECT_TRUE(g.edge_parked(parked));
  EXPECT_FALSE(g.edge_alive(parked));
  EXPECT_EQ(g.out_degree(1), 0u);
  EXPECT_EQ(g.in_degree(2), 0u);
  g.check_consistency();
  // Free ids are recycled; the reserved one never is.
  g.remove_edge(live);
  EXPECT_EQ(g.add_edge(2, 3), live);
  for (int i = 0; i < 20; ++i) {
    const EdgeId e = g.add_edge(static_cast<NodeId>(i % 3),
                                static_cast<NodeId>(i % 3 + 1));
    EXPECT_NE(e, parked);
    if (i % 2 == 0) g.remove_edge(e);
  }
  EXPECT_TRUE(g.edge_parked(parked));
  g.check_consistency();
  // A reserved id recycles a free slot like add_edge does.
  const EdgeId spare = g.add_edge(0, 3);
  g.remove_edge(spare);
  EXPECT_EQ(g.add_parked_edge(0, 2), spare);
  EXPECT_TRUE(g.edge_parked(spare));
  g.check_consistency();
  EXPECT_THROW((void)g.add_parked_edge(1, 1), Error);
  EXPECT_THROW((void)g.add_parked_edge(0, 9), Error);
}

TEST(DigraphAddParked, UnparkAttachesWithTheReservedWeight) {
  Digraph g(3);
  const EdgeId a = g.add_parked_edge(0, 1, 11);
  const EdgeId b = g.add_edge(1, 2, 22);
  g.unpark_edge(a);
  g.check_consistency();
  EXPECT_TRUE(g.edge_alive(a));
  EXPECT_EQ(g.edge(a).src, 0u);
  EXPECT_EQ(g.edge(a).dst, 1u);
  EXPECT_EQ(g.edge_weight(a), 11);
  ASSERT_EQ(g.out_half(0).size(), 1u);
  EXPECT_EQ(g.out_half(0)[0].edge, a);
  EXPECT_EQ(g.out_half(0)[0].weight, 11);
  ASSERT_EQ(g.in_half(1).size(), 1u);
  EXPECT_EQ(g.in_half(1)[0].weight, 11);
  // From here it behaves as any live edge: park, unpark, re-weight.
  g.park_edge(a);
  g.unpark_edge(a);
  g.set_edge_weight(a, 12);
  EXPECT_EQ(g.in_half(1)[0].weight, 12);
  EXPECT_EQ(g.edge_weight(b), 22);
  g.check_consistency();
}

TEST(DigraphAddParked, EdgeCountCountsLiveEdgesOnly) {
  Digraph g(3);
  (void)g.add_parked_edge(0, 1);
  (void)g.add_parked_edge(1, 2);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.edge_capacity(), 2u);
  const EdgeId c = g.add_edge(0, 2);
  EXPECT_EQ(g.edge_count(), 1u);
  g.unpark_edge(0);
  EXPECT_EQ(g.edge_count(), 2u);
  g.remove_edge(c);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.edge_capacity(), 3u);
  g.check_consistency();
}

TEST(Digraph, ReserveDegreeAttachesWithoutReallocating) {
  Digraph g(4);
  g.reserve_edges(8);
  g.reserve_degree(0, 3, 0);
  g.reserve_degree(3, 0, 3);
  const EdgeId a = g.add_parked_edge(0, 1);
  (void)g.add_edge(0, 2);
  const HalfEdge* out0 = g.out_half(0).data();
  (void)g.add_edge(0, 3);
  g.unpark_edge(a);
  EXPECT_EQ(g.out_half(0).data(), out0);
  EXPECT_EQ(g.out_degree(0), 3u);
  (void)g.add_edge(1, 3);
  const HalfEdge* in3 = g.in_half(3).data();
  (void)g.add_edge(2, 3);
  EXPECT_EQ(g.in_half(3).data(), in3);
  g.check_consistency();
  EXPECT_THROW(g.reserve_degree(4, 1, 1), Error);
}

class ParkChurn : public ::testing::TestWithParam<std::uint64_t> {};

// Random park / unpark / add / remove churn against a naive model: the
// adjacency holds exactly the live edges, parked edges come back with
// their endpoints and weight, and no id is ever live and parked at once.
TEST_P(ParkChurn, RandomChurnKeepsConsistency) {
  Rng rng(GetParam());
  const std::size_t n = 12;
  Digraph g(n);
  struct Model {
    EdgeId id;
    NodeId src;
    NodeId dst;
    TimeNs weight;
  };
  std::vector<Model> live;
  std::vector<Model> parked;
  const auto take = [&](std::vector<Model>& from) {
    const std::size_t k = rng.index(from.size());
    const Model m = from[k];
    from[k] = from.back();
    from.pop_back();
    return m;
  };
  for (int step = 0; step < 2000; ++step) {
    const double dice = rng.uniform01();
    if (live.empty() || dice < 0.3) {
      const NodeId u = static_cast<NodeId>(rng.index(n));
      NodeId v = static_cast<NodeId>(rng.index(n));
      if (u == v) v = static_cast<NodeId>((v + 1) % n);
      const TimeNs w = rng.uniform_int(0, 99);
      const EdgeId id = g.add_edge(u, v, w);
      for (const Model& p : parked) ASSERT_NE(p.id, id) << "step " << step;
      live.push_back({id, u, v, w});
    } else if (dice < 0.5) {
      g.remove_edge(take(live).id);
    } else if (dice < 0.75) {
      const Model m = take(live);
      g.park_edge(m.id);
      parked.push_back(m);
    } else if (!parked.empty()) {
      const Model m = take(parked);
      g.unpark_edge(m.id);
      live.push_back(m);
    }
    if (step % 100 == 0) g.check_consistency();
  }
  g.check_consistency();
  ASSERT_EQ(g.edge_count(), live.size());
  for (const Model& m : live) {
    ASSERT_TRUE(g.edge_alive(m.id));
    EXPECT_EQ(g.edge(m.id).src, m.src);
    EXPECT_EQ(g.edge(m.id).dst, m.dst);
    EXPECT_EQ(g.edge_weight(m.id), m.weight);
  }
  for (const Model& m : parked) {
    ASSERT_TRUE(g.edge_parked(m.id));
    g.unpark_edge(m.id);
    EXPECT_EQ(g.edge(m.id).src, m.src);
    EXPECT_EQ(g.edge(m.id).dst, m.dst);
    EXPECT_EQ(g.edge_weight(m.id), m.weight);
  }
  EXPECT_EQ(g.edge_count(), live.size() + parked.size());
  g.check_consistency();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParkChurn, ::testing::Values(3, 5, 7, 9));

class DigraphChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DigraphChurn, RandomChurnKeepsConsistency) {
  Rng rng(GetParam());
  Digraph g(20);
  std::vector<EdgeId> live;
  for (int step = 0; step < 3000; ++step) {
    if (live.empty() || rng.bernoulli(0.6)) {
      const NodeId u = static_cast<NodeId>(rng.index(20));
      NodeId v = static_cast<NodeId>(rng.index(20));
      if (u == v) v = (v + 1) % 20;
      live.push_back(g.add_edge(u, v));
    } else {
      const std::size_t k = rng.index(live.size());
      g.remove_edge(live[k]);
      live[k] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(g.edge_count(), live.size());
  g.check_consistency();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DigraphChurn,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class MirrorChurn : public ::testing::TestWithParam<std::uint64_t> {};

// CSR-mirror consistency property: under random add / remove / re-weight /
// undo sequences (the evaluator's rollback removes freshly inserted edges
// and re-inserts the removed ones, recycling ids), the packed half-edge
// arrays must agree record-for-record with a naively maintained adjacency
// model, weights included.
TEST_P(MirrorChurn, PackedHalfEdgesMatchNaiveAdjacency) {
  Rng rng(GetParam());
  const std::size_t n = 15;
  Digraph g(n);

  struct NaiveEdge {
    EdgeId id;
    NodeId src;
    NodeId dst;
    TimeNs weight;
  };
  std::vector<NaiveEdge> naive;  // live edges only
  struct Undo {
    NodeId src;
    NodeId dst;
    TimeNs weight;
  };

  const auto verify = [&]() {
    g.check_consistency();
    ASSERT_EQ(g.edge_count(), naive.size());
    for (const NaiveEdge& e : naive) {
      ASSERT_TRUE(g.edge_alive(e.id));
      ASSERT_EQ(g.edge(e.id).src, e.src);
      ASSERT_EQ(g.edge(e.id).dst, e.dst);
      ASSERT_EQ(g.edge_weight(e.id), e.weight);
    }
    // Per-node half-edge arrays hold exactly the live incident edges.
    for (NodeId v = 0; v < n; ++v) {
      std::vector<EdgeId> expect_out;
      std::vector<EdgeId> expect_in;
      for (const NaiveEdge& e : naive) {
        if (e.src == v) expect_out.push_back(e.id);
        if (e.dst == v) expect_in.push_back(e.id);
      }
      std::vector<EdgeId> got_out;
      for (const HalfEdge& h : g.out_half(v)) got_out.push_back(h.edge);
      std::vector<EdgeId> got_in;
      for (const HalfEdge& h : g.in_half(v)) got_in.push_back(h.edge);
      std::sort(expect_out.begin(), expect_out.end());
      std::sort(expect_in.begin(), expect_in.end());
      std::sort(got_out.begin(), got_out.end());
      std::sort(got_in.begin(), got_in.end());
      ASSERT_EQ(got_out, expect_out);
      ASSERT_EQ(got_in, expect_in);
    }
  };

  for (int step = 0; step < 600; ++step) {
    const double dice = rng.uniform01();
    if (naive.empty() || dice < 0.35) {  // insert
      const NodeId u = static_cast<NodeId>(rng.index(n));
      NodeId v = static_cast<NodeId>(rng.index(n));
      if (u == v) v = static_cast<NodeId>((v + 1) % n);
      const TimeNs w = rng.uniform_int(0, 99);
      naive.push_back({g.add_edge(u, v, w), u, v, w});
    } else if (dice < 0.55) {  // remove
      const std::size_t k = rng.index(naive.size());
      g.remove_edge(naive[k].id);
      naive[k] = naive.back();
      naive.pop_back();
    } else if (dice < 0.75) {  // re-weight
      const std::size_t k = rng.index(naive.size());
      const TimeNs w = rng.uniform_int(0, 99);
      g.set_edge_weight(naive[k].id, w);
      naive[k].weight = w;
    } else {  // undo-style: remove a batch, then re-add it (ids recycle)
      std::vector<Undo> undo;
      const std::size_t batch = 1 + rng.index(3);
      for (std::size_t i = 0; i < batch && !naive.empty(); ++i) {
        const std::size_t k = rng.index(naive.size());
        undo.push_back({naive[k].src, naive[k].dst, naive[k].weight});
        g.remove_edge(naive[k].id);
        naive[k] = naive.back();
        naive.pop_back();
      }
      for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
        naive.push_back(
            {g.add_edge(it->src, it->dst, it->weight), it->src, it->dst,
             it->weight});
      }
    }
    if (step % 50 == 0) verify();
  }
  verify();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MirrorChurn,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(Generators, ChainGraphShape) {
  const Digraph g = chain_graph(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_THROW((void)chain_graph(0), Error);
}

TEST(Generators, ForkJoinShape) {
  const Digraph g = fork_join_graph(3);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.out_degree(0), 3u);
  EXPECT_EQ(g.in_degree(4), 3u);
}

class LayeredGen : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LayeredGen, ProducesRequestedNodeCountAndConnectivity) {
  Rng rng(GetParam());
  LayeredDagParams p;
  p.node_count = 37;
  p.max_width = 5;
  p.edge_probability = 0.4;
  const Digraph g = random_layered_dag(p, rng);
  EXPECT_EQ(g.node_count(), 37u);
  // connect_orphans guarantees in-degree >= 1 for every non-layer-0 node
  // once the first layer is past; count sources instead: small.
  std::size_t sources = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    sources += g.in_degree(v) == 0 ? 1 : 0;
  }
  EXPECT_GE(sources, 1u);
  EXPECT_LE(sources, 5u);  // at most the first layer
  g.check_consistency();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayeredGen,
                         ::testing::Values(10, 20, 30, 40, 50));

}  // namespace
}  // namespace rdse
