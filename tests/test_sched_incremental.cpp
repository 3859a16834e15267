/// Property tests: the warm-start longest-path engine (the paper's
/// Woodbury-style update, §4.4) is bit-identical to full recomputation
/// under random edits, and its rank-based cycle test agrees with a full
/// acyclicity check.

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hpp"
#include "graph/topo.hpp"
#include "sched/incremental.hpp"
#include "util/rng.hpp"

namespace rdse {
namespace {

struct Mirror {
  Digraph graph;
  std::vector<TimeNs> node_weight;
  std::vector<TimeNs> release;

  // Edge weights live in the graph itself (dense array + half-edge
  // mirrors); the reference evaluator reads the same dense array the
  // relaxer's packed adjacency mirrors, so a desynced mirror shows up as a
  // full-vs-incremental mismatch here.
  WeightedDag dag() const {
    return WeightedDag{&graph, node_weight, graph.edge_weights(), release};
  }
  TimeNs full_makespan() const { return longest_path(dag()).makespan; }
};

// ---- DeltaRelaxer ----------------------------------------------------------

TEST(DeltaRelaxer, ProbeMatchesFullRelaxAndCommitAdvances) {
  Rng rng(17);
  Mirror m;
  m.graph = random_order_dag(30, 0.15, rng);
  m.node_weight.resize(30);
  for (auto& w : m.node_weight) w = rng.uniform_int(1, 100);
  for (EdgeId e = 0; e < m.graph.edge_capacity(); ++e) {
    m.graph.set_edge_weight(e, rng.uniform_int(0, 25));
  }
  m.release.assign(30, 0);

  DeltaRelaxer relaxer;
  relaxer.reset(m.dag());
  EXPECT_EQ(relaxer.makespan(), m.full_makespan());

  for (int step = 0; step < 300; ++step) {
    // Candidate = committed snapshot with a random local edit; the edit
    // kind determines the seed set and inserted-edge list, as in the
    // surgery performed by IncrementalEvaluator.
    Mirror cand = m;
    std::vector<NodeId> seeds;
    std::vector<EdgeId> new_edges;
    const double dice = rng.uniform01();
    if (dice < 0.3) {
      const NodeId v = static_cast<NodeId>(rng.index(30));
      cand.node_weight[v] = rng.uniform_int(1, 100);
      seeds.push_back(v);
    } else if (dice < 0.45) {
      const NodeId v = static_cast<NodeId>(rng.index(30));
      cand.release[v] = rng.uniform_int(0, 150);
      seeds.push_back(v);
    } else if (dice < 0.6) {  // re-weigh a live edge
      std::vector<EdgeId> live;
      for (EdgeId e = 0; e < cand.graph.edge_capacity(); ++e) {
        if (cand.graph.edge_alive(e)) live.push_back(e);
      }
      if (live.empty()) continue;
      const EdgeId e = live[rng.index(live.size())];
      cand.graph.set_edge_weight(e, rng.uniform_int(0, 25));
      seeds.push_back(cand.graph.edge(e).dst);
    } else if (dice < 0.8) {  // insert an edge (may create a cycle)
      const NodeId u = static_cast<NodeId>(rng.index(30));
      const NodeId v = static_cast<NodeId>(rng.index(30));
      if (u == v) continue;
      const EdgeId id = cand.graph.add_edge(u, v, rng.uniform_int(0, 25));
      seeds.push_back(v);
      new_edges.push_back(id);
    } else {  // remove a random live edge
      std::vector<EdgeId> live;
      for (EdgeId e = 0; e < cand.graph.edge_capacity(); ++e) {
        if (cand.graph.edge_alive(e)) live.push_back(e);
      }
      if (live.empty()) continue;
      const EdgeId e = live[rng.index(live.size())];
      seeds.push_back(cand.graph.edge(e).dst);
      cand.graph.remove_edge(e);
    }

    const auto probed = relaxer.probe(cand.dag(), seeds, new_edges);
    if (!is_acyclic(cand.graph)) {
      EXPECT_FALSE(probed.has_value()) << "step " << step;
      continue;
    }
    ASSERT_TRUE(probed.has_value()) << "step " << step;
    EXPECT_EQ(*probed, cand.full_makespan()) << "step " << step;

    // A rejected probe must leave the committed state intact; an accepted
    // one must advance it. Alternate to exercise both. (The in-place
    // layout rolls a superseded probe back at the next probe() — the
    // committed makespan below reads the untouched tracked value.)
    if (step % 2 == 0) {
      EXPECT_EQ(relaxer.makespan(), m.full_makespan());
    } else {
      relaxer.commit();
      m = cand;
      EXPECT_EQ(relaxer.makespan(), m.full_makespan());
      const auto full = longest_path(m.dag());
      for (NodeId v = 0; v < 30; ++v) {
        ASSERT_EQ(relaxer.start_of(v), full.start[v]);
        ASSERT_EQ(relaxer.finish_of(v), full.finish[v]);
      }
    }
  }
  const DeltaRelaxStats& stats = relaxer.stats();
  EXPECT_GT(stats.probes, 200);
  EXPECT_GT(stats.commits, 80);
  // Local edits must not trigger whole-graph relaxation.
  EXPECT_LT(stats.relaxed_nodes, stats.total_nodes / 2);
  // The incremental argmax tracking must resolve most probes' makespans
  // from the relaxed delta alone; the lazy full rescan is the exception.
  EXPECT_LT(stats.makespan_rescans, stats.probes / 2);
}

TEST(DeltaRelaxer, NoSeedsRelaxesNothing) {
  Rng rng(23);
  Mirror m;
  m.graph = random_order_dag(20, 0.2, rng);
  m.node_weight.assign(20, 3);
  for (EdgeId e = 0; e < m.graph.edge_capacity(); ++e) {
    m.graph.set_edge_weight(e, 1);
  }
  m.release.assign(20, 0);
  DeltaRelaxer relaxer;
  relaxer.reset(m.dag());
  const auto probed = relaxer.probe(m.dag(), {}, {});
  ASSERT_TRUE(probed.has_value());
  EXPECT_EQ(*probed, relaxer.makespan());
  EXPECT_EQ(relaxer.last_relaxed(), 0u);
  EXPECT_EQ(relaxer.journal_size(), 0u);
}

TEST(DeltaRelaxer, RankRepairHandlesDescendingInsertions) {
  // Chain 0 -> 1 -> 2 -> 3 with an isolated node 4. Inserting 4 -> 1
  // descends in any committed rank that places 4 last, so the probe must
  // repair the ranks locally (never a full re-sort) and still match the
  // full recomputation exactly.
  Mirror m;
  m.graph = Digraph(5);
  m.graph.add_edge(0, 1);
  m.graph.add_edge(1, 2);
  m.graph.add_edge(2, 3);
  m.node_weight = {2, 3, 4, 5, 7};
  m.release.assign(5, 0);
  DeltaRelaxer relaxer;
  relaxer.reset(m.dag());

  Mirror cand = m;
  const EdgeId e = cand.graph.add_edge(4, 1);
  const std::vector<NodeId> seeds{1};
  const std::vector<EdgeId> new_edges{e};
  const auto probed = relaxer.probe(cand.dag(), seeds, new_edges);
  ASSERT_TRUE(probed.has_value());
  EXPECT_EQ(*probed, cand.full_makespan());
  EXPECT_GE(relaxer.stats().rank_repairs, 1);
  EXPECT_GT(relaxer.stats().rank_repair_nodes, 0);

  // Committing adopts the repaired ranks; further edits on top must keep
  // matching the reference.
  relaxer.commit();
  m = cand;
  Mirror next = m;
  next.node_weight[4] = 1;
  const auto again =
      relaxer.probe(next.dag(), std::vector<NodeId>{4}, {});
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, next.full_makespan());
}

TEST(DeltaRelaxer, CycleAcrossTwoInsertedEdgesIsDetected) {
  // Committed graph: 0 -> 1, plus isolated 2. The batch {1 -> 2, 2 -> 0}
  // is only cyclic in combination with the committed edge — the repair
  // must catch it once the second batch edge is adopted, whatever the
  // committed rank order was.
  Mirror m;
  m.graph = Digraph(3);
  m.graph.add_edge(0, 1);
  m.node_weight = {1, 1, 1};
  m.release.assign(3, 0);
  DeltaRelaxer relaxer;
  relaxer.reset(m.dag());

  Mirror cand = m;
  std::vector<EdgeId> new_edges;
  new_edges.push_back(cand.graph.add_edge(1, 2));
  new_edges.push_back(cand.graph.add_edge(2, 0));
  const std::vector<NodeId> seeds{2, 0};
  const std::int64_t cyclic_before = relaxer.stats().cyclic;
  const auto probed = relaxer.probe(cand.dag(), seeds, new_edges);
  EXPECT_FALSE(probed.has_value());
  EXPECT_EQ(relaxer.stats().cyclic, cyclic_before + 1);

  // The committed state survives the rejected probe untouched — a cyclic
  // candidate is rejected before any in-place write, so no journal exists.
  EXPECT_EQ(relaxer.journal_size(), 0u);
  EXPECT_EQ(relaxer.makespan(), m.full_makespan());
}

TEST(DeltaRelaxer, DiscardRestoresCommittedValuesBitExactly) {
  // In-place candidate layout: a probe overwrites start_/finish_ directly,
  // so a rejected move must restore every value from the undo journal —
  // compare the whole arrays, not just the makespan.
  Rng rng(41);
  Mirror m;
  m.graph = random_order_dag(25, 0.2, rng);
  m.node_weight.resize(25);
  for (auto& w : m.node_weight) w = rng.uniform_int(1, 100);
  for (EdgeId e = 0; e < m.graph.edge_capacity(); ++e) {
    m.graph.set_edge_weight(e, rng.uniform_int(0, 20));
  }
  m.release.assign(25, 0);
  DeltaRelaxer relaxer;
  relaxer.reset(m.dag());

  const auto committed_full = longest_path(m.dag());
  for (int step = 0; step < 50; ++step) {
    Mirror cand = m;
    const NodeId v = static_cast<NodeId>(rng.index(25));
    cand.node_weight[v] = rng.uniform_int(1, 200);
    const auto probed =
        relaxer.probe(cand.dag(), std::vector<NodeId>{v}, {});
    ASSERT_TRUE(probed.has_value());
    // Between probe and discard the arrays expose the candidate; the
    // journal must hold exactly the changed nodes.
    if (*probed != relaxer.makespan()) {
      EXPECT_GT(relaxer.journal_size(), 0u);
    }
    relaxer.discard();
    EXPECT_EQ(relaxer.journal_size(), 0u);
    for (NodeId u = 0; u < 25; ++u) {
      ASSERT_EQ(relaxer.start_of(u), committed_full.start[u])
          << "step " << step;
      ASSERT_EQ(relaxer.finish_of(u), committed_full.finish[u])
          << "step " << step;
    }
    EXPECT_EQ(relaxer.makespan(), committed_full.makespan);
  }
  EXPECT_GT(relaxer.stats().journal_entries, 0);
}

TEST(DeltaRelaxer, SteadyStateProbesDoNotGrowScratch) {
  // Scratch-capacity watermark: after a warm-up phase, further probes of
  // the same shape must not allocate — the journal and schedule bitmask
  // capacities stay put (the "steady-state probes allocate nothing"
  // guarantee the hot path relies on).
  Rng rng(43);
  Mirror m;
  m.graph = random_order_dag(40, 0.15, rng);
  m.node_weight.resize(40);
  for (auto& w : m.node_weight) w = rng.uniform_int(1, 100);
  m.release.assign(40, 0);
  DeltaRelaxer relaxer;
  relaxer.reset(m.dag());

  auto drive = [&](int steps) {
    for (int i = 0; i < steps; ++i) {
      Mirror cand = m;
      const NodeId v = static_cast<NodeId>(rng.index(40));
      cand.node_weight[v] = rng.uniform_int(1, 100);
      const auto probed =
          relaxer.probe(cand.dag(), std::vector<NodeId>{v}, {});
      ASSERT_TRUE(probed.has_value());
      if (i % 2 == 0) {
        relaxer.commit();
        m = cand;
      } else {
        relaxer.discard();
      }
    }
  };
  drive(60);  // warm-up: scratch reaches its high-water mark
  const std::size_t journal_cap = relaxer.journal_capacity();
  const std::size_t queued_cap = relaxer.queued_capacity();
  drive(120);  // steady state: capacities must not move
  EXPECT_EQ(relaxer.journal_capacity(), journal_cap);
  EXPECT_EQ(relaxer.queued_capacity(), queued_cap);
}

TEST(DeltaRelaxer, ChainWindowRepairsMatchFullRelax) {
  // A processor chain of ~3000 nodes plus one free node z: inserting an
  // edge between z and a chain end descends across the whole chain, so the
  // Pearce–Kelly window spans it — forward from the chain's head when z
  // sits after it, backward from its tail (collected in descending rank
  // order) when z sits before it. Every probe, commit and discard is
  // checked node for node against a full longest-path pass.
  constexpr std::size_t kChain = 3000;
  const auto z = static_cast<NodeId>(kChain);  // last id: ranked last
  Rng rng(61);
  Mirror m;
  m.graph = Digraph(kChain + 1);
  for (NodeId v = 0; v + 1 < kChain; ++v) {
    m.graph.add_edge(v, v + 1, rng.uniform_int(0, 5));
  }
  m.node_weight.resize(kChain + 1);
  for (auto& w : m.node_weight) w = rng.uniform_int(1, 100);
  m.release.assign(kChain + 1, 0);
  m.release[z] = 50'000;  // z's edges change the chain's finish times

  DeltaRelaxer relaxer;
  relaxer.reset(m.dag());
  const auto expect_values = [&](const Mirror& want, const char* what,
                                 int round) {
    const LongestPathResult full = longest_path(want.dag());
    for (NodeId v = 0; v <= kChain; ++v) {
      ASSERT_EQ(relaxer.start_of(v), full.start[v])
          << what << ", round " << round << ", node " << v;
      ASSERT_EQ(relaxer.finish_of(v), full.finish[v])
          << what << ", round " << round << ", node " << v;
    }
  };
  // Stage `cand` with the given seeds and inserted edges; compare the
  // probe, then either discard (committed values must come back) or
  // commit (the candidate becomes the base).
  const auto step = [&](Mirror cand, std::vector<NodeId> seeds,
                        std::vector<EdgeId> new_edges, bool keep,
                        int round) {
    const auto probed = relaxer.probe(cand.dag(), seeds, new_edges);
    ASSERT_TRUE(probed.has_value()) << "round " << round;
    EXPECT_EQ(*probed, cand.full_makespan()) << "round " << round;
    expect_values(cand, "probe", round);
    if (keep) {
      relaxer.commit();
      m = std::move(cand);
      EXPECT_EQ(relaxer.makespan(), m.full_makespan());
      expect_values(m, "commit", round);
    } else {
      relaxer.discard();
      EXPECT_EQ(relaxer.makespan(), m.full_makespan());
      expect_values(m, "discard", round);
    }
  };

  for (int round = 0; round < 3; ++round) {
    for (const bool keep : {false, true}) {
      // z ranks after the chain: z -> head descends, and the forward sweep
      // from the head collects the whole chain.
      const std::int64_t before = relaxer.stats().rank_repair_nodes;
      Mirror cand = m;
      const EdgeId down = cand.graph.add_edge(z, 0, 7);
      step(cand, {0}, {down}, keep, round);
      EXPECT_GE(relaxer.stats().rank_repair_nodes - before,
                static_cast<std::int64_t>(kChain));
    }
    // Drop it again (ranks stay valid under removal): z now ranks first.
    {
      Mirror cand = m;
      cand.graph.remove_edge(cand.graph.find_edge(z, 0));
      step(cand, {0}, {}, true, round);
    }
    // With z before the chain, one insertion closes a cycle over the whole
    // window: commit z -> head, then probe tail -> z.
    if (round == 0) {
      Mirror cand = m;
      const EdgeId down = cand.graph.add_edge(z, 0, 7);
      step(cand, {0}, {down}, true, round);
      Mirror cyclic = m;
      const EdgeId back =
          cyclic.graph.add_edge(static_cast<NodeId>(kChain - 1), z, 3);
      const std::int64_t cyclic_before = relaxer.stats().cyclic;
      EXPECT_FALSE(relaxer
                       .probe(cyclic.dag(), std::vector<NodeId>{z},
                              std::vector<EdgeId>{back})
                       .has_value());
      EXPECT_EQ(relaxer.stats().cyclic, cyclic_before + 1);
      EXPECT_EQ(relaxer.journal_size(), 0u);
      expect_values(m, "cyclic probe", round);
      Mirror undo = m;
      undo.graph.remove_edge(undo.graph.find_edge(z, 0));
      step(undo, {0}, {}, true, round);
    }
    for (const bool keep : {false, true}) {
      // z ranks before the chain: tail -> z descends, and the backward
      // sweep from the tail walks the chain in descending rank order.
      const std::int64_t before = relaxer.stats().rank_repair_nodes;
      Mirror cand = m;
      const EdgeId down =
          cand.graph.add_edge(static_cast<NodeId>(kChain - 1), z, 9);
      step(cand, {z}, {down}, keep, round);
      EXPECT_GE(relaxer.stats().rank_repair_nodes - before,
                static_cast<std::int64_t>(kChain));
    }
    {
      Mirror cand = m;
      cand.graph.remove_edge(
          cand.graph.find_edge(static_cast<NodeId>(kChain - 1), z));
      step(cand, {z}, {}, true, round);
    }
  }
}

TEST(DeltaRelaxer, CommitWithoutProbeThrows) {
  Digraph g = chain_graph(3);
  std::vector<TimeNs> nw{1, 1, 1};
  std::vector<TimeNs> ew(g.edge_capacity(), 0);
  std::vector<TimeNs> rel(3, 0);
  DeltaRelaxer relaxer;
  relaxer.reset(WeightedDag{&g, nw, ew, rel});
  EXPECT_THROW(relaxer.commit(), Error);
}

}  // namespace
}  // namespace rdse
