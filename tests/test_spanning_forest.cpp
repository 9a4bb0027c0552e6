#include "core/spanning_forest.hpp"

#include <gtest/gtest.h>

#include <string>

#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"

namespace logcc::core {
namespace {

void expect_valid_forest(const graph::EdgeList& el, const SfResult& r,
                         const std::string& name) {
  auto check = graph::validate_spanning_forest(el, r.forest_edges);
  EXPECT_TRUE(check.ok) << name << ": " << check.error;
}

TEST(Theorem2, Zoo) {
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    auto r = theorem2_sf(el);
    expect_valid_forest(el, r, name);
  }
}

TEST(Theorem2, ForestEdgeCountEqualsNMinusComponents) {
  auto el = graph::disjoint_union(
      {graph::make_gnm(100, 260, 4), graph::make_cycle(30),
       graph::make_star(20)});
  auto r = theorem2_sf(el);
  auto oracle = logcc::testing::oracle_labels(el);
  EXPECT_EQ(r.forest_edges.size(), el.n - graph::count_components(oracle));
}

TEST(Theorem2, ForestEdgesAreInputEdges) {
  auto el = graph::make_gnm(120, 400, 6);
  auto r = theorem2_sf(el);
  for (std::uint64_t idx : r.forest_edges) ASSERT_LT(idx, el.edges.size());
}

TEST(Theorem2, SeedsAllValid) {
  auto el = graph::make_gnm(150, 500, 8);
  for (std::uint64_t seed : {1ULL, 7ULL, 99ULL, 12345ULL}) {
    SpanningForestParams p;
    p.seed = seed;
    auto r = theorem2_sf(el, p);
    expect_valid_forest(el, r, "seed " + std::to_string(seed));
  }
}

TEST(Theorem2, DensePathMixture) {
  // Dense core + long tail: stresses both the leader election and the
  // β-layer linking along the tail.
  auto el = graph::make_lollipop(64, 200);
  auto r = theorem2_sf(el);
  expect_valid_forest(el, r, "lollipop");
  EXPECT_EQ(r.forest_edges.size(), el.n - 1);
}

TEST(Theorem2, SparseUsesForestPrepare) {
  auto el = graph::make_path(1500);
  auto r = theorem2_sf(el);
  EXPECT_TRUE(r.stats.prepare_used);
  expect_valid_forest(el, r, "path");
}

TEST(Theorem2, ForcedFinisherStillValid) {
  // One EXPAND/VOTE/TREE-LINK phase contracts neither graph, so the shared
  // phase loop hands the rest to the finisher, which must mark the input
  // edge of every hook it makes.
  SpanningForestParams p;
  p.max_phases = 1;
  p.prepare_max_phases = 0;  // no help from FOREST-PREPARE either
  for (const auto& el : {graph::make_grid(20, 20), graph::make_path(20000)}) {
    const std::string name = "n=" + std::to_string(el.n) + " under finisher";
    auto r = theorem2_sf(el, p);
    EXPECT_TRUE(r.stats.finisher_used) << name;
    EXPECT_EQ(r.forest_edges.size(), el.n - 1) << name;
    expect_valid_forest(el, r, name);
  }
}

TEST(Theorem2, NTildeRuleStillValid) {
  SpanningForestParams exact;
  exact.prepare_max_phases = 0;  // leave the phase loop all the work
  SpanningForestParams p = exact;
  p.exact_count = false;  // §B.5 update rule instead of combining count
  int resized = 0;  // graphs whose phase sizing the rule changed
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    auto r = theorem2_sf(el, p);
    expect_valid_forest(el, r, name);
    resized += r.stats.total_block_words !=
               theorem2_sf(el, exact).stats.total_block_words;
  }
  EXPECT_GT(resized, 0);  // the phase loop honours exact_count
}

TEST(Theorem2, PhaseCountTracksTheorem1) {
  // Same asymptotics as Theorem 1 (the paper's point): phases stay small on
  // a dense low-diameter graph.
  auto el = graph::make_gnm(256, 8192, 10);
  auto r = theorem2_sf(el);
  EXPECT_LE(r.stats.phases, 10u);
}

TEST(Theorem2, EdgelessGraph) {
  graph::EdgeList el;
  el.n = 9;
  auto r = theorem2_sf(el);
  EXPECT_TRUE(r.forest_edges.empty());
}

TEST(Theorem2, SingleEdge) {
  graph::EdgeList el;
  el.n = 2;
  el.add(0, 1);
  auto r = theorem2_sf(el);
  ASSERT_EQ(r.forest_edges.size(), 1u);
  EXPECT_EQ(r.forest_edges[0], 0u);
}

TEST(Theorem2, ParallelEdgesPickOne) {
  graph::EdgeList el;
  el.n = 2;
  el.add(0, 1);
  el.add(0, 1);
  el.add(1, 0);
  auto r = theorem2_sf(el);
  EXPECT_EQ(r.forest_edges.size(), 1u);
}

// ---- Determinism contract: the parallel TREE-LINK (fetch-min link choice,
// idempotent leader-neighbour marks) must pick the same forest edges for
// every thread count (mirrors tests/test_scan.cpp).

using logcc::testing::ThreadInvariance;

TEST_F(ThreadInvariance, ForestEdgesIdenticalAcrossThreads) {
  auto el = graph::make_gnm(20000, 60000, 41);
  util::set_parallelism(1);
  auto one = theorem2_sf(el);
  expect_valid_forest(el, one, "threads=1");
  for (int threads : {2, 8}) {
    util::set_parallelism(threads);
    auto many = theorem2_sf(el);
    EXPECT_EQ(one.forest_edges, many.forest_edges) << "threads=" << threads;
  }
}

// TREE-LINK keeps one Q' table per slot and empties them all before each
// radius. On these inputs some slot's Q' is rejected at one radius (a
// collision or a leader) and accepted at a smaller one, so the forest is
// only right when that retry starts from an empty table. The fingerprints
// (FNV-1a over the forest edge indices) were recorded with per-radius
// resets and PREPARE off; a slab reset once per TREE-LINK instead of once
// per radius moves each of them.
TEST_F(ThreadInvariance, TreeLinkRetryStartsFromEmptyQPrime) {
  struct Case {
    const char* family;
    std::uint64_t n, seed, fingerprint;
  };
  const Case cases[] = {{"cycle", 10000, 9, 0x6a81afc238264bb5ULL},
                        {"cycle", 10000, 12, 0x4cdd0820e1b89f46ULL},
                        {"lollipop", 2000, 4, 0x48199e8bc488aa4cULL}};
  for (const Case& c : cases) {
    const auto el = graph::make_family(c.family, c.n, 1);
    SpanningForestParams p;
    p.seed = c.seed;
    p.prepare_max_phases = 0;  // the sampled PREPARE would solve these alone
    for (int threads : {1, 4}) {
      util::set_parallelism(threads);
      const auto sf = theorem2_sf(el, p);
      expect_valid_forest(el, sf, c.family);
      std::uint64_t h = 1469598103934665603ULL;
      for (std::uint64_t e : sf.forest_edges) {
        h ^= e;
        h *= 1099511628211ULL;
      }
      EXPECT_EQ(h, c.fingerprint) << c.family << ":" << c.n << " seed "
                                  << c.seed << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace logcc::core
