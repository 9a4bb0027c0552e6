#include "core/vote.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"

namespace logcc::core {
namespace {

struct VoteHarness {
  VoteHarness(const graph::EdgeList& el, ExpandParams p)
      : arcs(arcs_from_input(el)), ongoing(el.n, 1) {
    drop_loops(arcs);
    engine.run(ongoing, arcs, p, stats);
  }
  std::vector<Arc> arcs;
  std::vector<std::uint8_t> ongoing;
  RunStats stats;
  ExpandEngine engine;
};

ExpandParams generous(std::uint64_t n) {
  ExpandParams p;
  p.block_count = 64 * n + 7;
  p.table_capacity = static_cast<std::uint32_t>(16 * n + 3);
  p.seed = 777;
  p.max_rounds = 32;
  return p;
}

TEST(Vote, LiveComponentsElectExactlyTheMinId) {
  auto el = graph::disjoint_union({graph::make_path(9), graph::make_cycle(7)});
  VoteHarness h(el, generous(el.n));
  VoteParams vp;
  vp.dormant_leader_prob = 0.5;
  vp.seed = 3;
  RunStats stats;
  std::vector<std::uint8_t> leader;
  vote(h.engine, vp, stats, leader);
  // All vertices are live here; leaders must be vertex 0 (first path) and
  // vertex 9 (min of the cycle's id range), nothing else.
  for (std::uint32_t s = 0; s < h.engine.num_slots(); ++s) {
    VertexId v = h.engine.vertex_of(s);
    EXPECT_EQ(leader[s] == 1, v == 0 || v == 9) << "vertex " << v;
  }
}

TEST(Vote, DormantLeaderRateMatchesProbability) {
  // Make everyone fully dormant (no blocks): election is a pure Bernoulli.
  // Table capacity plays no part then, so keep the slab small (generous
  // capacity here would be 4000 tables of 64003 cells, a 2 GB slab).
  auto el = graph::make_path(4000);
  ExpandParams p = generous(el.n);
  p.block_count = 1;
  p.table_capacity = 8;
  VoteHarness h(el, p);
  VoteParams vp;
  vp.dormant_leader_prob = 0.25;
  vp.seed = 99;
  RunStats stats;
  std::vector<std::uint8_t> leader;
  vote(h.engine, vp, stats, leader);
  double rate =
      static_cast<double>(std::count(leader.begin(), leader.end(), 1)) /
      static_cast<double>(leader.size());
  EXPECT_NEAR(rate, 0.25, 0.03);
}

TEST(Vote, DormantZeroProbabilityElectsNobody) {
  auto el = graph::make_path(64);
  ExpandParams p = generous(el.n);
  p.block_count = 1;
  VoteHarness h(el, p);
  VoteParams vp;
  vp.dormant_leader_prob = 0.0;
  vp.seed = 5;
  RunStats stats;
  std::vector<std::uint8_t> leader;
  vote(h.engine, vp, stats, leader);
  EXPECT_EQ(std::count(leader.begin(), leader.end(), 1), 0);
}

TEST(Vote, DeterministicForSeed) {
  auto el = graph::make_gnm(128, 256, 6);
  ExpandParams p = generous(el.n);
  p.table_capacity = 4;  // mix of live and dormant
  VoteHarness h(el, p);
  VoteParams vp;
  vp.dormant_leader_prob = 0.3;
  vp.seed = 42;
  RunStats s1, s2;
  std::vector<std::uint8_t> l1, l2;
  vote(h.engine, vp, s1, l1);
  vote(h.engine, vp, s2, l2);
  EXPECT_EQ(l1, l2);
}

// ---- Determinism contract: the fused map + min vote pass yields the same
// leader vector for every thread count (mirrors tests/test_scan.cpp).

using logcc::testing::ThreadInvariance;

TEST_F(ThreadInvariance, LeaderVectorIdenticalAcrossThreads) {
  // Build the engine once (its own invariance is covered in
  // tests/test_expand.cpp), then sweep only the vote kernel. Tight tables
  // give a live / dormant mix so both branches run at scale.
  auto el = graph::make_gnm(20000, 60000, 13);
  ExpandParams p;
  p.block_count = 4 * el.n + 7;
  p.table_capacity = 8;
  p.seed = 1234;
  p.max_rounds = 40;
  VoteHarness h(el, p);
  VoteParams vp;
  vp.dormant_leader_prob = 0.3;
  vp.seed = 71;
  util::set_parallelism(1);
  RunStats s1;
  std::vector<std::uint8_t> one;
  vote(h.engine, vp, s1, one);
  for (int threads : {2, 8}) {
    util::set_parallelism(threads);
    RunStats sn;
    std::vector<std::uint8_t> many(3, 1);  // stale contents get overwritten
    vote(h.engine, vp, sn, many);
    EXPECT_EQ(one, many) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace logcc::core
