// Failure injection: the randomized machinery must stay *correct* (never
// just fast) under adversarial parameters — zero leader probability, tiny
// tables, starved round budgets, capacity-1 hash ranges.
#include <gtest/gtest.h>

#include "core/connectivity.hpp"
#include "core/expand.hpp"
#include "core/faster_cc.hpp"
#include "core/vanilla.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"

namespace logcc {
namespace {

using logcc::testing::matches_oracle;

TEST(FailureInjection, Theorem1WithHostileSizing) {
  // Tables of capacity 2 and a single block: everything goes dormant
  // immediately, every phase degenerates — the driver must still finish
  // correctly via its guards.
  core::Theorem1Params p;
  p.min_table_capacity = 2;
  p.table_exp = 0.0;   // capacity stuck at the minimum
  p.block_exp = 0.0;   // block size ~1
  p.max_phases = 4;
  auto el = graph::make_gnm(150, 400, 3);
  auto r = core::theorem1_cc(el, p);
  EXPECT_TRUE(matches_oracle(el, r.labels));
}

TEST(FailureInjection, Theorem1ZeroPhases) {
  core::Theorem1Params p;
  p.max_phases = 0;  // 0 means auto — force the explicit tiny budget instead
  p.max_phases = 1;
  p.prepare_max_phases = 0;
  auto el = graph::make_grid(15, 15);
  auto r = core::theorem1_cc(el, p);
  EXPECT_TRUE(matches_oracle(el, r.labels));
}

TEST(FailureInjection, FasterCcNoPrepareNoRounds) {
  core::FasterCcParams p;
  p.prepare_max_phases = 0;
  p.max_rounds = 1;
  auto el = graph::make_path(200);
  auto r = core::faster_cc(el, p);
  EXPECT_TRUE(matches_oracle(el, r.labels));
  EXPECT_TRUE(r.stats.finisher_used || r.stats.phases > 0);
}

TEST(FailureInjection, ExpandWithCapacityTwoTables) {
  // Everything collides; every vertex must end dormant-or-live with tables
  // in a consistent state, never out-of-bounds.
  auto el = graph::make_complete(24);
  core::ExpandParams p;
  p.block_count = 24 * 50;
  p.table_capacity = 2;
  p.seed = 1;
  p.max_rounds = 8;
  const std::vector<std::uint8_t> ongoing(el.n, 1);
  auto arcs = core::arcs_from_input(el);
  core::RunStats stats;
  core::ExpandEngine engine;
  engine.run(ongoing, arcs, p, stats);
  for (std::uint32_t s = 0; s < engine.num_slots(); ++s)
    EXPECT_LE(engine.table(s).count(), 2u);
  EXPECT_GT(stats.hash_collisions, 0u);
}

TEST(FailureInjection, VanillaUnluckySeedsStillTerminate) {
  // Any seed must terminate (the convergence guard would abort otherwise).
  auto el = graph::make_path(128);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    auto r = core::vanilla_cc(el, seed);
    EXPECT_TRUE(matches_oracle(el, r.labels)) << seed;
  }
}

TEST(FailureInjection, SingleVertexAndEmptyGraphs) {
  for (auto alg : all_algorithms()) {
    graph::EdgeList empty;
    empty.n = 0;
    auto r0 = connected_components(empty, alg);
    EXPECT_TRUE(r0.labels().empty()) << to_string(alg);
    EXPECT_EQ(r0.num_components(), 0u) << to_string(alg);

    graph::EdgeList one;
    one.n = 1;
    auto r1 = connected_components(one, alg);
    ASSERT_EQ(r1.labels().size(), 1u) << to_string(alg);
    EXPECT_EQ(r1.num_components(), 1u) << to_string(alg);
  }
}

TEST(FailureInjection, AllSelfLoops) {
  graph::EdgeList el;
  el.n = 8;
  for (graph::VertexId v = 0; v < 8; ++v) el.add(v, v);
  const graph::ArcsInput in(el);
  for (auto alg : all_algorithms()) {
    auto r = connected_components(in, alg);
    EXPECT_EQ(r.num_components(), 8u) << to_string(alg);
  }
}

TEST(FailureInjection, HeavyParallelEdges) {
  graph::EdgeList el;
  el.n = 4;
  for (int rep = 0; rep < 50; ++rep) {
    el.add(0, 1);
    el.add(2, 3);
  }
  const graph::ArcsInput in(el);
  for (auto alg : all_algorithms()) {
    auto r = connected_components(in, alg);
    EXPECT_EQ(r.num_components(), 2u) << to_string(alg);
  }
}

TEST(FailureInjection, SfUnderHostileSizing) {
  core::SpanningForestParams p;
  p.min_table_capacity = 2;
  p.table_exp = 0.0;
  p.max_phases = 2;
  auto el = graph::make_gnm(120, 300, 5);
  auto r = core::theorem2_sf(el, p);
  auto check = graph::validate_spanning_forest(el, r.forest_edges);
  EXPECT_TRUE(check.ok) << check.error;
}

}  // namespace
}  // namespace logcc
