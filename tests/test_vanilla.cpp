#include "core/vanilla.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"
#include "util/bitutil.hpp"
#include "util/random.hpp"

namespace logcc::core {
namespace {

using logcc::testing::matches_oracle;

TEST(Vanilla, Zoo) {
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    auto r = vanilla_cc(el, 5);
    EXPECT_TRUE(matches_oracle(el, r.labels)) << name;
  }
}

TEST(Vanilla, DifferentSeedsSamePartition) {
  auto el = graph::make_gnm(150, 400, 8);
  auto a = vanilla_cc(el, 1);
  auto b = vanilla_cc(el, 424242);
  EXPECT_TRUE(graph::same_partition(a.labels, b.labels));
}

TEST(Vanilla, LogNPhases) {
  auto el = graph::make_path(2048);
  auto r = vanilla_cc(el, 3);
  // Reif: O(log n) phases w.h.p. log2(2048) = 11; allow 4x.
  EXPECT_LE(r.stats.phases, 44u);
  EXPECT_GE(r.stats.phases, 5u);
}

TEST(Vanilla, PhasesIndependentOfDiameterShape) {
  // Vanilla is Θ(log n) regardless of d — the contrast Theorem 3 beats.
  auto low_d = vanilla_cc(graph::make_star(4096), 7);
  auto high_d = vanilla_cc(graph::make_path(4096), 7);
  // Both in the same Θ(log n) ballpark (allow generous slack).
  EXPECT_LE(low_d.stats.phases * 6, high_d.stats.phases * 10 + 60);
  EXPECT_LE(high_d.stats.phases, 50u);
}

TEST(Vanilla, MaxPhasesRespected) {
  auto el = graph::make_path(512);
  ParentForest f(el.n);
  auto arcs = arcs_from_input(el);
  RunStats stats;
  VanillaOptions opt;
  opt.seed = 3;
  opt.max_phases = 2;
  std::uint64_t ran = vanilla_phases(f, arcs, opt, stats);
  EXPECT_LE(ran, 2u);
  EXPECT_EQ(stats.phases, ran);
  EXPECT_TRUE(f.acyclic());
}

TEST(Vanilla, TreesFlatBetweenPhases) {
  auto el = graph::make_gnm(100, 240, 13);
  ParentForest f(el.n);
  auto arcs = arcs_from_input(el);
  RunStats stats;
  VanillaOptions opt;
  opt.seed = 5;
  opt.max_phases = 1;
  for (int phase = 0; phase < 8; ++phase) {
    vanilla_phases(f, arcs, opt, stats);
    EXPECT_TRUE(f.all_flat()) << "phase " << phase;
    EXPECT_TRUE(f.acyclic());
  }
}

TEST(Vanilla, MonotoneNoSplit) {
  // Monotonicity (§2.1): partitions only coarsen over phases.
  auto el = graph::make_gnm(80, 200, 21);
  ParentForest f(el.n);
  auto arcs = arcs_from_input(el);
  RunStats stats;
  VanillaOptions opt;
  opt.seed = 9;
  opt.max_phases = 1;
  std::vector<VertexId> prev = f.root_labels();
  for (int phase = 0; phase < 10; ++phase) {
    vanilla_phases(f, arcs, opt, stats);
    std::vector<VertexId> cur = f.root_labels();
    // Every pair together before must stay together.
    for (std::uint64_t v = 0; v < el.n; ++v)
      for (std::uint64_t w = v + 1; w < el.n; ++w)
        if (prev[v] == prev[w]) {
          EXPECT_EQ(cur[v], cur[w]);
        }
    prev = std::move(cur);
  }
}

TEST(VanillaSf, ForestValidOnZoo) {
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    auto r = vanilla_sf(el, 17);
    auto check = graph::validate_spanning_forest(el, r.forest_edges);
    EXPECT_TRUE(check.ok) << name << ": " << check.error;
  }
}

TEST(VanillaSf, ForestSizeMatchesComponents) {
  auto el = graph::disjoint_union(
      {graph::make_cycle(20), graph::make_gnm(50, 120, 3)});
  auto r = vanilla_sf(el, 23);
  auto oracle = logcc::testing::oracle_labels(el);
  EXPECT_EQ(r.forest_edges.size(), el.n - graph::count_components(oracle));
}

TEST(VanillaSf, MarksOnlyInputEdges) {
  auto el = graph::make_gnm(60, 150, 31);
  auto r = vanilla_sf(el, 29);
  for (std::uint64_t idx : r.forest_edges) EXPECT_LT(idx, el.edges.size());
}

// ---- vanilla_prepare: the one PREPARE loop of Theorems 1-3.

std::uint64_t ongoing_count(const graph::EdgeList& el,
                            const std::vector<Arc>& arcs) {
  std::vector<std::uint8_t> flags;
  return mark_ongoing(el.n, arcs, flags);
}

TEST(VanillaPrepare, StopsAtTheFirstPhaseThatReachesTheDensityTarget) {
  auto el = graph::make_path(4096);
  const std::uint64_t m0 = el.edges.size();
  const double target = 16.0;  // m0 / #ongoing >= 16
  ParentForest f(el.n);
  auto arcs = arcs_from_input(el);
  RunStats stats;
  const std::uint64_t ran =
      vanilla_prepare(f, arcs, m0, target, 1000, 3, 0xAA00, stats);
  ASSERT_GT(ran, 0u);
  EXPECT_LT(ran, 1000u);
  EXPECT_GE(static_cast<double>(m0) /
                static_cast<double>(std::max<std::uint64_t>(
                    1, ongoing_count(el, arcs))),
            target);
  // One phase fewer has not reached it yet.
  ParentForest g(el.n);
  auto fewer = arcs_from_input(el);
  RunStats s2;
  EXPECT_EQ(vanilla_prepare(g, fewer, m0, target, ran - 1, 3, 0xAA00, s2),
            ran - 1);
  EXPECT_LT(static_cast<double>(m0) /
                static_cast<double>(ongoing_count(el, fewer)),
            target);
}

TEST(VanillaPrepare, StopsAtMaxPhasesAndReportsThemAsPrepare) {
  auto el = graph::make_path(4096);
  ParentForest f(el.n);
  auto arcs = arcs_from_input(el);
  RunStats stats;
  stats.phases = 5;  // a caller's own phase count must not move
  EXPECT_EQ(vanilla_prepare(f, arcs, el.edges.size(), 1e18, 3, 3, 0xAA00,
                            stats),
            3u);
  EXPECT_EQ(stats.prepare_phases, 3u);
  EXPECT_EQ(stats.phases, 5u);
  EXPECT_TRUE(stats.prepare_used);
  EXPECT_TRUE(f.all_flat());
  EXPECT_TRUE(has_nonloop(arcs));
}

TEST(VanillaPrepare, AutoBudgetIsTwiceLogLogDensityPlusFour) {
  auto el = graph::make_path(1 << 16);
  const std::uint64_t m0 = el.edges.size();
  ParentForest f(el.n);
  auto arcs = arcs_from_input(el);
  RunStats stats;
  const std::uint64_t expect =
      static_cast<std::uint64_t>(2.0 * util::loglog_density(el.n, m0)) + 4;
  EXPECT_EQ(vanilla_prepare(f, arcs, m0, 1e18, kAutoPreparePhases, 3, 0xAA00,
                            stats),
            expect);
  EXPECT_TRUE(has_nonloop(arcs));  // the budget, not the graph, stopped it
}

TEST(VanillaPrepare, NoPhaseOnSolvedGraphOrMetTargetAndThenNotUsed) {
  // Nothing but loops: already solved.
  graph::EdgeList loops;
  loops.n = 4;
  loops.add(1, 1);
  // Already denser than the target: the first check stops it.
  const graph::EdgeList dense = graph::make_complete(16);
  for (const auto& [el, target] :
       {std::pair{loops, 64.0}, std::pair{dense, 4.0}}) {
    ParentForest f(el.n);
    auto arcs = arcs_from_input(el);
    const auto before = arcs;
    RunStats stats;
    EXPECT_EQ(vanilla_prepare(f, arcs, std::max<std::size_t>(arcs.size(), 1),
                              target, kAutoPreparePhases, 3, 0xAA00, stats),
              0u);
    EXPECT_FALSE(stats.prepare_used);
    EXPECT_EQ(stats.prepare_phases, 0u);
    EXPECT_EQ(stats.pram_steps, 0u);
    EXPECT_EQ(arcs.size(), before.size());
    for (std::uint64_t v = 0; v < el.n; ++v)
      EXPECT_TRUE(f.is_root(static_cast<VertexId>(v)));
  }
}

TEST(VanillaPrepare, PhasePDrawsCoinsFromSaltPlusP) {
  auto el = graph::make_gnm(3000, 6000, 4);
  ParentForest f(el.n), g(el.n);
  auto arcs = arcs_from_input(el);
  auto manual = arcs;
  RunStats a, b;
  const std::uint64_t ran =
      vanilla_prepare(f, arcs, arcs.size(), 1e18, 4, 77, 0xC0DE00, a);
  ASSERT_EQ(ran, 4u);
  VanillaOptions opt;
  opt.max_phases = 1;
  for (std::uint64_t p = 0; p < ran; ++p) {
    opt.seed = util::mix64(77, 0xC0DE00 + p);
    vanilla_phases(g, manual, opt, b);
  }
  EXPECT_EQ(f.root_labels(), g.root_labels());
  EXPECT_EQ(arcs.size(), manual.size());
}

TEST(VanillaPrepare, ForestFormMarksAForestOfInputEdgesOneLinkEach) {
  for (const auto& [name, el] :
       {std::pair{std::string("gnm"), graph::make_gnm(2000, 6000, 8)},
        std::pair{std::string("grid"), graph::make_grid(40, 50)},
        std::pair{std::string("rmat"), graph::make_rmat(11, 8000, 2)}}) {
    ParentForest f(el.n), plain(el.n);
    auto arcs = arcs_from_input(el);
    auto plain_arcs = arcs;
    std::vector<std::uint8_t> in_forest(el.edges.size(), 0);
    RunStats stats, plain_stats;
    const std::uint64_t ran = vanilla_prepare(
        f, arcs, arcs.size(), 1e18, 5, 13, 0xF0AE57, stats, &in_forest);
    EXPECT_EQ(ran, 5u) << name;
    // Marking does not change the contraction.
    vanilla_prepare(plain, plain_arcs, plain_arcs.size(), 1e18, 5, 13,
                    0xF0AE57, plain_stats);
    EXPECT_EQ(f.root_labels(), plain.root_labels()) << name;
    // Each marked edge joins two trees of a union-find over the input
    // (so the marked set is acyclic), lies inside one contracted tree,
    // and there is one per link: n minus the number of roots.
    std::vector<std::uint64_t> uf(el.n);
    for (std::uint64_t v = 0; v < el.n; ++v) uf[v] = v;
    auto find = [&](std::uint64_t v) {
      while (uf[v] != v) v = uf[v] = uf[uf[v]];
      return v;
    };
    f.flatten();
    const auto labels = f.root_labels();
    std::uint64_t marked = 0;
    for (std::uint64_t i = 0; i < el.edges.size(); ++i) {
      if (!in_forest[i]) continue;
      ++marked;
      const auto& e = el.edges[i];
      EXPECT_EQ(labels[e.u], labels[e.v]) << name << " edge " << i;
      const std::uint64_t ru = find(e.u), rv = find(e.v);
      EXPECT_NE(ru, rv) << name << ": edge " << i << " closes a cycle";
      uf[ru] = rv;
    }
    std::uint64_t roots = 0;
    for (std::uint64_t v = 0; v < el.n; ++v)
      roots += f.is_root(static_cast<VertexId>(v)) ? 1 : 0;
    EXPECT_EQ(marked, el.n - roots) << name;
  }
}

// The ongoing set handed back is a fresh marking of the returned arcs on
// every exit path, so callers need not mark again.
TEST(VanillaPrepare, HandsBackTheOngoingSetOfItsFinalArcs) {
  enum class Exit { kDensityMet, kBudgetSpent, kSolved, kNoBudget };
  struct Case {
    Exit exit;
    graph::EdgeList el;
    double target;
    std::uint64_t max_phases;
  };
  const Case cases[] = {
      {Exit::kDensityMet, graph::make_path(4096), 16.0, 1000},
      {Exit::kBudgetSpent, graph::make_path(4096), 1e18, 3},
      {Exit::kSolved, graph::make_gnm(300, 900, 2), 1e18, 1000},
      {Exit::kNoBudget, graph::make_gnm(300, 900, 2), 1e18, 0},
  };
  for (const auto& c : cases) {
    const int id = static_cast<int>(c.exit);
    ParentForest f(c.el.n);
    auto arcs = arcs_from_input(c.el);
    const std::uint64_t m0 = arcs.size();
    RunStats stats;
    OngoingSet got;
    got.flags.assign(3, 1);  // stale contents must not survive
    got.count = 99;
    const std::uint64_t ran = vanilla_prepare(
        f, arcs, m0, c.target, c.max_phases, 3, 0xAA00, stats, nullptr, &got);
    std::vector<std::uint8_t> fresh;
    EXPECT_EQ(got.count, mark_ongoing(c.el.n, arcs, fresh)) << id;
    EXPECT_EQ(got.flags, fresh) << id;
    // The case took the exit it names.
    switch (c.exit) {
      case Exit::kDensityMet:
        EXPECT_GT(ran, 0u);
        EXPECT_LT(ran, c.max_phases);
        EXPECT_GT(got.count, 0u);
        EXPECT_GE(static_cast<double>(m0) / static_cast<double>(got.count),
                  c.target);
        break;
      case Exit::kBudgetSpent:
        EXPECT_EQ(ran, c.max_phases);
        EXPECT_GT(got.count, 0u);
        break;
      case Exit::kSolved:
        EXPECT_LT(ran, c.max_phases);
        EXPECT_EQ(got.count, 0u);
        EXPECT_FALSE(has_nonloop(arcs));
        break;
      case Exit::kNoBudget:
        EXPECT_EQ(ran, 0u);
        EXPECT_EQ(arcs.size(), m0);
        EXPECT_GT(got.count, 0u);
        break;
    }
  }
}

}  // namespace
}  // namespace logcc::core
