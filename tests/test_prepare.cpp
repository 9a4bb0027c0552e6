// The one ingest + PREPARE entry (core/prepare.hpp): its off switch is the
// old ingest exactly, its sample and survivors do not depend on the input
// path or the thread count, and a capped sample still yields the right
// partition.
#include "core/prepare.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "baselines/union_find.hpp"
#include "core/round_arena.hpp"
#include "graph/binary_io.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"

namespace logcc::core {
namespace {

using logcc::testing::ThreadInvariance;

struct Outcome {
  ParentForest forest;
  Prepared out;
  RunStats stats;
  std::vector<std::uint8_t> in_forest;
};

Outcome run_prepare(const graph::ArcsInput& in, std::uint64_t max_phases,
                double target = 64.0) {
  RoundArena arena;
  RoundArena::Scope scope(arena);
  Outcome r;
  r.in_forest.assign(in.num_edges(), 0);
  r.out = prepare(in, r.forest, target, max_phases, 3, 0xAA00, r.stats,
                  &r.in_forest);
  return r;
}

/// A graph of every family plus the sample-missing spine.
std::vector<std::pair<std::string, graph::EdgeList>> corpus(
    std::uint64_t n = 3000) {
  std::vector<std::pair<std::string, graph::EdgeList>> out;
  for (const std::string& f : graph::family_names())
    out.emplace_back(f, graph::make_family(f, n, 5));
  out.emplace_back("hidden-spine", logcc::testing::hidden_spine(n / 6));
  for (auto& [name, el] : logcc::testing::small_zoo())
    out.emplace_back("zoo/" + name, el);
  return out;
}

/// The canonical edge list of `el`'s CSR, and that CSR: the two input
/// paths that must agree.
struct BothPaths {
  graph::Graph g;
  graph::EdgeList canon;
  explicit BothPaths(const graph::EdgeList& el)
      : g(graph::Graph::from_edges(el, /*dedup=*/false)),
        canon(graph::edge_list_from_csr(graph::csr_view(g))) {}
  graph::ArcsInput csr() const {
    return graph::ArcsInput::from_csr(graph::csr_view(g));
  }
};

TEST(Prepare, OffSwitchIsTheOldIngestExactly) {
  for (const auto& [name, el] : corpus()) {
    const BothPaths paths(el);
    for (const graph::ArcsInput& in :
         {graph::ArcsInput(el), graph::ArcsInput(paths.canon), paths.csr()}) {
      RoundArena arena;
      RoundArena::Scope scope(arena);
      std::vector<Arc> want = arcs_from_input(in);
      drop_loops(want);
      dedup_arcs(want);
      const Outcome r = run_prepare(in, 0);
      EXPECT_EQ(r.out.arcs, want) << name;
      EXPECT_EQ(r.out.m0, std::max<std::uint64_t>(want.size(), 1)) << name;
      EXPECT_EQ(r.stats.prepare_phases, 0u) << name;
      EXPECT_FALSE(r.stats.prepare_used) << name;
      for (std::uint64_t v = 0; v < el.n; ++v)
        ASSERT_EQ(r.forest.parent(static_cast<VertexId>(v)), v) << name;
    }
  }
}

TEST(Prepare, DenseInputSkipsTheSample) {
  // 496 edges on 32 vertices meet a density target of 8 from the start:
  // PREPARE is the old ingest plus Vanilla's own density check.
  const auto el = graph::make_complete(32);
  const Outcome r = run_prepare(el, kAutoPreparePhases, 8.0);
  std::vector<Arc> want = arcs_from_input(el);
  drop_loops(want);
  dedup_arcs(want);
  EXPECT_EQ(r.out.arcs, want);
  EXPECT_EQ(r.stats.prepare_phases, 0u);
}

// The sample brute-forced: each vertex's smallest and largest non-self
// neighbour, with the smallest edge index among that edge's copies.
TEST(Prepare, SampleIsEachVertexsExtremeNeighbours) {
  for (const auto& [name, el] : corpus()) {
    const std::vector<Arc> sample = neighbour_sample(el);
    std::vector<VertexId> lo(el.n, graph::kInvalidVertex), hi(el.n, 0);
    std::vector<bool> any(el.n, false);
    for (const graph::Edge& e : el.edges) {
      if (e.u == e.v) continue;
      for (auto [a, b] : {std::pair{e.u, e.v}, std::pair{e.v, e.u}}) {
        lo[a] = std::min(lo[a], b);
        hi[a] = std::max(hi[a], b);
        any[a] = true;
      }
    }
    std::map<std::pair<VertexId, VertexId>, std::uint32_t> first_copy;
    for (std::uint32_t i = 0; i < el.edges.size(); ++i) {
      const graph::Edge& e = el.edges[i];
      first_copy.try_emplace({std::min(e.u, e.v), std::max(e.u, e.v)}, i);
    }
    std::vector<Arc> want;
    for (VertexId v = 0; v < el.n; ++v) {
      if (!any[v]) continue;
      std::vector<VertexId> picks{lo[v]};
      if (hi[v] != lo[v]) picks.push_back(hi[v]);
      for (VertexId w : picks) {
        // An edge both endpoints picked comes from the smaller one.
        if (w < v && (lo[w] == v || hi[w] == v)) continue;
        want.push_back({v, w, first_copy.at({std::min(v, w), std::max(v, w)})});
      }
    }
    EXPECT_EQ(sample, want) << name;
  }
}

TEST(Prepare, CsrAndEdgeListGiveTheSameSampleAndSurvivors) {
  for (const auto& [name, el] : corpus()) {
    const BothPaths paths(el);
    EXPECT_EQ(neighbour_sample(paths.csr()), neighbour_sample(paths.canon))
        << name;
    for (std::uint64_t max_phases : {kAutoPreparePhases, std::uint64_t{1}}) {
      const Outcome a = run_prepare(paths.csr(), max_phases);
      const Outcome b = run_prepare(paths.canon, max_phases);
      EXPECT_EQ(a.out.arcs, b.out.arcs) << name;
      EXPECT_EQ(a.out.m0, b.out.m0) << name;
      EXPECT_EQ(a.forest.raw(), b.forest.raw()) << name;
      EXPECT_EQ(a.in_forest, b.in_forest) << name;
      EXPECT_EQ(a.stats.prepare_phases, b.stats.prepare_phases) << name;
    }
  }
}

TEST(Prepare, CappedSampleStillGivesThePartition) {
  // The spine survives the sample whatever the budget; gnm2 needs more
  // than one sample round. Either way the forest plus the survivors must
  // span exactly the input's components, and the hooks must be a forest.
  for (const auto& [name, el] :
       {std::pair{std::string("hidden-spine"),
                  logcc::testing::hidden_spine(300)},
        std::pair{std::string("gnm2"), graph::make_family("gnm2", 4000, 2)}}) {
    const Outcome r = run_prepare(el, 1);
    EXPECT_EQ(r.stats.prepare_phases, 1u) << name;
    EXPECT_FALSE(r.out.arcs.empty()) << name;
    graph::EdgeList rest;
    rest.n = el.n;
    for (VertexId v = 0; v < el.n; ++v)
      if (r.forest.parent(v) != v) rest.add(v, r.forest.parent(v));
    for (const Arc& a : r.out.arcs) {
      ASSERT_TRUE(r.forest.is_root(a.u) && r.forest.is_root(a.v)) << name;
      ASSERT_NE(a.u, a.v) << name;
      rest.add(a.u, a.v);
    }
    EXPECT_EQ(baselines::union_find_cc(rest).labels,
              baselines::union_find_cc(el).labels)
        << name;
    std::vector<std::uint64_t> marked;
    for (std::uint64_t i = 0; i < r.in_forest.size(); ++i)
      if (r.in_forest[i]) marked.push_back(i);
    graph::EdgeList hooks;
    hooks.n = el.n;
    for (std::uint64_t i : marked) hooks.add(el.edges[i].u, el.edges[i].v);
    // Acyclic: as many components as vertices minus edges.
    EXPECT_EQ(graph::count_components(baselines::union_find_cc(hooks).labels),
              el.n - marked.size())
        << name;
  }
}

TEST_F(ThreadInvariance, PrepareIsThreadInvariant) {
  // Large enough that the parallel steps really split across threads.
  for (const auto& [name, el] : corpus(30000)) {
    const BothPaths paths(el);
    util::set_parallelism(1);
    const Outcome one = run_prepare(paths.csr(), kAutoPreparePhases);
    util::set_parallelism(4);
    const Outcome four = run_prepare(paths.csr(), kAutoPreparePhases);
    EXPECT_EQ(one.out.arcs, four.out.arcs) << name;
    EXPECT_EQ(one.forest.raw(), four.forest.raw()) << name;
    EXPECT_EQ(one.in_forest, four.in_forest) << name;
    EXPECT_EQ(one.stats.prepare_phases, four.stats.prepare_phases) << name;
  }
}

}  // namespace
}  // namespace logcc::core
