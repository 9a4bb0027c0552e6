#include "core/building_blocks.hpp"

#include <gtest/gtest.h>

#include "core/vanilla.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"
#include "util/radix.hpp"
#include "util/random.hpp"

namespace logcc::core {
namespace {

// The arc kernels are one template body per index width; every case below
// runs at both widths.
using Widths = ::testing::Types<VertexId, VertexId64>;

template <typename V>
class Arcs : public ::testing::Test {};
template <typename V>
class Alter : public ::testing::Test {};
template <typename V>
class DropLoops : public ::testing::Test {};
template <typename V>
class DedupArcs : public ::testing::Test {};
template <typename V>
class HasNonloop : public ::testing::Test {};
TYPED_TEST_SUITE(Arcs, Widths);
TYPED_TEST_SUITE(Alter, Widths);
TYPED_TEST_SUITE(DropLoops, Widths);
TYPED_TEST_SUITE(DedupArcs, Widths);
TYPED_TEST_SUITE(HasNonloop, Widths);

TYPED_TEST(Arcs, FromEdgesKeepsOriginalIndex) {
  graph::BasicEdgeList<TypeParam> el;
  el.n = 4;
  el.add(0, 1);
  el.add(2, 3);
  auto arcs = arcs_from_input(el);
  ASSERT_EQ(arcs.size(), 2u);
  EXPECT_EQ(arcs[0].orig, 0u);
  EXPECT_EQ(arcs[1].orig, 1u);
}

TYPED_TEST(Alter, ReplacesEndpointsByParents) {
  graph::BasicEdgeList<TypeParam> el;
  el.n = 4;
  el.add(0, 1);
  el.add(1, 3);
  auto arcs = arcs_from_input(el);
  BasicParentForest<TypeParam> f(4);
  f.set_parent(1, 0);
  f.set_parent(3, 2);
  alter(arcs, f);
  EXPECT_EQ(arcs[0].u, 0u);
  EXPECT_EQ(arcs[0].v, 0u);  // loop now
  EXPECT_EQ(arcs[1].u, 0u);
  EXPECT_EQ(arcs[1].v, 2u);
  EXPECT_EQ(arcs[1].orig, 1u);  // orig preserved
}

TYPED_TEST(DropLoops, RemovesOnlyLoops) {
  std::vector<BasicArc<TypeParam>> arcs{{0, 0, 0}, {0, 1, 1}, {2, 2, 2}};
  EXPECT_EQ(drop_loops(arcs), 2u);
  ASSERT_EQ(arcs.size(), 1u);
  EXPECT_EQ(arcs[0].orig, 1u);
}

TYPED_TEST(DedupArcs, MergesUndirectedDuplicates) {
  std::vector<BasicArc<TypeParam>> arcs{{1, 0, 5}, {0, 1, 7}, {2, 3, 1}};
  dedup_arcs(arcs);
  ASSERT_EQ(arcs.size(), 2u);
  EXPECT_EQ(arcs[0].u, 0u);
  EXPECT_EQ(arcs[0].v, 1u);
  EXPECT_EQ(arcs[0].orig, 5u);  // the minimum orig of the pair survives
}

TYPED_TEST(HasNonloop, Detects) {
  std::vector<BasicArc<TypeParam>> loops{{0, 0, 0}, {3, 3, 1}};
  EXPECT_FALSE(has_nonloop(loops));
  loops.push_back({0, 1, 2});
  EXPECT_TRUE(has_nonloop(loops));
  EXPECT_FALSE(has_nonloop(std::vector<BasicArc<TypeParam>>{}));
}

TEST(DedupArcs, RadixAndComparisonBucketsKeepTheSameSurvivors) {
  // Large enough for the bucketed path; the bucket count is n / kSerialGrain
  // rounded to a power of two, so buckets average kSerialGrain arcs — far
  // past kRadixSortCutoff. Narrow buckets then take the radix sort and wide
  // ones the comparison sort; the survivor sequence must be identical.
  constexpr std::size_t kArcs = 8 * util::kSerialGrain;
  static_assert(kArcs >= 4 * util::kSerialGrain);
  static_assert(util::kSerialGrain > 2 * util::kRadixSortCutoff);
  std::vector<Arc> narrow(kArcs);
  std::vector<Arc64> wide(kArcs);
  for (std::size_t i = 0; i < kArcs; ++i) {
    // ~5000 distinct pairs in both orientations, each repeated several
    // times under a permuted orig, so the min-orig survivor choice matters.
    const auto u = static_cast<VertexId>(util::mix64(7, i, 0) % 100);
    const auto v = static_cast<VertexId>(util::mix64(7, i, 1) % 100);
    const auto orig = static_cast<std::uint32_t>((i * 7919) % kArcs);
    narrow[i] = {u, v, orig};
    wide[i] = {u, v, orig};
  }
  dedup_arcs(narrow);
  dedup_arcs(wide);
  ASSERT_LT(narrow.size(), kArcs / 4);
  ASSERT_EQ(narrow.size(), wide.size());
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    ASSERT_EQ(wide[i].u, narrow[i].u) << "at " << i;
    ASSERT_EQ(wide[i].v, narrow[i].v) << "at " << i;
    ASSERT_EQ(wide[i].orig, narrow[i].orig) << "at " << i;
  }
}

TEST(DeterministicContract, SolvesZoo) {
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    ParentForest f(el.n);
    auto arcs = arcs_from_input(el);
    RunStats stats;
    deterministic_contract(f, arcs, stats);
    f.flatten();
    EXPECT_TRUE(logcc::testing::matches_oracle(el, f.root_labels())) << name;
  }
}

TEST(DeterministicContract, LogRounds) {
  auto el = graph::make_path(1024);
  ParentForest f(el.n);
  auto arcs = arcs_from_input(el);
  RunStats stats;
  std::uint64_t rounds = deterministic_contract(f, arcs, stats);
  EXPECT_LE(rounds, 2 * 10 + 4u);  // ~2 log2(1024)
}

TEST(DeterministicContract, ResumesFromPartialForest) {
  // Pre-link half the path, then contract the rest.
  auto el = graph::make_path(40);
  ParentForest f(el.n);
  for (VertexId v = 1; v < 20; ++v) f.set_parent(v, 0);
  auto arcs = arcs_from_input(el);
  RunStats stats;
  deterministic_contract(f, arcs, stats);
  f.flatten();
  EXPECT_TRUE(logcc::testing::matches_oracle(el, f.root_labels()));
}

TEST(DeterministicContractSf, ProducesValidForest) {
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    ParentForest f(el.n);
    auto arcs = arcs_from_input(el);
    std::vector<std::uint8_t> in_forest(el.edges.size(), 0);
    RunStats stats;
    deterministic_contract_sf(f, arcs, in_forest, stats);
    std::vector<std::uint64_t> edges;
    for (std::uint64_t i = 0; i < in_forest.size(); ++i)
      if (in_forest[i]) edges.push_back(i);
    auto check = graph::validate_spanning_forest(el, edges);
    EXPECT_TRUE(check.ok) << name << ": " << check.error;
  }
}

using logcc::testing::ThreadInvariance;

// mark_ongoing must flag exactly the vertices collect_ongoing lists, and
// count them, on the raw input and after a few Vanilla phases (when only
// some roots are still ongoing), at every thread count.
TEST_F(ThreadInvariance, MarkOngoingFlagsExactlyTheCollectedSet) {
  auto corpus = logcc::testing::small_zoo();
  corpus.emplace_back("gnm30000", graph::make_gnm(30000, 90000, 11));
  corpus.emplace_back("rmat2^15", graph::make_rmat(15, 200000, 5));
  corpus.emplace_back("path40000", graph::make_path(40000));
  for (const auto& [name, el] : corpus) {
    for (std::uint64_t phases : {0u, 3u}) {
      ParentForest f(el.n);
      auto arcs = arcs_from_input(el);  // self-loops stay: neither counts them
      if (phases > 0) {
        RunStats stats;
        VanillaOptions opt;
        opt.seed = 9;
        opt.max_phases = phases;
        vanilla_phases(f, arcs, opt, stats);
      }
      for (int threads : {1, 2, 4, 8}) {
        util::set_parallelism(threads);
        std::vector<std::uint64_t> first_seen;
        std::vector<VertexId> ongoing;
        collect_ongoing(f, arcs, first_seen, ongoing);
        std::vector<std::uint8_t> expect(el.n, 0);
        for (VertexId v : ongoing) expect[v] = 1;
        std::vector<std::uint8_t> flags(3, 1);  // stale contents get reset
        const std::uint64_t k = mark_ongoing(el.n, arcs, flags);
        EXPECT_EQ(flags, expect) << name << " after " << phases
                                 << " phases, threads=" << threads;
        EXPECT_EQ(k, ongoing.size()) << name << " after " << phases
                                     << " phases, threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace logcc::core
