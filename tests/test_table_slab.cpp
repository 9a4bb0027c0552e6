// TableSlab — the bucketized, cache-line-aligned backing store behind the
// EXPAND / EXPAND-MAXLINK per-vertex hash tables.
//
// Three layers of coverage:
//   1. the CRCW insert semantics per cell, on a one-table slab;
//   2. a randomized differential test: 10k seeded fill sequences replayed
//      against a first-write-wins cell model, asserting agreement on every
//      Insert outcome, count, collided flag, and final cell image — this
//      is the "collision semantics preserved" guarantee the determinism
//      contract rests on;
//   3. thread-invariance sweeps for the parallel in-bucket radix dedup
//      (core dedup_arcs and the LT ALTER path) at 1/2/4/8 lanes.
#include "core/table_slab.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/building_blocks.hpp"
#include "baselines/lt_family.hpp"
#include "graph/generators.hpp"
#include "test_support.hpp"
#include "util/hashing.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace logcc::core {
namespace {

using logcc::testing::ThreadInvariance;
using Insert = TableSlab::Insert;

// ---- 1. Insert semantics (single-table slab).

TEST(TableSlab, InsertNewAndPresent) {
  TableSlab s;
  s.reset_uniform(1, 4);
  EXPECT_EQ(s.insert_at(0, 2, 7), Insert::kNew);
  EXPECT_EQ(s.count(0), 1u);
  EXPECT_EQ(s.insert_at(0, 2, 7), Insert::kPresent);
  EXPECT_EQ(s.count(0), 1u);
  EXPECT_FALSE(s.collided(0));
}

TEST(TableSlab, CollisionDetected) {
  TableSlab s;
  s.reset_uniform(1, 4);
  s.insert_at(0, 1, 5);
  EXPECT_EQ(s.insert_at(0, 1, 6), Insert::kCollision);
  EXPECT_TRUE(s.collided(0));
  EXPECT_EQ(s.count(0), 1u);  // loser is not stored
}

TEST(TableSlab, CollisionKeepsFirstOccupant) {
  // CRCW semantics in our rendering: the first write wins, later different
  // writes are collisions; re-reading the cell shows the original value.
  TableSlab s;
  s.reset_uniform(1, 2);
  s.insert_at(0, 0, 9);
  s.insert_at(0, 0, 10);
  const std::vector<graph::VertexId> want = {9, graph::kInvalidVertex};
  EXPECT_EQ(s.cells(0), want);
}

TEST(TableSlab, ResetClearsEverything) {
  TableSlab s;
  s.reset_uniform(1, 2);
  s.insert_at(0, 0, 1);
  s.insert_at(0, 0, 2);  // collision
  s.reset_uniform(1, 8);
  EXPECT_EQ(s.capacity(0), 8u);
  EXPECT_EQ(s.count(0), 0u);
  EXPECT_FALSE(s.collided(0));
}

TEST(TableSlab, ItemsAndForEach) {
  TableSlab s;
  s.reset_uniform(1, 8);
  s.insert_at(0, 1, 11);
  s.insert_at(0, 5, 55);
  TableView view(&s, 0);
  auto items = view.items();
  ASSERT_EQ(items.size(), 2u);
  // Cell order.
  EXPECT_EQ(items[0], 11u);
  EXPECT_EQ(items[1], 55u);
  std::uint32_t visits = 0;
  s.for_each(0, [&](graph::VertexId v) {
    EXPECT_TRUE(v == 11 || v == 55);
    ++visits;
  });
  EXPECT_EQ(visits, 2u);
}

TEST(TableSlab, DedupByHashingMatchesPaperClaim) {
  // "Hashing naturally removes the duplicate neighbors": inserting the same
  // vertex many times through a hash function keeps one copy, no collision.
  TableSlab s;
  s.reset_uniform(1, 16);
  auto h = util::PairwiseHash::from_seed(3);
  for (int rep = 0; rep < 10; ++rep) {
    auto cell = static_cast<std::uint32_t>(h(42, s.capacity(0)));
    s.insert_at(0, cell, 42);
  }
  EXPECT_EQ(s.count(0), 1u);
  EXPECT_FALSE(s.collided(0));
}

// ---- Slab layout: epoch resets, mixed capacities, snapshots.

TEST(TableSlab, EpochResetIsLogicallyEmptyWithoutRezero) {
  TableSlab s;
  s.reset_uniform(4, 8);
  for (std::uint32_t t = 0; t < 4; ++t) s.insert_at(t, 3, 100 + t);
  const std::uint64_t allocs = s.slab_allocations();
  s.reset_uniform(4, 8);  // same shape: epoch bump only
  EXPECT_EQ(s.slab_allocations(), allocs) << "same-shape reset must not grow";
  const std::vector<graph::VertexId> empty(8, graph::kInvalidVertex);
  for (std::uint32_t t = 0; t < 4; ++t) {
    EXPECT_EQ(s.count(t), 0u);
    EXPECT_EQ(s.cells(t), empty) << "stale word leaked";
    std::uint32_t visits = 0;
    s.for_each(t, [&](graph::VertexId) { ++visits; });
    EXPECT_EQ(visits, 0u);
  }
  // The emptied table accepts the same fills again.
  EXPECT_EQ(s.insert_at(2, 3, 9), Insert::kNew);
  EXPECT_EQ(s.cells(2)[3], 9u);
}

TEST(TableSlab, VariableCapacitiesIncludingAbsentTables) {
  TableSlab s;
  const std::vector<std::uint32_t> caps = {4, 0, 16, 1, 0, 7};
  s.reset_variable(caps);
  for (std::size_t t = 0; t < caps.size(); ++t) {
    EXPECT_EQ(s.capacity(static_cast<std::uint32_t>(t)), caps[t]);
    EXPECT_EQ(s.count(static_cast<std::uint32_t>(t)), 0u);
  }
  // Absent tables answer every query as empty.
  EXPECT_TRUE(s.cells(1).empty());
  s.insert_at(2, 9, 77);
  s.insert_at(5, 6, 66);
  EXPECT_EQ(s.cells(2)[9], 77u);
  EXPECT_EQ(s.cells(5)[6], 66u);
  EXPECT_EQ(s.count(2), 1u);
  EXPECT_EQ(s.count(5), 1u);
}

TEST(TableSlab, SnapshotIteratesInCellOrder) {
  TableSlab s;
  s.reset_uniform(3, 8);
  s.insert_at(1, 6, 60);
  s.insert_at(1, 2, 20);
  s.insert_at(2, 0, 5);
  std::vector<std::uint64_t> snap;
  s.snapshot_into(snap);
  // Mutate the live table after the snapshot: the snapshot must not move.
  s.insert_at(1, 4, 40);
  std::vector<graph::VertexId> seen;
  s.for_each_in(snap, 1, [&](graph::VertexId v) { seen.push_back(v); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 20u);  // cell order
  EXPECT_EQ(seen[1], 60u);
  seen.clear();
  s.for_each_in(snap, 0, [&](graph::VertexId v) { seen.push_back(v); });
  EXPECT_TRUE(seen.empty());
}

// ---- 2. Randomized differential: slab vs a first-write-wins cell model.
//
// 10k seeded fill sequences over mixed shapes. Every operation's outcome
// must agree with the model — Insert result, running count, collided flag —
// and the final cell images must be identical.

/// §2.2 "Hashing" in its plainest form: one value per cell, the first write
/// wins, an equal write is harmless, a different one is a collision.
struct CellModel {
  explicit CellModel(std::uint32_t cap) : cells(cap, graph::kInvalidVertex) {}
  Insert insert_at(std::uint32_t cell, graph::VertexId w) {
    if (cells[cell] == graph::kInvalidVertex) {
      cells[cell] = w;
      ++count;
      return Insert::kNew;
    }
    if (cells[cell] == w) return Insert::kPresent;
    collided = true;
    return Insert::kCollision;
  }
  std::vector<graph::VertexId> items() const {
    std::vector<graph::VertexId> out;
    for (graph::VertexId w : cells)
      if (w != graph::kInvalidVertex) out.push_back(w);
    return out;
  }
  std::vector<graph::VertexId> cells;
  std::uint32_t count = 0;
  bool collided = false;
};

TEST(TableSlabDifferential, MatchesCellModelOver10kSeededSequences) {
  constexpr int kSequences = 10000;
  for (int seq = 0; seq < kSequences; ++seq) {
    const std::uint64_t seed = util::mix64(0xd1f, seq);
    // Capacity 1..32 exercises sub-line power-of-two strides and multi-line
    // buckets alike.
    const auto cap =
        static_cast<std::uint32_t>(1 + util::mix64(seed, 1) % 32);
    const auto ops = static_cast<std::uint32_t>(1 + util::mix64(seed, 2) % 48);
    CellModel model(cap);
    TableSlab slab;
    slab.reset_uniform(1, cap);
    for (std::uint32_t i = 0; i < ops; ++i) {
      const auto cell =
          static_cast<std::uint32_t>(util::mix64(seed, 3 + 2 * i) % cap);
      // Small vertex range so kPresent and kCollision both occur often.
      const auto w = static_cast<graph::VertexId>(
          util::mix64(seed, 4 + 2 * i) % (cap + 3));
      ASSERT_EQ(slab.insert_at(0, cell, w), model.insert_at(cell, w))
          << "seq " << seq << " op " << i;
      ASSERT_EQ(slab.count(0), model.count) << "seq " << seq << " op " << i;
      ASSERT_EQ(slab.collided(0), model.collided)
          << "seq " << seq << " op " << i;
    }
    ASSERT_EQ(slab.cells(0), model.cells) << "seq " << seq;
    ASSERT_EQ(TableView(&slab, 0).items(), model.items()) << "seq " << seq;
  }
}

// ---- 3. Thread-invariance sweeps for the parallel in-bucket radix sort.
//
// dedup_arcs (core bucketed path) and the LT-family ALTER dedup both pick
// comparison vs radix per bucket by size alone; the sweeps assert the
// output is byte-identical at 1/2/4/8 lanes.

std::vector<Arc> make_dup_heavy_arcs(std::uint64_t n, std::uint64_t seed) {
  // 6n arcs over n vertices with forced duplicates and varied orig ids —
  // large enough for the bucketed path and for many buckets to cross
  // kRadixSortCutoff.
  auto el = graph::make_gnm(n, 2 * n, seed);
  auto half = arcs_from_input(el);
  std::vector<Arc> arcs = half;
  arcs.insert(arcs.end(), half.rbegin(), half.rend());
  arcs.insert(arcs.end(), half.begin(), half.end());
  return arcs;
}

TEST_F(ThreadInvariance, DedupRadixThreadInvariant) {
  const auto base = make_dup_heavy_arcs(1 << 15, 11);
  auto reference = base;
  util::set_parallelism(1);
  dedup_arcs(reference);
  ASSERT_FALSE(reference.empty());
  for (int threads : {2, 4, 8}) {
    util::set_parallelism(threads);
    auto arcs = base;
    dedup_arcs(arcs);
    ASSERT_EQ(arcs.size(), reference.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      ASSERT_EQ(arcs[i].u, reference[i].u)
          << "threads=" << threads << " i=" << i;
      ASSERT_EQ(arcs[i].v, reference[i].v)
          << "threads=" << threads << " i=" << i;
      ASSERT_EQ(arcs[i].orig, reference[i].orig)
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST_F(ThreadInvariance, LtAlterDedupThreadInvariant) {
  // A graph whose ALTER rounds produce edge lists above the bucketed-dedup
  // cutoff, so the radix path engages. Labels must be bit-identical at
  // every thread count.
  const auto el = graph::make_gnm(1 << 14, 1 << 16, 23);
  const baselines::LtVariant variant{baselines::LtConnect::kExtended,
                                     baselines::LtShortcut::kSingle, true};
  util::set_parallelism(1);
  const auto reference = baselines::liu_tarjan_variant(el, variant).labels;
  ASSERT_TRUE(logcc::testing::matches_oracle(el, reference));
  for (int threads : {2, 4, 8}) {
    util::set_parallelism(threads);
    ASSERT_EQ(baselines::liu_tarjan_variant(el, variant).labels, reference)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace logcc::core
