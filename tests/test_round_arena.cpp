// RoundArena / MonotonicArena: bump-allocation and LIFO rewind semantics,
// reset consolidation, and the headline property — steady-state rounds of
// an arena-backed round loop perform ZERO heap allocations (asserted with a
// global operator-new counter).
#include "core/round_arena.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/building_blocks.hpp"
#include "core/expand.hpp"
#include "core/vanilla.hpp"
#include "graph/generators.hpp"
#include "test_support.hpp"
#include "util/arena.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/scan.hpp"

// ---- Global operator-new counter. Replacing the global allocation
// functions is the one supported way to observe every heap allocation the
// process makes (vectors, gtest internals, pool startup — everything);
// tests below difference the counter around precisely-matched work.
// Both forms allocate with std::malloc directly, so each operator delete's
// std::free visibly pairs with a malloc.
namespace {
std::atomic<std::uint64_t> g_new_calls{0};

void* counted_malloc(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace logcc::core {
namespace {

using logcc::testing::ThreadInvariance;

TEST(MonotonicArena, BumpAllocAndReset) {
  util::MonotonicArena arena(/*first_block_bytes=*/1024);
  auto a = arena.alloc<std::uint64_t>(16);
  auto b = arena.alloc_zero<std::uint32_t>(8);
  ASSERT_EQ(a.size(), 16u);
  ASSERT_EQ(b.size(), 8u);
  for (std::uint32_t x : b) EXPECT_EQ(x, 0u);
  a[0] = 42;  // distinct storage
  EXPECT_EQ(b[0], 0u);
  const std::uint64_t blocks_before = arena.block_allocations();
  arena.reset();
  // Same request sequence after reset: no new blocks.
  auto a2 = arena.alloc<std::uint64_t>(16);
  auto b2 = arena.alloc<std::uint32_t>(8);
  EXPECT_EQ(a2.data(), a.data());
  EXPECT_EQ(static_cast<void*>(b2.data()), static_cast<void*>(b.data()));
  EXPECT_EQ(arena.block_allocations(), blocks_before);
  EXPECT_EQ(arena.resets(), 1u);
}

TEST(MonotonicArena, GrowthConsolidatesOnReset) {
  util::MonotonicArena arena(/*first_block_bytes=*/256);
  // Force multi-block growth.
  arena.alloc<std::uint8_t>(200);
  arena.alloc<std::uint8_t>(4096);
  arena.alloc<std::uint8_t>(20000);
  EXPECT_GE(arena.block_allocations(), 3u);
  arena.reset();
  const std::uint64_t after_consolidation = arena.block_allocations();
  // The same sequence now fits the consolidated block: allocation-free,
  // round after round.
  for (int round = 0; round < 10; ++round) {
    arena.alloc<std::uint8_t>(200);
    arena.alloc<std::uint8_t>(4096);
    arena.alloc<std::uint8_t>(20000);
    arena.reset();
  }
  EXPECT_EQ(arena.block_allocations(), after_consolidation);
  EXPECT_GE(arena.high_water(), 200u + 4096u + 20000u);
}

TEST(MonotonicArena, LifoRewindReusesBytes) {
  util::MonotonicArena arena(1 << 16);
  util::ScratchArenaScope scope(&arena);
  const void* first;
  {
    util::ScratchBuffer<std::uint64_t> buf(100);
    first = buf.data();
  }
  {
    // The previous buffer rewound on destruction: same bytes again.
    util::ScratchBuffer<std::uint64_t> buf(100);
    EXPECT_EQ(buf.data(), first);
  }
}

TEST(MonotonicArena, ScratchBufferFallsBackToHeapWithoutScope) {
  ASSERT_EQ(util::active_scratch_arena(), nullptr);
  util::ScratchBuffer<std::uint64_t> buf(32, /*zeroed=*/true);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0u);
}

TEST(RoundArena, ScopeInstallsOutermostWins) {
  RoundArena outer;
  ASSERT_EQ(util::active_scratch_arena(), nullptr);
  {
    RoundArena::Scope outer_scope(outer);
    EXPECT_TRUE(outer_scope.installed());
    EXPECT_EQ(util::active_scratch_arena(), &outer.arena());
    RoundArena inner;
    {
      RoundArena::Scope inner_scope(inner);
      EXPECT_FALSE(inner_scope.installed());
      // The outer arena stays active: one arena per run, not per layer.
      EXPECT_EQ(util::active_scratch_arena(), &outer.arena());
    }
    EXPECT_EQ(util::active_scratch_arena(), &outer.arena());
  }
  EXPECT_EQ(util::active_scratch_arena(), nullptr);
}

// ---- The zero-allocation property. Two identical Vanilla runs on the same
// graph, one stopped after 3 warm-up phases and one run to completion: if
// every steady-state phase (4, 5, ...) allocates nothing, both runs make
// exactly the same number of operator-new calls — the long run's extra
// phases are free. The graph is large enough (arcs >= 4*kSerialGrain) that
// every parallel path engages: blocked vote/mark/link, arena-staged pack,
// bucketed dedup, fused shortcut.
TEST_F(ThreadInvariance, VanillaSteadyStatePhasesAllocateNothing) {
  util::set_parallelism(4);
  const auto el = graph::make_path(40000);

  auto run_phases_counting = [&](std::uint64_t max_phases,
                                 RunStats& stats) -> std::uint64_t {
    // Everything inside the window is identical across calls up to
    // max_phases — same graph, same seed, same width, pool already warm.
    const std::uint64_t before = g_new_calls.load();
    RoundArena arena;
    RoundArena::Scope scope(arena);
    ParentForest forest(el.n);
    std::vector<Arc> arcs = arcs_from_input(el);
    drop_loops(arcs);
    VanillaOptions opt;
    opt.seed = 7;
    opt.max_phases = max_phases;
    vanilla_phases(forest, arcs, opt, stats);
    return g_new_calls.load() - before;
  };

  // Warm the pool (worker startup allocates) and every lane's arena (the
  // per-lane arenas of util/arena.hpp grow to their high-water demand on
  // first touch) outside the counted windows. Work stealing decides which
  // lane sees the peak chunk, so a single warm-up run may leave a lane
  // cold — run full passes until the allocation count stabilizes.
  RunStats warm_stats;
  std::uint64_t prev_allocs = run_phases_counting(0, warm_stats);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t cur = run_phases_counting(0, warm_stats);
    if (cur == prev_allocs) break;
    prev_allocs = cur;
  }

  RunStats full_stats;
  const std::uint64_t full_allocs = run_phases_counting(0, full_stats);
  RunStats short_stats;
  const std::uint64_t short_allocs = run_phases_counting(3, short_stats);

  ASSERT_GT(full_stats.phases, 6u) << "graph too easy to exercise steady state";
  ASSERT_EQ(short_stats.phases, 3u);
  EXPECT_EQ(full_allocs, short_allocs)
      << "phases 4.." << full_stats.phases
      << " allocated: steady-state rounds must be allocation-free";
}

// The bucketized table fills: an ExpandEngine reused across runs keeps its
// whole table slab, its slot map and every round's doubling snapshot in
// retained memory, and every kernel temporary comes from the round arena —
// so once warm, a full engine run performs no heap allocation at all (the
// slab's same-shape resets are epoch bumps).
TEST_F(ThreadInvariance, ExpandSlabFillsAreAllocationFreeWhenWarm) {
  util::set_parallelism(4);
  const std::uint64_t n = 1 << 14;
  auto el = graph::make_gnm(n, 3 * n, 9);
  auto arcs = arcs_from_input(el);
  drop_loops(arcs);
  const std::vector<std::uint8_t> ongoing(n, 1);
  ExpandParams p;
  p.block_count = 4 * n + 7;
  p.table_capacity = 8;
  p.seed = 42;
  p.max_rounds = 16;

  RoundArena arena;
  RoundArena::Scope scope(arena);
  ExpandEngine engine;
  auto run_counting = [&]() -> std::uint64_t {
    util::scratch_arena_round_reset();
    const std::uint64_t before = g_new_calls.load();
    RunStats stats;
    engine.run(ongoing, arcs, p, stats);
    return g_new_calls.load() - before;
  };

  // Warm until flat (pool workers, lane arenas, slab, round arena).
  std::uint64_t prev = run_counting();
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t cur = run_counting();
    if (cur == prev) break;
    prev = cur;
  }
  EXPECT_EQ(run_counting(), 0u) << "warm EXPAND runs must not allocate";
}

// Same property through the public driver (arena installed by
// connected_components): repeated runs on a warm process stay flat.
TEST_F(ThreadInvariance, ArenaReuseAcrossKernelsIsStable) {
  util::set_parallelism(2);
  RoundArena arena;
  RoundArena::Scope scope(arena);
  std::vector<std::uint64_t> data(8 * util::kSerialGrain);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = util::mix64(1, i) & 0xff;

  auto round = [&] {
    util::scratch_arena_round_reset();
    auto copy = data;  // hoisted-capacity stand-in (allocates; outside count)
    util::parallel_prefix_sum(copy);
    util::parallel_pack(copy, [](std::uint64_t x) { return (x & 1) == 0; });
    return copy.size();
  };
  // Two warm-up rounds: round one grows the arena, the reset at the top of
  // round two consolidates the growth into one block.
  const std::size_t r0 = round();
  EXPECT_EQ(round(), r0);
  const std::uint64_t blocks_after_warmup = arena.heap_block_allocations();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(round(), r0);
  // The arena reached its high-water mark in round one and never grew
  // again.
  EXPECT_EQ(arena.heap_block_allocations(), blocks_after_warmup);
  EXPECT_GT(arena.high_water_bytes(), 0u);
}

}  // namespace
}  // namespace logcc::core
