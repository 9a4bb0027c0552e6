// ConnectivityEngine: the incremental serving layer (PR 7).
//
// The load-bearing claim: after EVERY batch, the engine's published
// ComponentIndex is *bit-identical* (labels, sizes, count) to a full
// batch-algorithm recompute over the accumulated edges — at every thread
// count (1/2/4/8). Both sides are canonical min-id snapshots, so the
// comparison is exact equality, not merely same-partition.
//
// On top of that: epoch-swap reader semantics (queries never see a
// half-merged state; old snapshots stay valid, even though the engine
// recycles released snapshot buffers), the rebuild/verify cadence, the
// worst case for the min-id relabel, and concurrent reader/writer
// scenarios the TSan CI job race-checks.
#include "serve/connectivity_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"

namespace logcc {
namespace {

using graph::Edge;
using graph::VertexId;
using logcc::testing::ThreadInvariance;
using serve::ConnectivityEngine;
using serve::EngineOptions;

std::vector<std::span<const Edge>> batches_of(const graph::EdgeList& el,
                                              std::size_t batch_size) {
  std::vector<std::span<const Edge>> out;
  std::span<const Edge> all(el.edges);
  for (std::size_t off = 0; off < all.size(); off += batch_size)
    out.push_back(all.subspan(off, std::min(batch_size, all.size() - off)));
  return out;
}

core::ComponentIndex recompute(std::uint64_t n, std::span<const Edge> edges,
                               Algorithm alg = Algorithm::kFasterCC) {
  return connected_components(graph::ArcsInput::from_edges(n, edges), alg)
      .index;
}

TEST(Serve, SingletonsBeforeFirstBatch) {
  ConnectivityEngine engine(5);
  EXPECT_EQ(engine.component_count(), 5u);
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_FALSE(engine.connected(0, 4));
  EXPECT_TRUE(engine.connected(2, 2));
  EXPECT_EQ(engine.component_of(3), 3u);
  EXPECT_EQ(engine.component_size(3), 1u);
}

TEST(Serve, IncrementalMatchesRecomputeAfterEveryBatch) {
  const auto el = graph::make_gnm(500, 1500, 17);
  ConnectivityEngine engine(el.n);
  std::uint64_t applied = 0, total_merges = 0;
  for (auto batch : batches_of(el, 97)) {
    auto res = engine.apply_batch(batch);
    applied += batch.size();
    total_merges += res.merges;
    EXPECT_EQ(res.edges, batch.size());
    EXPECT_FALSE(res.verify_ran);
    const auto full =
        recompute(el.n, std::span<const Edge>(el.edges).first(applied));
    ASSERT_TRUE(*engine.snapshot() == full)
        << "incremental snapshot diverges after batch " << res.batch;
  }
  EXPECT_EQ(engine.num_edges(), el.edges.size());
  // Merge accounting: components lost across all batches = n - final count.
  EXPECT_EQ(total_merges, el.n - engine.component_count());
}

TEST(Serve, QueriesAgreeWithOracle) {
  const auto el =
      graph::disjoint_union({graph::make_path(6), graph::make_cycle(5)});
  ConnectivityEngine engine(el.n);
  engine.apply_batch(el.edges);
  EXPECT_EQ(engine.component_count(), 2u);
  EXPECT_TRUE(engine.connected(0, 5));
  EXPECT_FALSE(engine.connected(0, 6));
  EXPECT_EQ(engine.component_of(8), 6u);
  EXPECT_EQ(engine.component_size(0), 6u);
  EXPECT_EQ(engine.component_size(10), 5u);
}

TEST(Serve, ToleratesSelfLoopsDuplicatesAndEmptyBatches) {
  ConnectivityEngine engine(4);
  std::vector<Edge> weird{{0, 0}, {1, 2}, {2, 1}, {1, 2}, {3, 3}};
  auto r1 = engine.apply_batch(weird);
  EXPECT_EQ(r1.merges, 1u);
  EXPECT_EQ(r1.rounds, 1u);
  EXPECT_EQ(r1.relabeled, 1u);  // {2} joins {1}
  EXPECT_EQ(engine.component_count(), 3u);
  // An empty batch is a no-op epoch (steady-state fixpoint probe: 0 rounds).
  auto r2 = engine.apply_batch({});
  EXPECT_EQ(r2.rounds, 0u);
  EXPECT_EQ(r2.merges, 0u);
  // Re-inserting internal edges merges nothing and costs zero rounds.
  auto r3 = engine.apply_batch(std::vector<Edge>{{1, 2}, {2, 2}});
  EXPECT_EQ(r3.rounds, 0u);
  EXPECT_EQ(r3.relabeled, 0u);
  EXPECT_EQ(engine.component_count(), 3u);
  EXPECT_TRUE(*engine.snapshot() ==
              recompute(4, engine.edges().edges()));
  // One pass merges everything: {0} absorbs {1, 2} and {3}, each vertex
  // relabeled once.
  auto r4 = engine.apply_batch(std::vector<Edge>{{3, 2}, {1, 0}});
  EXPECT_EQ(r4.rounds, 1u);
  EXPECT_EQ(r4.merges, 2u);
  EXPECT_EQ(r4.relabeled, 3u);
  EXPECT_EQ(engine.component_count(), 1u);
  EXPECT_TRUE(*engine.snapshot() ==
              recompute(4, engine.edges().edges()));
}

TEST(Serve, RejectsOutOfRangeEndpointsWithoutApplying) {
  ConnectivityEngine engine(3);
  engine.apply_batch(std::vector<Edge>{{0, 1}});
  const auto before = engine.snapshot();
  const std::uint64_t epoch_before = engine.epoch();
  const auto res = engine.apply_batch(std::vector<Edge>{{1, 2}, {0, 3}});
  EXPECT_FALSE(res.applied);
  EXPECT_EQ(res.durability.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(res.durability.message().find("endpoint out of range"),
            std::string::npos);
  EXPECT_EQ(engine.epoch(), epoch_before);
  EXPECT_EQ(engine.num_batches(), 1u);
  EXPECT_EQ(engine.num_edges(), 1u);  // the valid edge (1, 2) is not kept
  EXPECT_TRUE(*engine.snapshot() == *before);
}

TEST(Serve, EpochAdvancesPerBatchAndOldSnapshotsSurvive) {
  ConnectivityEngine engine(4);
  auto before = engine.snapshot();
  engine.apply_batch(std::vector<Edge>{{0, 1}});
  engine.apply_batch(std::vector<Edge>{{2, 3}});
  EXPECT_EQ(engine.epoch(), 3u);  // initial publish + 2 batches
  // The pre-merge snapshot still answers from its own epoch.
  EXPECT_EQ(before->num_components(), 4u);
  EXPECT_FALSE(before->connected(0, 1));
  EXPECT_TRUE(engine.snapshot()->connected(0, 1));
}

TEST(Serve, VerifyCadenceRunsAndPasses) {
  const auto el = graph::make_gnm(300, 900, 5);
  EngineOptions opts;
  opts.verify_every = 3;
  ConnectivityEngine engine(el.n, opts);
  std::uint64_t verified_epochs = 0;
  for (auto batch : batches_of(el, 50)) {
    auto res = engine.apply_batch(batch);
    EXPECT_EQ(res.verify_ran, res.batch % 3 == 0);
    if (res.verify_ran) {
      ++verified_epochs;
      EXPECT_TRUE(res.verified) << "batch " << res.batch;
    }
  }
  EXPECT_GE(verified_epochs, 5u);
}

TEST(Serve, VerifyAndRebuildAgreesForEveryRebuildAlgorithm) {
  const auto el = graph::make_rmat(8, 1024, 9);
  for (Algorithm alg : all_algorithms()) {
    EngineOptions opts;
    opts.rebuild_algorithm = alg;
    ConnectivityEngine engine(el.n, opts);
    for (auto batch : batches_of(el, 200)) engine.apply_batch(batch);
    const std::uint64_t epoch_before = engine.epoch();
    EXPECT_TRUE(engine.verify_and_rebuild()) << to_string(alg);
    EXPECT_EQ(engine.epoch(), epoch_before + 1) << to_string(alg);
    EXPECT_TRUE(verify_components(engine.edges().input(), *engine.snapshot()))
        << to_string(alg);
  }
}

// Published buffers are recycled once released, so a held snapshot must
// never be the buffer a later publish patches. Epochs k and k+1 are held
// across 200 more batches and compared to copies taken when they were
// current. With every epoch pinned, each publish needs a fresh buffer (a
// full copy) and every pinned epoch must still equal its copy at the end;
// with nothing else held, publishes patch the released buffers. Either way
// every epoch must equal the recompute.
TEST(Serve, RecyclingNeverMutatesAHeldSnapshot) {
  const auto el = graph::make_gnm(5000, 2300, 61);
  const auto batches = batches_of(el, 10);
  ASSERT_GE(batches.size(), 210u);
  for (const bool pin_every_epoch : {true, false}) {
    SCOPED_TRACE(pin_every_epoch ? "every epoch pinned" : "patch path");
    ConnectivityEngine engine(el.n);
    std::vector<std::shared_ptr<const core::ComponentIndex>> pinned;
    std::vector<core::ComponentIndex> pinned_copies;
    std::shared_ptr<const core::ComponentIndex> held_k, held_k1;
    core::ComponentIndex copy_k, copy_k1;
    std::uint64_t applied = 0, resident_after_hold = 0;
    for (std::size_t b = 0; b < 210; ++b) {
      engine.apply_batch(batches[b]);
      applied += batches[b].size();
      if (pin_every_epoch) {
        pinned.push_back(engine.snapshot());
        pinned_copies.push_back(*pinned.back());
      }
      if (b == 4) {
        held_k = engine.snapshot();
        copy_k = *held_k;
      } else if (b == 5) {
        held_k1 = engine.snapshot();
        copy_k1 = *held_k1;
        resident_after_hold = engine.resident_bytes();
      }
      ASSERT_TRUE(*engine.snapshot() ==
                  recompute(el.n, std::span<const Edge>(el.edges).first(
                                      applied)))
          << "batch " << b;
      if (b > 5) {
        ASSERT_TRUE(*held_k == copy_k) << "epoch k changed at batch " << b;
        ASSERT_TRUE(*held_k1 == copy_k1)
            << "epoch k+1 changed at batch " << b;
      }
    }
    EXPECT_FALSE(copy_k == copy_k1);
    for (std::size_t e = 0; e < pinned.size(); ++e)
      ASSERT_TRUE(*pinned[e] == pinned_copies[e]) << "pinned batch " << e;
    // Pinning every epoch grows the pool by one buffer per batch; without
    // readers it recycles and stays at the size it had.
    const std::uint64_t buffer_bytes = el.n * 12;
    if (pin_every_epoch)
      EXPECT_GT(engine.resident_bytes(),
                resident_after_hold + 100 * buffer_bytes);
    else
      EXPECT_LE(engine.resident_bytes(),
                resident_after_hold + 3 * buffer_bytes);
  }
}

// The min-id labeling's worst case: a path streamed in decreasing id order
// makes each batch relabel the whole growing component, and a final batch
// hands a large component with a high minimum to a low-id singleton. Every
// vertex is relabeled at most once per batch, and every epoch equals the
// recompute.
TEST(Serve, RelabelAdversaryMatchesRecompute) {
  constexpr std::uint64_t n = 600;
  std::vector<Edge> edges;
  for (VertexId v = n - 1; v > n / 2; --v) edges.push_back({v, v - 1});
  edges.push_back({n - 1, 0});  // its own batch: {300..599} into {0}
  std::vector<std::span<const Edge>> batches;
  std::span<const Edge> path = std::span<const Edge>(edges).first(
      edges.size() - 1);
  for (std::size_t off = 0; off < path.size(); off += 7)
    batches.push_back(path.subspan(off, std::min<std::size_t>(
                                            7, path.size() - off)));
  batches.push_back(std::span<const Edge>(edges).last(1));

  ConnectivityEngine engine(n);
  std::uint64_t applied = 0, component = 1;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto res = engine.apply_batch(batches[b]);
    applied += batches[b].size();
    ASSERT_TRUE(*engine.snapshot() ==
                recompute(n, std::span<const Edge>(edges).first(applied)))
        << "batch " << b;
    EXPECT_EQ(res.merges, batches[b].size());
    if (b + 1 < batches.size()) {
      // The old component and all but the last new vertex take the new
      // minimum.
      EXPECT_EQ(res.relabeled, component + batches[b].size() - 1)
          << "batch " << b;
      component += batches[b].size();
    } else {
      EXPECT_EQ(res.relabeled, n / 2);
    }
  }
  EXPECT_EQ(engine.component_size(n - 1), n / 2 + 1);
  EXPECT_EQ(engine.component_of(n - 1), 0u);
}

// The determinism contract, extended to the serving layer: for a given
// batch sequence, every thread count must publish bit-identical snapshots
// after every batch — and each of them must equal the full recompute on the
// accumulated prefix.
TEST_F(ThreadInvariance, ServeSnapshotsBitIdenticalAcrossThreads) {
  const auto el = graph::make_gnm(400, 1200, 29);
  const auto batches = batches_of(el, 64);

  // Reference run (one lane, inline) with per-batch recompute cross-check.
  std::vector<core::ComponentIndex> reference;
  {
    util::set_parallelism(1);
    ConnectivityEngine engine(el.n);
    std::uint64_t applied = 0;
    for (auto batch : batches) {
      engine.apply_batch(batch);
      applied += batch.size();
      reference.push_back(*engine.snapshot());
      ASSERT_TRUE(reference.back() ==
                  recompute(el.n,
                            std::span<const Edge>(el.edges).first(applied)));
    }
  }

  for (int threads : {2, 4, 8}) {
    util::set_parallelism(threads);
    ConnectivityEngine engine(el.n);
    for (std::size_t b = 0; b < batches.size(); ++b) {
      auto res = engine.apply_batch(batches[b]);
      ASSERT_TRUE(*engine.snapshot() == reference[b])
          << "threads=" << threads << " batch " << res.batch;
    }
  }
}

// Per-batch counts are part of the bit-identity contract too: rounds,
// merges and vertices relabeled depend only on the batch sequence.
TEST_F(ThreadInvariance, ServeRoundCountsThreadInvariant) {
  const auto el = graph::make_rmat(9, 2048, 3);
  const auto batches = batches_of(el, 128);
  std::vector<std::uint64_t> reference;
  for (int threads : {1, 2, 4, 8}) {
    util::set_parallelism(threads);
    ConnectivityEngine engine(el.n);
    std::vector<std::uint64_t> counts;
    for (auto batch : batches) {
      const auto res = engine.apply_batch(batch);
      counts.insert(counts.end(), {res.rounds, res.merges, res.relabeled});
    }
    if (reference.empty())
      reference = counts;
    else
      ASSERT_EQ(counts, reference) << "threads=" << threads;
  }
}

// Concurrent readers against a live writer: the scenario the TSan job
// instruments. Readers must always see a fully-published epoch — labels in
// range, component count between 1 and n, monotonically non-increasing as
// the insert-only writer merges — and never block or crash.
TEST(Serve, ConcurrentReadersSeeOnlyPublishedEpochs) {
  const auto el = graph::make_gnm(2000, 6000, 41);
  ConnectivityEngine engine(el.n);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> query_count{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t last_count = el.n;
      std::uint64_t q = 0;
      VertexId v = static_cast<VertexId>(t);
      // Keep querying until the writer is done AND a floor of iterations
      // ran, so a fast writer can't finish before any query lands.
      while (!done.load(std::memory_order_acquire) || q < 100) {
        auto s = engine.snapshot();
        ASSERT_EQ(s->num_vertices(), el.n);
        const std::uint64_t count = s->num_components();
        ASSERT_GE(count, 1u);
        ASSERT_LE(count, last_count);  // insert-only: never splits
        last_count = count;
        const VertexId label = s->component_of(v);
        ASSERT_LE(label, v);
        ASSERT_TRUE(s->connected(v, label));
        ASSERT_GE(s->component_size(v), 1u);
        v = (v + 13) % static_cast<VertexId>(el.n);
        ++q;
      }
      query_count.fetch_add(q, std::memory_order_relaxed);
    });
  }
  for (auto batch : batches_of(el, 250)) engine.apply_batch(batch);
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_GT(query_count.load(), 0u);
  EXPECT_TRUE(*engine.snapshot() == recompute(el.n, engine.edges().edges()));
}

// The metadata a query reports describes the snapshot that answered it:
// readers record (epoch, vertex, answer) from component_of / connected,
// the writer records the labels of every epoch it published, and each
// answer must match the labels of the epoch it was tagged with. The stream
// is a path in decreasing id order, one edge per batch, so every epoch
// relabels the whole growing component and an answer tagged with a
// neighbouring epoch would disagree.
TEST(Serve, QueryEpochMatchesTheAnsweringSnapshot) {
  constexpr std::uint64_t n = 1000;
  std::vector<Edge> edges;
  for (VertexId v = n - 1; v > 0; --v) edges.push_back({v, v - 1});
  ConnectivityEngine engine(n);
  std::vector<std::vector<VertexId>> labels_at(2);
  labels_at[1] = engine.snapshot()->labels();
  // component_of(v) answers `value` = the label; connected(u, v) answers
  // `value` = u and `joined`.
  struct Answer {
    std::uint64_t epoch;
    bool is_connected;
    VertexId v, value;
    bool joined;
  };
  std::atomic<bool> done{false};
  std::vector<std::vector<Answer>> answers(4);
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::vector<Answer>& out = answers[static_cast<std::size_t>(t)];
      VertexId v = static_cast<VertexId>(t);
      while ((!done.load(std::memory_order_acquire) || out.size() < 100) &&
             out.size() < 200000) {
        const VertexId u = (v * 7 + 3) % static_cast<VertexId>(n);
        serve::QueryInfo a, b;
        const VertexId label = engine.component_of(v, &a);
        const bool joined = engine.connected(u, v, &b);
        EXPECT_FALSE(a.degraded || b.degraded);
        out.push_back({a.epoch, false, v, label, false});
        out.push_back({b.epoch, true, v, u, joined});
        v = (v + 13) % static_cast<VertexId>(n);
      }
    });
  }
  for (const Edge& e : edges) {
    engine.apply_batch(std::span<const Edge>(&e, 1));
    labels_at.resize(engine.epoch() + 1);
    labels_at[engine.epoch()] = engine.snapshot()->labels();
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  std::uint64_t checked = 0;
  for (const auto& per_reader : answers) {
    for (const Answer& a : per_reader) {
      ASSERT_LT(a.epoch, labels_at.size());
      const auto& labels = labels_at[a.epoch];
      ASSERT_FALSE(labels.empty()) << "epoch " << a.epoch << " never published";
      if (a.is_connected)
        ASSERT_EQ(labels[a.value] == labels[a.v], a.joined)
            << "connected tagged epoch " << a.epoch;
      else
        ASSERT_EQ(labels[a.v], a.value) << "component_of tagged epoch "
                                        << a.epoch;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace logcc
