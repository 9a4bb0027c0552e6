// Serving side of the benchmark: a durable ConnectivityEngine recovered
// from the fixture's prefix, fed batches in an open loop while
// closed-loop readers query it.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/connectivity.hpp"
#include "perfbench.hpp"
#include "readers.hpp"
#include "serve/checkpoint.hpp"
#include "serve/connectivity_engine.hpp"
#include "serve/sketched_view.hpp"
#include "serve/wal.hpp"
#include "spans.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using logcc::core::ComponentIndex;
using logcc::graph::Edge;
using logcc::graph::VertexId;
using logcc::serve::ConnectivityEngine;

// The fixed offered rate: about half of what the engine sustains at n = 1M
// (50-60 batches/s measured), so latency is measured below saturation.
constexpr double kFixedRate = 20.0;
// A p90 needs at least ten samples beyond it.
constexpr std::uint64_t kMinFixedBatches = 100;
// visible_* are medians over chunks of this many consecutive fixed-rate
// batches of each chunk's quantile, and max_batches_per_s the median over
// chunks of the saturated phase: the host's speed drops in bursts, and a
// quantile pooled over the run records whether one burst happened.
constexpr std::size_t kChunkBatches = 40;
constexpr int kSetupReps = 9;
// The fixed-rate and saturated phases run in this many segments, each after
// one round of BatchRounds, so that none is measured in one stretch of the
// run.
constexpr int kSegments = 4;
// Chunks of the saturated phase per segment.
constexpr std::uint64_t kSaturatedChunks = 2;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct BatchRecord {
  Clock::time_point due, start, done;
  bool applied = false;
  std::uint64_t rounds = 0;
};

struct LoopResult {
  std::uint64_t first_edge = 0;  // stream offset of batch 0
  std::vector<BatchRecord> batches;
  std::vector<std::uint64_t> backlog;  // batches due, not started, at a start
  double late_max_s = 0.0;  // latest start of a batch due on an idle engine

  Samples visible() const {
    Samples s;
    for (const auto& b : batches) s.add(seconds(b.done - b.due));
    return s;
  }
  std::uint64_t failed() const {
    return std::count_if(batches.begin(), batches.end(),
                         [](const BatchRecord& b) { return !b.applied; });
  }
  /// Batches completed per second, per chunk of kChunkBatches.
  Samples chunk_rates() const {
    Samples s;
    for (std::size_t k = kChunkBatches; k < batches.size();
         k += kChunkBatches)
      s.add(kChunkBatches /
            seconds(batches[k].done - batches[k - kChunkBatches].done));
    return s;
  }
};

// Each chunk's q-quantile of visible latency, over consecutive fixed-rate
// batches.
Samples chunk_quantiles(const std::vector<LoopResult>& loops, double q) {
  std::vector<double> all;
  for (const LoopResult& loop : loops)
    for (const BatchRecord& b : loop.batches)
      all.push_back(seconds(b.done - b.due));
  Samples out;
  for (std::size_t k = 0; k + kChunkBatches <= all.size();
       k += kChunkBatches) {
    Samples chunk;
    for (std::size_t i = k; i < k + kChunkBatches; ++i) chunk.add(all[i]);
    out.add(chunk.quantile(q));
  }
  return out;
}

// Open loop: batch k is due at t0 + k / rate whatever the engine is doing.
// This thread, the engine's single writer, busy-waits for each due time and
// applies a batch that is already due at once. Each batch is timed from its
// due time, so a stall is charged to every batch queued behind it. Waiting
// by sleeping let the vCPU halt between batches: over eight paired runs on
// a 4-vCPU VM, visible_p90_s spread 13% that way and 5% busy-waiting.
LoopResult open_loop(ConnectivityEngine& engine, std::span<const Edge> edges,
                     std::uint64_t& cursor, double rate,
                     std::uint64_t count) {
  count = std::min<std::uint64_t>(count,
                                  (edges.size() - cursor) / kBatchEdges);
  LoopResult out;
  out.first_edge = cursor;
  out.batches.resize(count);
  out.backlog.resize(count);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  for (std::uint64_t k = 0; k < count; ++k) {
    BatchRecord& b = out.batches[k];
    b.due = t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(k / rate));
    const bool idle = k == 0 || out.batches[k - 1].done < b.due;
    while (Clock::now() < b.due) {
    }
    b.start = Clock::now();
    if (idle)
      out.late_max_s = std::max(out.late_max_s, seconds(b.start - b.due));
    // Batches due by now and not yet started, this one included.
    const double due_by_now =
        std::min<double>(count, std::floor(seconds(b.start - t0) * rate + 1));
    out.backlog[k] = static_cast<std::uint64_t>(
        std::max(1.0, due_by_now - static_cast<double>(k)));
    const auto r = engine.apply_batch(
        edges.subspan(cursor + k * kBatchEdges, kBatchEdges));
    b.done = Clock::now();
    b.applied = r.applied;
    b.rounds = r.rounds;
  }
  cursor += count * kBatchEdges;
  return out;
}

struct Recovered {
  std::unique_ptr<ConnectivityEngine> engine;
  ConnectivityEngine::RecoveryInfo info;
  Samples seconds;
};

// recover() up to its first published epoch, kSetupReps times after one
// untimed call that pulls the WAL and checkpoint into the page cache.
bool recover_timed(const RunConfig& cfg, const Stream& s, SpanLog* spans,
                   Recovered& out, Report& report) {
  const auto opts = serving_options(cfg);
  for (int i = 0; i <= kSetupReps; ++i) {
    out.engine.reset();
    const int span =
        spans ? spans->begin("serve/connectivity_engine", "recover", 0) : -1;
    logcc::util::Timer t;
    const auto st = ConnectivityEngine::recover(durable_dir(cfg), s.n, opts,
                                                &out.engine, &out.info);
    const double took = t.seconds();
    if (spans) spans->end(span);
    if (!st.is_ok()) {
      report.check(false, "recover: " + st.to_string());
      return false;
    }
    if (i > 0) out.seconds.add(took);
  }
  return true;
}

// The engine's final index must equal union-find over exactly the edges it
// accepted (the prefix plus every applied batch), and its own full
// recompute must agree.
void check_final(const RunConfig& cfg, const Stream& s,
                 const std::vector<const LoopResult*>& loops,
                 ConnectivityEngine& engine, Report& report) {
  std::vector<Edge> accepted(s.edges.begin(),
                             s.edges.begin() + s.prefix_edges);
  std::uint64_t batches = 0, failed = 0;
  for (const LoopResult* loop : loops) {
    for (std::size_t k = 0; k < loop->batches.size(); ++k) {
      ++batches;
      if (!loop->batches[k].applied) {
        ++failed;
        continue;
      }
      const auto first =
          s.edges.begin() + loop->first_edge + k * kBatchEdges;
      accepted.insert(accepted.end(), first, first + kBatchEdges);
    }
  }
  report.count(batches, failed);
  logcc::util::set_parallelism(cfg.nproc);
  ComponentIndex got = *engine.snapshot();
  if (cfg.corrupt_index) got = corrupted(got);
  const ComponentIndex want =
      union_find_index(logcc::graph::ArcsInput::from_edges(s.n, accepted));
  report.check(got == want,
               "engine index != union-find over the applied stream");
  report.check(engine.verify_and_rebuild(),
               "verify_and_rebuild found a mismatch");
}

}  // namespace

void measure_serving(const RunConfig& cfg, double budget_s, Report& report) {
  Stream s;
  if (!read_stream(stream_path(cfg), &s)) {
    report.check(false, "cannot read " + stream_path(cfg));
    return;
  }
  // Time-to-components of the whole stream graph, one round before each
  // fixed-rate segment so that both spread over the run.
  BatchRounds batch(cfg, /*reopen=*/false, report);
  logcc::util::set_parallelism(kEngineThreads);
  Recovered rec;
  if (!recover_timed(cfg, s, nullptr, rec, report)) return;
  ConnectivityEngine& engine = *rec.engine;
  report.check(*engine.snapshot() ==
                   union_find_index(logcc::graph::ArcsInput::from_edges(
                       s.n, std::span<const Edge>(s.edges).first(
                                s.prefix_edges))),
               "recovered index != union-find over the durable prefix");
  // Each block of queries reads one snapshot: per-call connected() adds a
  // contended atomic load of the epoch pointer whose cost depends on where
  // the host places the reader threads (trace: connectivity_engine.
  // connected_p50_ns).
  auto open = [&engine] {
    return [snap = engine.snapshot()](VertexId u, VertexId v) {
      return snap->connected(u, v);
    };
  };
  std::uint64_t cursor = s.prefix_edges;

  // Each segment: a fixed-rate phase (visible latency and the readers' view
  // of it), then a saturated one for capacity: every batch due at once, so
  // the engine applies them back to back (an unbounded offered rate),
  // readers still querying.
  const std::uint64_t fixed_batches = std::max<std::uint64_t>(
      kMinFixedBatches,
      static_cast<std::uint64_t>(0.5 * budget_s * kFixedRate));
  std::vector<LoopResult> fixed, saturated;
  QueryTally queries;
  for (int seg = 0; seg < kSegments; ++seg) {
    if (batch.round() == nullptr) return;
    logcc::util::set_parallelism(kEngineThreads);
    ReaderPool<decltype(open)> readers(
        kReaderThreads, s.n, logcc::util::mix64(cfg.seed, 0x0E5, seg), open);
    std::this_thread::sleep_for(kReaderWarmup);
    logcc::util::Timer window;
    readers.record(true);
    fixed.push_back(open_loop(engine, s.edges, cursor, kFixedRate,
                              fixed_batches / kSegments));
    readers.record(false);
    const double window_s = window.seconds();
    saturated.push_back(open_loop(engine, s.edges, cursor,
                                  std::numeric_limits<double>::infinity(),
                                  kSaturatedChunks * kChunkBatches + 1));
    readers.stop();
    queries.absorb(readers, window_s);
  }

  std::vector<const LoopResult*> loops;
  Samples visible, wait, apply, rates;
  for (const auto& f : fixed) {
    loops.push_back(&f);
    visible.append(f.visible());
    for (const BatchRecord& b : f.batches) {
      wait.add(seconds(b.start - b.due));
      apply.add(seconds(b.done - b.start));
    }
  }
  for (const auto& r : saturated) {
    loops.push_back(&r);
    rates.append(r.chunk_rates());
  }
  report.set("peak_rss_mib", peak_rss_mib(), "MiB");
  check_final(cfg, s, loops, engine, report);

  batch.report();
  queries.report(report);
  const Samples p50 = chunk_quantiles(fixed, 0.5);
  const Samples p90 = chunk_quantiles(fixed, 0.9);
  report.set("setup_s", rec.seconds.median(), "s");
  report.set("visible_p50_s", p50.median(), "s");
  report.set("visible_p90_s", p90.median(), "s");
  report.set("max_batches_per_s", rates.median(), "1/s");
  report.note("setup_s  " + rec.seconds.summary("s") + ", replayed " +
              std::to_string(rec.info.replayed_records) + " WAL records");
  report.note("visible  " + visible.summary("s") + " at " +
              std::to_string(kFixedRate) + " batches/s; chunk p50 " +
              p50.summary("s") + "; chunk p90 " + p90.summary("s"));
  report.note("  of which queue wait " + wait.summary("s") + ", apply " +
              apply.summary("s"));
  report.note("saturated " + rates.summary("1/s") + " over chunks of " +
              std::to_string(kChunkBatches) + " batches");
}

void trace_serving(const RunConfig& cfg, double budget_s, SpanLog& spans,
                   Report& report) {
  namespace serve = logcc::serve;
  Stream s;
  if (!read_stream(stream_path(cfg), &s)) {
    report.check(false, "cannot read " + stream_path(cfg));
    return;
  }
  logcc::util::set_parallelism(kEngineThreads);
  Recovered rec;
  if (!recover_timed(cfg, s, &spans, rec, report)) return;
  ConnectivityEngine& engine = *rec.engine;

  // Here the readers time the per-call API, epoch-pointer load included.
  auto open = [&engine] {
    return [&engine](VertexId u, VertexId v) {
      return engine.connected(u, v);
    };
  };
  ReaderPool<decltype(open)> readers(kReaderThreads, s.n,
                                     logcc::util::mix64(cfg.seed, 0x0E5),
                                     open);
  std::this_thread::sleep_for(kReaderWarmup);
  readers.record(true);
  std::uint64_t cursor = s.prefix_edges;
  const std::uint64_t count =
      cfg.workload.serving
          ? std::max<std::uint64_t>(
                kMinFixedBatches,
                static_cast<std::uint64_t>(0.45 * budget_s * kFixedRate))
          : (s.edges.size() - s.prefix_edges) / kBatchEdges;
  const LoopResult loop = open_loop(engine, s.edges, cursor, kFixedRate,
                                    count);
  readers.record(false);
  readers.stop();
  const Samples connected_ns = readers.block_ns_per_query();

  Samples apply, wait;
  std::uint64_t rounds = 0;
  for (std::size_t k = 0; k < loop.batches.size(); ++k) {
    const BatchRecord& b = loop.batches[k];
    const int parent = spans.add("serve/stream", "batch", k + 1,
                                 spans.at(b.due), spans.at(b.done), -1,
                                 /*async=*/true);
    spans.add("serve/connectivity_engine", "apply_batch", k + 1,
              spans.at(b.start), spans.at(b.done), parent);
    apply.add(seconds(b.done - b.start));
    wait.add(seconds(b.start - b.due));
    rounds += b.rounds;
  }
  std::uint64_t backlog_max = 0;
  for (std::uint64_t q : loop.backlog) backlog_max = std::max(backlog_max, q);
  const std::uint64_t applied = loop.batches.size() - loop.failed();

  // O(n) part of publish: the index build over n canonical labels.
  const auto snap = engine.snapshot();
  Samples publish, sketch, ckpt_write, ckpt_read;
  for (int i = 0; i < kLayerReps; ++i) {
    std::vector<VertexId> labels = snap->labels();
    ScopedSpan sp(spans, "core/component_index", "from_canonical_labels", 0);
    const auto ix = ComponentIndex::from_canonical_labels(std::move(labels));
    publish.add(sp.close());
    report.check(ix == *snap, "from_canonical_labels != published index");
  }
  for (int i = 0; i < kLayerReps; ++i) {
    ScopedSpan sp(spans, "serve/sketched_view", "build", 0);
    const auto view = serve::SketchedView::build(snap);
    sketch.add(sp.close());
    report.check(view.approx_component_count() > 0.0,
                 "sketched view estimates no components");
  }

  const std::string ckpt = cfg.data_dir + "/layer.ckpt";
  serve::CheckpointState state;
  state.n = s.n;
  state.epoch = engine.epoch();
  state.batches = engine.num_batches();
  state.wal_offset = engine.wal_offset();
  state.num_components = snap->num_components();
  state.labels = snap->labels();
  for (int i = 0; i < kLayerReps; ++i) {
    ScopedSpan sp(spans, "serve/checkpoint", "write_checkpoint", 0);
    const auto st = serve::write_checkpoint(ckpt, state);
    ckpt_write.add(sp.close());
    report.check(st.is_ok(), "write_checkpoint: " + st.to_string());
  }
  for (int i = 0; i < kLayerReps; ++i) {
    serve::CheckpointState back;
    ScopedSpan sp(spans, "serve/checkpoint", "read_checkpoint", 0);
    const auto st = serve::read_checkpoint(ckpt, &back);
    ckpt_read.add(sp.close());
    report.check(st.is_ok() && back.labels == state.labels,
                 "read_checkpoint did not return the written state");
  }
  std::error_code ec;
  const auto ckpt_bytes = std::filesystem::file_size(ckpt, ec);

  // A standalone WAL fed the same batches, append and fsync timed apart.
  Samples wal_append, wal_sync;
  serve::WalWriter wal;
  serve::WalOptions wal_opts;
  wal_opts.fsync = serve::WalFsync::kNone;
  auto st = serve::WalWriter::create(cfg.data_dir + "/layer.wal", s.n,
                                     wal_opts, &wal);
  report.check(st.is_ok(), "WalWriter::create: " + st.to_string());
  const std::span<const Edge> edges(s.edges);
  for (std::size_t k = 0; st.is_ok() && k < loop.batches.size(); ++k) {
    const auto batch =
        edges.subspan(loop.first_edge + k * kBatchEdges, kBatchEdges);
    {
      ScopedSpan sp(spans, "serve/wal", "append", k + 1);
      st = wal.append(batch);
      wal_append.add(sp.close());
    }
    if (st.is_ok()) {
      ScopedSpan sp(spans, "serve/wal", "sync", k + 1);
      st = wal.sync();
      wal_sync.add(sp.close());
    }
    report.check(st.is_ok(), "WAL append/sync: " + st.to_string());
  }

  check_final(cfg, s, {&loop}, engine, report);

  report.set("connectivity_engine.recover_s", rec.seconds.median(), "s");
  report.set("connectivity_engine.replayed_records",
             rec.info.replayed_records, "count");
  report.set("connectivity_engine.apply_p50_s", apply.median(), "s");
  report.set("connectivity_engine.apply_p99_s", apply.quantile(0.99), "s");
  report.set("connectivity_engine.merge_rounds",
             applied ? static_cast<double>(rounds) / applied : 0.0,
             "rounds/batch");
  report.set("connectivity_engine.batches_applied", applied, "count");
  report.set("connectivity_engine.batches_failed", loop.failed(), "count");
  report.set("connectivity_engine.resident_bytes", engine.resident_bytes(),
             "bytes");
  report.set("connectivity_engine.connected_p50_ns", connected_ns.median(),
             "ns");
  report.set("connectivity_engine.connected_p99_ns",
             connected_ns.quantile(0.99), "ns");
  report.set("connectivity_engine.queue_wait_p90_s", wait.quantile(0.9), "s");
  report.set("connectivity_engine.backlog_max", backlog_max, "count");
  report.set("connectivity_engine.generator_late_max_s", loop.late_max_s,
             "s");
  report.set("wal.append_p50_s", wal_append.median(), "s");
  report.set("wal.append_p99_s", wal_append.quantile(0.99), "s");
  report.set("wal.sync_p50_s", wal_sync.median(), "s");
  report.set("wal.sync_p99_s", wal_sync.quantile(0.99), "s");
  report.set("wal.bytes", wal.offset(), "bytes");
  report.set("checkpoint.write_s", ckpt_write.median(), "s");
  report.set("checkpoint.read_s", ckpt_read.median(), "s");
  report.set("checkpoint.bytes", ec ? 0 : ckpt_bytes, "bytes");
  report.set("sketched_view.build_s", sketch.median(), "s");
  report.set("component_index.publish_build_s", publish.median(), "s");
  report.note("apply    " + apply.summary("s") + " over " +
              std::to_string(loop.batches.size()) + " batches at " +
              std::to_string(kFixedRate) + "/s");
}

}  // namespace perfbench
