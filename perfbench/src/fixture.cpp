// Untimed inputs of every workload, generated from the benchmark seed:
//   cc-rmat, cc-path  the LOGCCSR1 file (streamed, never materialised) and,
//                     for traced runs, a seeded sample of its edges in
//                     random order for the serving-layer cells;
//   serve-stream      the gnm2 edge stream, the LOGCCSR1 file of the whole
//                     stream, and its first half as a durable prefix
//                     (WAL plus checkpoint, then a short WAL tail).

#include <algorithm>
#include <filesystem>
#include <memory>

#include "graph/binary_io.hpp"
#include "graph/generators.hpp"
#include "perfbench.hpp"
#include "serve/connectivity_engine.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace {

using logcc::graph::Edge;
using logcc::serve::ConnectivityEngine;
using logcc::util::Status;

// Batches of the traced serving cells on the cc-* workloads: two
// checkpoint periods.
constexpr std::uint64_t kTraceStreamBatches = 2 * kCheckpointEvery;
// The prefix is bulk-loaded in large batches: its cost is not measured.
constexpr std::uint64_t kBulkBatchEdges = 10000;

bool fail(std::string* error, const std::string& what) {
  if (error) *error = what;
  return false;
}

Status apply_range(const std::string& dir, const Stream& s, std::uint64_t lo,
                   std::uint64_t hi, std::uint64_t batch_edges,
                   logcc::serve::EngineOptions opts, bool flush) {
  std::unique_ptr<ConnectivityEngine> engine;
  opts.durability.dir = dir;
  Status st = ConnectivityEngine::recover(dir, s.n, opts, &engine);
  if (!st.is_ok()) return st;
  const std::span<const Edge> all(s.edges);
  for (std::uint64_t off = lo; off < hi; off += batch_edges) {
    const auto r = engine->apply_batch(
        all.subspan(off, std::min(batch_edges, hi - off)));
    if (!r.applied || !r.durability.is_ok()) return r.durability;
  }
  return flush ? engine->flush_durable() : Status::ok();
}

}  // namespace

bool write_fixture(const RunConfig& cfg, std::string* error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(cfg.data_dir, ec);
  if (ec) return fail(error, "cannot create " + cfg.data_dir);
  logcc::util::set_parallelism(cfg.nproc);
  const Workload& w = cfg.workload;

  if (!w.serving) {
    if (!logcc::graph::stream_family_to_binary(w.family, w.n, cfg.graph_seed,
                                               csr_path(cfg), error))
      return false;
    if (!cfg.trace) return true;
    Stream s;
    const auto fam = logcc::graph::make_family_stream(w.family, w.n,
                                                      cfg.graph_seed);
    s.n = fam.num_vertices;
    fam.enumerate([&](std::uint64_t u, std::uint64_t v) {
      s.edges.push_back({static_cast<logcc::graph::VertexId>(u),
                         static_cast<logcc::graph::VertexId>(v)});
    });
    logcc::util::Xoshiro256 rng(logcc::util::mix64(cfg.seed, 0x57EA));
    const std::uint64_t keep =
        std::min<std::uint64_t>(s.edges.size(),
                                kTraceStreamBatches * kBatchEdges);
    for (std::uint64_t i = 0; i < keep; ++i)
      std::swap(s.edges[i], s.edges[i + rng.next() % (s.edges.size() - i)]);
    s.edges.resize(keep);
    s.edges.shrink_to_fit();
    if (!write_stream(stream_path(cfg), s))
      return fail(error, "cannot write " + stream_path(cfg));
    fs::create_directories(durable_dir(cfg), ec);
    return !ec || fail(error, "cannot create " + durable_dir(cfg));
  }

  const logcc::graph::EdgeList el =
      logcc::graph::make_family(w.family, w.n, cfg.graph_seed);
  Stream s;
  s.n = el.n;
  s.edges = el.edges;
  s.prefix_edges = s.edges.size() / 2;
  if (!write_stream(stream_path(cfg), s))
    return fail(error, "cannot write " + stream_path(cfg));
  if (!logcc::graph::write_binary_csr(csr_path(cfg), el, error)) return false;

  const std::uint64_t tail = std::min(s.prefix_edges,
                                      kPrefixTailBatches * kBatchEdges);
  logcc::serve::EngineOptions bulk = serving_options(cfg);
  bulk.durability.wal.fsync = logcc::serve::WalFsync::kNone;
  bulk.durability.checkpoint_every = 0;
  Status st = apply_range(durable_dir(cfg), s, 0, s.prefix_edges - tail,
                          kBulkBatchEdges, bulk, /*flush=*/true);
  if (st.is_ok()) {
    logcc::serve::EngineOptions tail_opts = serving_options(cfg);
    tail_opts.durability.checkpoint_every = 0;
    st = apply_range(durable_dir(cfg), s, s.prefix_edges - tail,
                     s.prefix_edges, kBatchEdges, tail_opts, false);
  }
  return st.is_ok() || fail(error, "durable prefix: " + st.to_string());
}

}  // namespace perfbench
