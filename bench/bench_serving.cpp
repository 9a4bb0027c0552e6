// bench_serving — the serving-layer benchmark: batch-apply throughput and
// query latency under concurrent readers, reported into the canonical
// logcc-bench-v1 bench.json.
//
//   $ ./bench_serving --generate=gnm2:200000 --batch-edges=2000 \
//                     --query-threads=4 [--verify-every=0] [--reps=3] \
//                     [--json=bench_serving.json]
//
// The writer replays the generator edge stream batch by batch while
// `query-threads` reader threads hammer connected(u, v) on random vertex
// pairs against whatever snapshot epoch is current, timing every query.
// Per rep the engine is rebuilt from scratch (same stream), so min-of-reps
// stays meaningful for the regression gate.
//
// bench.json cells (all under the one "runs" array the gate reads):
//   serve-batch-apply : seconds = total apply_batch time for the stream
//   serve-query-p50   : seconds = median single-query latency
//   serve-query-p99   : seconds = 99th-percentile single-query latency
// The latency cells sit far below the default 5 ms noise floor;
// scripts/bench_compare.py applies --latency-min-seconds to them instead
// (cells matching p50/p99/latency in the algorithm name).
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "bench_support.hpp"
#include "graph/binary_io.hpp"
#include "serve/connectivity_engine.hpp"
#include "util/cli.hpp"
#include "util/hashing.hpp"
#include "util/parallel.hpp"

namespace {

using namespace logcc;

struct RepOutcome {
  double apply_seconds = 0.0;
  std::uint64_t relabeled = 0;  // vertices relabeled over the stream
  double p50 = 0.0;
  double p99 = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t components = 0;
  std::uint64_t epochs = 0;
  bool verified = true;
};

RepOutcome replay(const graph::EdgeList& el, std::uint64_t batch_edges,
                  int query_threads, std::uint64_t verify_every,
                  std::uint64_t seed, const std::string& durable_dir,
                  serve::WalOptions wal) {
  serve::EngineOptions opts;
  opts.verify_every = verify_every;
  opts.seed = seed;
  std::unique_ptr<serve::ConnectivityEngine> owned;
  if (!durable_dir.empty()) {
    // Fresh durable state per rep: each rep measures the same stream with
    // WAL appends on the apply path, not the recovery of the previous rep.
    std::remove((durable_dir + "/edges.wal").c_str());
    std::remove((durable_dir + "/index.ckpt").c_str());
    opts.durability.dir = durable_dir;
    opts.durability.wal = wal;
    const util::Status rs =
        serve::ConnectivityEngine::recover(durable_dir, el.n, opts, &owned);
    if (!rs.is_ok()) {
      std::fprintf(stderr, "bench_serving: cannot open durable dir: %s\n",
                   rs.to_string().c_str());
      std::exit(2);
    }
  } else {
    owned = std::make_unique<serve::ConnectivityEngine>(el.n, opts);
  }
  serve::ConnectivityEngine& engine = *owned;

  std::atomic<bool> done{false};
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(query_threads));
  std::vector<std::thread> readers;
  for (int t = 0; t < query_threads; ++t) {
    readers.emplace_back([&, t] {
      std::vector<double>& lat = latencies[static_cast<std::size_t>(t)];
      std::uint64_t i = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto u = static_cast<graph::VertexId>(
            util::mix64(seed + 1 + static_cast<std::uint64_t>(t), i, 0) %
            el.n);
        const auto v = static_cast<graph::VertexId>(
            util::mix64(seed + 1 + static_cast<std::uint64_t>(t), i, 1) %
            el.n);
        util::Timer q;
        const bool conn = engine.connected(u, v);
        lat.push_back(q.seconds());
        // Keep the answer observable so the query is never optimized out.
        i += 1 + static_cast<std::uint64_t>(conn);
      }
    });
  }

  RepOutcome out;
  std::span<const graph::Edge> all(el.edges);
  for (std::size_t off = 0; off < all.size(); off += batch_edges) {
    const auto batch = all.subspan(
        off, std::min<std::size_t>(batch_edges, all.size() - off));
    const auto res = engine.apply_batch(batch);
    out.apply_seconds += res.seconds;
    out.relabeled += res.relabeled;
    out.verified = out.verified && res.verified;
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  std::vector<double> lat;
  for (auto& per_thread : latencies)
    lat.insert(lat.end(), per_thread.begin(), per_thread.end());
  out.queries = lat.size();
  out.p50 = util::percentile(lat, 50.0);
  out.p99 = util::percentile(lat, 99.0);
  out.components = engine.component_count();
  out.epochs = engine.epoch();
  out.verified = out.verified && engine.verify_and_rebuild();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace logcc::bench;

  util::Cli cli(argc, argv);
  const std::string generate = cli.get_string(
      "generate", "gnm2:200000", "family:n[:seed] edge stream to replay");
  const std::uint64_t batch_edges = static_cast<std::uint64_t>(
      cli.get_int("batch-edges", 2000, "edges per batch"));
  const int query_threads = static_cast<int>(
      cli.get_int("query-threads", 4, "concurrent reader threads"));
  const std::uint64_t verify_every = static_cast<std::uint64_t>(cli.get_int(
      "verify-every", 0, "rebuild/verify cadence in batches (0 = end only)"));
  const int reps =
      static_cast<int>(cli.get_int("reps", 3, "stream replays (fresh engine)"));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1, "random seed"));
  const std::string json_path = cli.get_string(
      "json", "", "write the logcc-bench-v1 document here ('-' = stdout)");
  const std::string durable_dir = cli.get_string(
      "durable-dir", "",
      "measure with a write-ahead log in this directory (cells gain a "
      "'-wal' suffix; empty = no durability)");
  const std::string fsync_name = cli.get_string(
      "fsync", "none", "WAL fsync policy when durable: none | batch | every-n");
  cli.finish();

  if (batch_edges == 0 || query_threads < 0 || reps < 1) {
    std::fprintf(stderr, "bench_serving: bad sweep parameters\n");
    return 2;
  }
  serve::WalOptions wal;
  if (!serve::wal_fsync_from_string(fsync_name, &wal.fsync)) {
    std::fprintf(stderr, "bench_serving: bad --fsync policy '%s'\n",
                 fsync_name.c_str());
    return 2;
  }
  std::string family;
  std::uint64_t n = 0;
  std::uint64_t gseed = 1;
  if (!graph::parse_generator_spec(generate, family, n, gseed)) {
    std::fprintf(stderr, "bench_serving: bad --generate spec '%s'\n",
                 generate.c_str());
    return 2;
  }
  const graph::EdgeList el = graph::make_family(family, n, gseed);
  const std::uint64_t batches =
      (el.edges.size() + batch_edges - 1) / batch_edges;

  header("serving: batch-apply throughput + query latency under readers",
         "one writer replays the stream in batches; reader threads time "
         "connected(u,v) against the epoch-swapped snapshot");

  std::printf("stream %s: n=%" PRIu64 " edges=%zu, %" PRIu64
              " batches of %" PRIu64 ", %d query threads, %d reps "
              "(backend=%s%s%s)\n\n",
              generate.c_str(), el.n, el.edges.size(), batches, batch_edges,
              query_threads, reps, util::parallel_backend_name(),
              durable_dir.empty() ? "" : ", wal fsync=",
              durable_dir.empty() ? "" : fsync_name.c_str());

  std::vector<RepOutcome> outcomes;
  bool all_verified = true;
  for (int rep = 0; rep < reps; ++rep) {
    auto out = replay(el, batch_edges, query_threads, verify_every,
                      seed + 7919ULL * static_cast<std::uint64_t>(rep),
                      durable_dir, wal);
    all_verified = all_verified && out.verified;
    std::printf("  rep %d: apply %.3fs (%.0f edges/s, %.1fus and %.1f "
                "relabeled per batch)  queries %" PRIu64
                " (p50 %.1fus p99 %.1fus)  components %" PRIu64
                "  epochs %" PRIu64 "%s\n",
                rep, out.apply_seconds,
                out.apply_seconds > 0
                    ? static_cast<double>(el.edges.size()) / out.apply_seconds
                    : 0.0,
                out.apply_seconds * 1e6 / static_cast<double>(batches),
                static_cast<double>(out.relabeled) /
                    static_cast<double>(batches),
                out.queries, out.p50 * 1e6, out.p99 * 1e6, out.components,
                out.epochs, out.verified ? "" : "  VERIFY-FAIL");
    outcomes.push_back(out);
  }

  std::printf("\nincremental-vs-recompute certificates: %s\n",
              all_verified ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::FILE* out =
        json_path == "-" ? stdout : std::fopen(json_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "bench_serving: cannot write '%s'\n",
                   json_path.c_str());
      return 2;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"schema\": \"logcc-bench-v1\",\n"
                 "  \"driver\": \"bench_serving\",\n"
                 "  \"runtime\": {\"backend\": \"%s\", \"grain\": %zu},\n"
                 "  \"dataset\": {\"name\": \"%s\", \"source\": \"generator\", "
                 "\"n\": %" PRIu64 ", \"edges\": %zu},\n"
                 "  \"serving\": {\"batch_edges\": %" PRIu64
                 ", \"batches\": %" PRIu64 ", \"query_threads\": %d"
                 ", \"verify_every\": %" PRIu64 ", \"reps\": %d"
                 ", \"seed\": %" PRIu64 ", \"durable\": %s"
                 ", \"wal_fsync\": \"%s\"},\n"
                 "  \"verified\": %s,\n"
                 "  \"runs\": [\n",
                 util::parallel_backend_name(), util::parallel_grain(),
                 json_escape(generate).c_str(), el.n, el.edges.size(),
                 batch_edges, batches, query_threads, verify_every, reps, seed,
                 durable_dir.empty() ? "false" : "true",
                 durable_dir.empty() ? "" : fsync_name.c_str(),
                 all_verified ? "true" : "false");
    const int hw = util::hardware_parallelism();
    // Durable runs report under distinct cell names: the gate then compares
    // wal-on against wal-on (and the plain cells stay comparable across
    // commits that add durability).
    const char* cell_suffix = durable_dir.empty() ? "" : "-wal";
    for (std::size_t rep = 0; rep < outcomes.size(); ++rep) {
      const RepOutcome& o = outcomes[rep];
      const char* sep = rep + 1 < outcomes.size() ? "," : "";
      std::fprintf(out,
                   "    {\"algorithm\": \"serve-batch-apply%s\", \"threads\": "
                   "%d, \"rep\": %zu, \"seconds\": %.6f, \"components\": "
                   "%" PRIu64 ", \"epochs\": %" PRIu64 ", \"verified\": %s},\n"
                   "    {\"algorithm\": \"serve-query-p50%s\", \"threads\": %d"
                   ", \"rep\": %zu, \"seconds\": %.9f, \"queries\": %" PRIu64
                   "},\n"
                   "    {\"algorithm\": \"serve-query-p99%s\", \"threads\": %d"
                   ", \"rep\": %zu, \"seconds\": %.9f, \"queries\": %" PRIu64
                   "}%s\n",
                   cell_suffix, hw, rep, o.apply_seconds, o.components,
                   o.epochs, o.verified ? "true" : "false", cell_suffix,
                   query_threads, rep, o.p50, o.queries, cell_suffix,
                   query_threads, rep, o.p99, o.queries, sep);
    }
    std::fprintf(out, "  ]\n}\n");
    if (out != stdout) std::fclose(out);
    if (json_path != "-")
      std::printf("wrote %s (logcc-bench-v1, %zu reps)\n", json_path.c_str(),
                  outcomes.size());
  }

  return all_verified ? 0 : 1;
}
