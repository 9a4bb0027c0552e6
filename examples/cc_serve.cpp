// cc_serve: the serving-layer face of the library — replay an edge stream
// in batches against a live serve::ConnectivityEngine, answer point queries
// between batches, and cross-check the incremental state against a full
// recompute on the configured cadence.
//
//   $ ./examples/cc_serve --generate=gnm2:20000 --batch-edges=500
//                         --verify-every=8 [--algorithm=faster-cc]
//                         [--queries=256] [--seed=1]
//
// Crash-safe serving (docs/ARCHITECTURE.md "Durability & fault tolerance"):
//
//   $ ./examples/cc_serve ... --durable-dir=/var/lib/logcc
//         [--fsync=none|batch|every-n] [--checkpoint-every=32]
//         [--labels-out=labels.txt] [--crash-after=K]
//
// With --durable-dir the engine is built via ConnectivityEngine::recover:
// a prior run's WAL + checkpoint are replayed first, then the stream
// resumes at the first batch the durable state does not cover (same
// --generate/--batch-edges contract as the crashed run). --crash-after=K
// arms the engine_after_wal_append failpoint with a crash action so the
// process SIGKILLs itself mid-batch K+1 — the CI crash-recovery smoke
// kills, re-runs to recover, and diffs --labels-out against an
// uninterrupted replay. SIGTERM/SIGINT trigger a clean shutdown: the WAL
// is fsynced and a final checkpoint written before exiting.
//
// Exit codes: 0 = every check passed (or clean signal shutdown),
// 1 = serve/verify mismatch, 2 = usage error, 3 = recovery found the
// durable state inconsistent (corruption), 4 = I/O failure.
#include <cinttypes>
#include <csignal>
#include <cstdio>

#include "core/connectivity.hpp"
#include "graph/binary_io.hpp"
#include "graph/generators.hpp"
#include "serve/connectivity_engine.hpp"
#include "util/cli.hpp"
#include "util/failpoint.hpp"
#include "util/hashing.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

int exit_code_for(const logcc::util::Status& s) {
  return s.code() == logcc::util::StatusCode::kCorruption ? 3 : 4;
}

bool write_labels(const std::string& path,
                  const logcc::core::ComponentIndex& index) {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (!fp) return false;
  bool ok = true;
  for (std::uint64_t v = 0; ok && v < index.num_vertices(); ++v)
    ok = std::fprintf(fp, "%" PRIu64 "\n",
                      static_cast<std::uint64_t>(index.component_of(
                          static_cast<logcc::graph::VertexId>(v)))) > 0;
  return std::fclose(fp) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace logcc;

  util::Cli cli(argc, argv);
  const std::string generate = cli.get_string(
      "generate", "gnm2:20000", "family:n[:seed] edge stream to replay");
  const std::uint64_t batch_edges = static_cast<std::uint64_t>(
      cli.get_int("batch-edges", 500, "edges per batch"));
  const std::uint64_t verify_every = static_cast<std::uint64_t>(cli.get_int(
      "verify-every", 8, "rebuild/verify cadence in batches (0 = end only)"));
  const std::string algorithm_name =
      cli.get_string("algorithm", "faster-cc",
                     "batch algorithm for the rebuild/verify epochs");
  const std::uint64_t queries = static_cast<std::uint64_t>(cli.get_int(
      "queries", 256, "point queries sampled against the snapshot per batch"));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1, "random seed"));
  const std::string durable_dir = cli.get_string(
      "durable-dir", "", "WAL + checkpoint directory (empty = not durable)");
  const std::string fsync_name = cli.get_string(
      "fsync", "batch", "WAL fsync policy: none | batch | every-n");
  const std::uint64_t checkpoint_every = static_cast<std::uint64_t>(cli.get_int(
      "checkpoint-every", 32, "checkpoint cadence in batches (0 = end only)"));
  const std::uint64_t max_resident_mb = static_cast<std::uint64_t>(cli.get_int(
      "max-resident-mb", 0,
      "resident-memory budget in MiB (0 = unlimited; crossing it degrades)"));
  const std::string labels_out = cli.get_string(
      "labels-out", "", "write the final component labels here (one per line)");
  const std::int64_t crash_after = cli.get_int(
      "crash-after", -1,
      "SIGKILL mid-batch after this many durable appends (fault testing)");
  cli.finish();

  std::string family;
  std::uint64_t n = 0;
  std::uint64_t gseed = 1;
  if (!graph::parse_generator_spec(generate, family, n, gseed)) {
    std::fprintf(stderr, "cc_serve: bad --generate spec '%s'\n",
                 generate.c_str());
    return 2;
  }
  const graph::EdgeList el = graph::make_family(family, n, gseed);
  if (batch_edges == 0) {
    std::fprintf(stderr, "cc_serve: --batch-edges must be positive\n");
    return 2;
  }

  serve::EngineOptions opts;
  opts.verify_every = verify_every;
  opts.rebuild_algorithm = algorithm_from_string(algorithm_name);
  opts.seed = seed;
  opts.max_resident_bytes = max_resident_mb << 20;
  if (!wal_fsync_from_string(fsync_name, &opts.durability.wal.fsync)) {
    std::fprintf(stderr, "cc_serve: bad --fsync policy '%s'\n",
                 fsync_name.c_str());
    return 2;
  }
  opts.durability.checkpoint_every = checkpoint_every;

  // Crash-after arms the post-WAL-append crash site with a hit budget: the
  // (K+1)th durable append SIGKILLs the process with the record on disk
  // but the merge unpublished — the exact torn state recovery must mend.
  if (crash_after >= 0) {
    if (durable_dir.empty()) {
      std::fprintf(stderr, "cc_serve: --crash-after needs --durable-dir\n");
      return 2;
    }
    util::failpoint::arm("engine_after_wal_append",
                         util::failpoint::Action::kCrash,
                         static_cast<std::uint64_t>(crash_after));
  }

  std::unique_ptr<serve::ConnectivityEngine> owned;
  serve::ConnectivityEngine* engine = nullptr;
  serve::ConnectivityEngine::RecoveryInfo recovery;
  if (!durable_dir.empty()) {
    opts.durability.dir = durable_dir;
    const util::Status rs = serve::ConnectivityEngine::recover(
        durable_dir, el.n, opts, &owned, &recovery);
    if (!rs.is_ok()) {
      std::fprintf(stderr, "cc_serve: recovery failed: %s\n",
                   rs.to_string().c_str());
      return exit_code_for(rs);
    }
    engine = owned.get();
    if (engine->num_batches() > 0 || recovery.torn_bytes > 0)
      std::printf("recovered %" PRIu64 " batches from %s (checkpoint: %s, "
                  "replayed %" PRIu64 " records, torn tail %" PRIu64 " B)\n",
                  engine->num_batches(), durable_dir.c_str(),
                  recovery.used_checkpoint ? "yes" : "no",
                  recovery.replayed_records, recovery.torn_bytes);
  } else {
    owned = std::make_unique<serve::ConnectivityEngine>(el.n, opts);
    engine = owned.get();
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  std::printf("cc_serve: stream %s (n=%" PRIu64 " edges=%zu) in batches of %"
              PRIu64 ", verify every %" PRIu64 " batches via %s%s\n",
              generate.c_str(), el.n, el.edges.size(), batch_edges,
              verify_every, to_string(opts.rebuild_algorithm),
              durable_dir.empty() ? "" : " [durable]");

  util::Timer total;
  std::uint64_t verify_epochs = 0, mismatches = 0, query_total = 0;
  double apply_seconds = 0.0;
  bool interrupted = false;
  std::span<const graph::Edge> all(el.edges);
  // Resume where the durable state left off: the recovered engine already
  // holds num_batches() full batches of this same stream.
  for (std::size_t off = engine->num_batches() * batch_edges; off < all.size();
       off += batch_edges) {
    if (g_stop) {
      interrupted = true;
      break;
    }
    const auto batch =
        all.subspan(off, std::min<std::size_t>(batch_edges, all.size() - off));
    const auto res = engine->apply_batch(batch);
    if (!res.applied) {
      std::fprintf(stderr, "cc_serve: batch %" PRIu64 " not applied: %s\n",
                   res.batch, res.durability.to_string().c_str());
      return exit_code_for(res.durability);
    }
    if (!res.durability.is_ok())
      std::fprintf(stderr, "cc_serve: durability warning at batch %" PRIu64
                           ": %s\n",
                   res.batch, res.durability.to_string().c_str());
    apply_seconds += res.seconds;
    if (res.verify_ran) {
      ++verify_epochs;
      if (!res.verified) {
        ++mismatches;
        std::fprintf(stderr,
                     "cc_serve: MISMATCH at batch %" PRIu64
                     ": incremental index != full recompute\n",
                     res.batch);
      }
    }
    // Reader traffic between batches: point queries against the published
    // snapshot, sanity-checked against the snapshot's own labeling.
    const auto snap = engine->snapshot();
    for (std::uint64_t q = 0; q < queries && el.n > 0; ++q) {
      const auto u = static_cast<graph::VertexId>(
          util::mix64(seed, res.batch, 2 * q) % el.n);
      const auto v = static_cast<graph::VertexId>(
          util::mix64(seed, res.batch, 2 * q + 1) % el.n);
      serve::QueryInfo info;
      const bool conn = engine->connected(u, v, &info);
      if (conn != (snap->component_of(u) == snap->component_of(v)) &&
          engine->num_batches() == res.batch && !info.degraded) {
        std::fprintf(stderr, "cc_serve: inconsistent query answer\n");
        return 1;
      }
      ++query_total;
    }
  }

  // Final rebuild epoch: the stream's last word on incremental integrity.
  // Unavailable in degraded mode (the edge log was shed to stay under the
  // memory budget) and pointless after an interrupt (partial stream).
  if (!interrupted && !engine->degraded()) {
    ++verify_epochs;
    if (!engine->verify_and_rebuild()) {
      ++mismatches;
      std::fprintf(stderr,
                   "cc_serve: MISMATCH at final rebuild: incremental index != "
                   "full recompute\n");
    }
  }

  // Clean shutdown: everything applied is made durable — WAL fsynced, one
  // final checkpoint — so the next run recovers instantly.
  if (engine->durable()) {
    const util::Status fs = engine->flush_durable();
    if (!fs.is_ok()) {
      std::fprintf(stderr, "cc_serve: final flush failed: %s\n",
                   fs.to_string().c_str());
      return exit_code_for(fs);
    }
  }

  if (!labels_out.empty() && !write_labels(labels_out, *engine->snapshot())) {
    std::fprintf(stderr, "cc_serve: cannot write --labels-out=%s\n",
                 labels_out.c_str());
    return 4;
  }

  const double elapsed = total.seconds();
  std::printf("applied %" PRIu64 " batches (%" PRIu64 " edges) in %.3fs "
              "(%.0f edges/s apply), %" PRIu64 " queries, epoch %" PRIu64
              "%s%s\n",
              engine->num_batches(), engine->num_edges(), apply_seconds,
              apply_seconds > 0
                  ? static_cast<double>(engine->num_edges()) / apply_seconds
                  : 0.0,
              query_total, engine->epoch(),
              engine->degraded() ? ", degraded" : "",
              interrupted ? ", interrupted" : "");
  std::printf("components: %" PRIu64 "   |component(v0)|: %" PRIu64
              "   verify epochs: %" PRIu64 "/%" PRIu64 " ok   total %.3fs\n",
              engine->component_count(),
              engine->num_vertices() > 0 ? engine->component_size(0) : 0,
              verify_epochs - mismatches, verify_epochs, elapsed);
  std::printf("serving smoke: %s\n", mismatches == 0 ? "PASS" : "FAIL");
  return mismatches == 0 ? 0 : 1;
}
