// Batch side of the benchmark: time-to-components on a LOGCCSR1 file, and
// the traced decomposition of faster-cc into its layers.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/compact.hpp"
#include "core/connectivity.hpp"
#include "core/expand_maxlink.hpp"
#include "core/round_arena.hpp"
#include "graph/binary_io.hpp"
#include "perfbench.hpp"
#include "readers.hpp"
#include "spans.hpp"
#include "util/arena.hpp"
#include "util/bitutil.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace perfbench {

using logcc::Algorithm;
using logcc::core::ComponentIndex;
using logcc::graph::VertexId;

namespace {

// Union-find costs about a tenth of faster-cc: repeating it in each round
// gives its median more samples at little cost.
constexpr int kUfPerRound = 4;
// Faster-cc calls per round; with reopen, each is a request: open plus the
// call.
constexpr int kCallsPerRound = 2;
// A cheap open (cc-path: ~25 ms) is repeated within a request until this
// much time is spent, so that setup_s has as many samples as a noisy host
// needs.
constexpr double kSetupPerRequestS = 0.25;

logcc::Options faster_options(const RunConfig& cfg) {
  logcc::Options opts;
  opts.seed = cfg.algo_seed;
  return opts;
}

// Reader windows on a static index, one per round of the measuring loop:
// spreading them over the run keeps a slow stretch of the host from
// deciding the tail.
constexpr double kQueryWindowS = 0.4;

void query_window(const RunConfig& cfg, const ComponentIndex& index,
                  QueryTally& tally) {
  auto open = [&index] {
    return [&index](VertexId u, VertexId v) { return index.connected(u, v); };
  };
  ReaderPool<decltype(open)> readers(
      kReaderThreads, index.num_vertices(),
      logcc::util::mix64(cfg.seed, 0x0E5, tally.windows), open);
  std::this_thread::sleep_for(kReaderWarmup);
  logcc::util::Timer t;
  readers.record(true);
  std::this_thread::sleep_for(std::chrono::duration<double>(kQueryWindowS));
  readers.record(false);
  const double window = t.seconds();
  readers.stop();
  tally.absorb(readers, window);
}

}  // namespace

BatchRounds::BatchRounds(const RunConfig& cfg, bool reopen, Report& report)
    : cfg_(cfg), reopen_(reopen), report_(report), path_(csr_path(cfg)) {
  // Untimed: the first open pulls the file into the page cache, the
  // reference index comes from sequential union-find, and one warm-up call
  // settles the allocator and the thread pool.
  std::string err;
  if (!logcc::graph::load_dataset_zero_copy(path_, handle_, &err)) {
    report_.check(false, "open " + path_ + ": " + err);
    return;
  }
  ref_ = union_find_index(handle_.input());
  logcc::util::set_parallelism(kTimedThreads);
  const auto warm = logcc::connected_components(
      handle_.input(), Algorithm::kFasterCC, faster_options(cfg_));
  report_.check(warm.index == ref_, "warm-up faster-cc != union-find");
  ok_ = true;
  corrupt_ = cfg_.corrupt_index;
}

void BatchRounds::check(const ComponentIndex& index, const char* what) {
  report_.check((corrupt_ ? corrupted(index) : index) == ref_,
                std::string(what) + " != union-find");
  corrupt_ = false;
}

void BatchRounds::track_counts(const logcc::core::RunStats& s) {
  if (cc_.size() == 1) {
    rounds_ = s.rounds;
    prepare_phases_ = s.prepare_phases;
  } else if (s.rounds != rounds_ || s.prepare_phases != prepare_phases_) {
    counts_fixed_ = false;
  }
}

const ComponentIndex* BatchRounds::round() {
  if (!ok_) return nullptr;
  const logcc::Options opts = faster_options(cfg_);
  logcc::util::set_parallelism(kTimedThreads);
  Samples visible;
  for (int i = 0; i < kCallsPerRound; ++i) {
    double load_s = 0.0, spent = 0.0;
    while (reopen_ && spent < kSetupPerRequestS) {
      std::string err;
      logcc::graph::DatasetHandle fresh;
      logcc::util::Timer t;
      ok_ = logcc::graph::load_dataset_zero_copy(path_, fresh, &err);
      load_s = t.seconds();
      report_.check(ok_, "reopen " + path_ + ": " + err);
      if (!ok_) return nullptr;
      setup_.add(load_s);
      spent += load_s;
      handle_ = std::move(fresh);
    }

    logcc::util::Timer t;
    auto r = logcc::connected_components(handle_.input(),
                                         Algorithm::kFasterCC, opts);
    const double cc_s = t.seconds();
    cc_.add(cc_s);
    visible.add(load_s + cc_s);
    track_counts(r.stats);
    check(r.index, "faster-cc");
    last_ = std::move(r.index);
  }
  visible_.append(visible);
  visible_p90_.add(visible.quantile(0.9));

  for (int i = 0; i < kUfPerRound; ++i) {
    logcc::util::Timer t;
    const auto ru =
        logcc::connected_components(handle_.input(), Algorithm::kUnionFind);
    uf_.add(t.seconds());
    check(ru.index, "union-find");
  }
  return &last_;
}

void BatchRounds::report() {
  report_.set("cc_s", cc_.median(), "s");
  report_.set("uf_s", uf_.median(), "s");
  report_.note("cc_s     " + cc_.summary("s"));
  report_.note("uf_s     " + uf_.summary("s"));
  char line[160];
  std::snprintf(line, sizeof line,
                "faster-cc seed %" PRIu64 ": rounds %" PRIu64
                ", prepare_phases %" PRIu64 "%s; %" PRIu64 " components",
                cfg_.algo_seed, rounds_, prepare_phases_,
                counts_fixed_ ? "" : " (CHANGED between repetitions)",
                ref_.num_components());
  report_.note(line);
  if (!reopen_) return;
  // One request = open + deep validation + faster-cc: the time a user waits
  // for components of a file, and how many such requests complete per
  // second back to back. A run holds too few requests for a pooled p90, so
  // visible_p90_s is the median over rounds of each round's p90.
  report_.set("setup_s", setup_.median(), "s");
  report_.set("visible_p50_s", visible_.median(), "s");
  report_.set("visible_p90_s", visible_p90_.median(), "s");
  report_.set("max_batches_per_s", 1.0 / visible_.mean(), "1/s");
  report_.note("setup_s  " + setup_.summary("s"));
  report_.note("visible  " + visible_.summary("s") + "; round p90 " +
               visible_p90_.summary("s"));
}

void measure_batch(const RunConfig& cfg, double budget_s, Report& report) {
  BatchRounds rounds(cfg, /*reopen=*/true, report);
  QueryTally queries;
  logcc::util::Timer budget;
  while (rounds.count() == 0 || budget.seconds() < budget_s) {
    const ComponentIndex* index = rounds.round();
    if (index == nullptr) return;
    query_window(cfg, *index, queries);
  }
  report.set("peak_rss_mib", peak_rss_mib(), "MiB");
  rounds.report();
  queries.report(report);
}

namespace {

struct DecomposedRun {
  std::vector<VertexId> labels;
  logcc::core::RunStats stats;  // expand-maxlink and postprocess counters
  std::uint64_t prepare_phases = 0, n_compact = 0, arcs_out = 0;
  std::uint64_t rounds = 0, remaining_arcs = 0, post_phases = 0;
  double compact_s = 0.0, em_s = 0.0, round_max_s = 0.0, post_s = 0.0;
};

// faster-cc (core/faster_cc.cpp) re-driven through the public calls it
// makes, in its order, with a span around each layer. Map-back and the
// round-budget arithmetic stay outside every layer span: they are the
// orchestration that trace.unaccounted_s reports.
DecomposedRun decomposed_faster_cc(const logcc::graph::ArcsInput& in,
                                   std::uint64_t seed, SpanLog& spans,
                                   std::uint64_t id) {
  namespace core = logcc::core;
  namespace util = logcc::util;
  DecomposedRun out;
  const core::FasterCcParams params = [&] {
    core::FasterCcParams p;
    p.seed = seed;
    return p;
  }();
  core::RoundArena round_arena;
  core::RoundArena::Scope arena_scope(round_arena);
  const std::uint64_t n = in.num_vertices();

  core::CompactParams cp;
  cp.seed = params.seed;
  cp.target_density = params.prepare_target_density;
  cp.prepare_max_phases = params.prepare_max_phases;
  core::CompactResult comp;
  {
    ScopedSpan s(spans, "core/compact", "compact", id);
    comp = core::compact(in, cp);
    out.compact_s = s.close();
  }
  out.prepare_phases = comp.stats.prepare_phases;
  out.n_compact = comp.n_compact;
  out.arcs_out = comp.arcs.size();

  if (comp.n_compact == 0) {
    comp.outer.flatten();
    out.labels = comp.outer.root_labels();
    return out;
  }

  const std::uint64_t m0 = std::max<std::uint64_t>(comp.arcs.size(), 1);
  const core::ParamPolicy policy =
      core::ParamPolicy::practical(comp.n_compact, m0);
  std::uint64_t max_rounds =
      4 * (util::ceil_log2(std::max<std::uint64_t>(n, 4)) +
           static_cast<std::uint64_t>(util::loglog_density(n, m0))) +
      32;

  const int em_span = spans.begin("core/expand_maxlink", "ExpandMaxlink", id);
  core::ExpandMaxlink engine(comp.n_compact, comp.arcs, comp.exists, policy,
                             util::mix64(params.seed, 0xFA57), out.stats);
  bool broke = false;
  for (std::uint64_t r = 0; r < max_rounds; ++r) {
    util::scratch_arena_round_reset();
    ScopedSpan s(spans, "core/expand_maxlink", "round", id);
    const bool done = engine.round();
    out.round_max_s = std::max(out.round_max_s, s.close());
    if (done) {
      broke = true;
      break;
    }
  }
  out.em_s = spans.end(em_span);
  out.rounds = engine.rounds_run();

  {
    ScopedSpan s(spans, "core/cc_theorem1", "postprocess", id);
    engine.forest().flatten();
    std::vector<core::Arc> rest = engine.remaining_arcs();
    core::alter(rest, engine.forest());
    core::drop_loops(rest);
    core::dedup_arcs(rest);
    out.remaining_arcs = rest.size();
    core::Theorem1Params t1 = params.postprocess;
    t1.seed = util::mix64(params.seed, 0x7E0);
    if (!broke) out.stats.finisher_used = true;
    const std::uint64_t phases_before = out.stats.phases;
    core::theorem1_phases(engine.forest(), rest, m0, t1, out.stats);
    out.post_phases = out.stats.phases - phases_before;
    out.post_s = s.close();
  }
  engine.forest().flatten();

  comp.outer.flatten();
  out.labels.resize(n);
  util::parallel_for(0, n, [&](std::size_t v) {
    VertexId r = comp.outer.find_root(static_cast<VertexId>(v));
    std::uint32_t cid = comp.renamed_of[r];
    if (cid == core::CompactResult::kInvalid) {
      out.labels[v] = r;
    } else {
      VertexId croot = engine.forest().find_root(static_cast<VertexId>(cid));
      VertexId orig = comp.orig_of[croot];
      LOGCC_CHECK(orig != logcc::graph::kInvalidVertex);
      out.labels[v] = orig;
    }
  });
  return out;
}

}  // namespace

void trace_batch(const RunConfig& cfg, double budget_s, SpanLog& spans,
                 Report& report) {
  namespace core = logcc::core;
  const std::string path = csr_path(cfg);
  std::string err;
  logcc::graph::DatasetHandle warm;
  if (!logcc::graph::load_dataset_zero_copy(path, warm, &err)) {
    report.check(false, "open " + path + ": " + err);
    return;
  }

  logcc::util::set_parallelism(kTimedThreads);
  Samples validate;
  for (int i = 0; i < kLayerReps; ++i) {
    ScopedSpan s(spans, "graph/binary_io", "validate_csr", 0);
    const bool ok = logcc::graph::validate_csr(warm.input().csr(), &err);
    validate.add(s.close());
    report.check(ok, "validate_csr: " + err);
  }
  const auto& in = warm.input();
  const ComponentIndex ref = union_find_index(in);
  const logcc::Options opts = faster_options(cfg);

  ComponentIndex untraced_index =
      logcc::connected_components(in, Algorithm::kFasterCC, opts).index;
  report.check(untraced_index == ref, "warm-up faster-cc != union-find");

  Samples untraced, nproc, ingest, drop, dedup, call, compact_s,
      prepare_self, em, round_max, post, build, unaccounted, verify;
  std::uint64_t arcs_in = 0, arcs_kept = 0;
  DecomposedRun last;
  bool corrupt = cfg.corrupt_index;
  logcc::util::Timer budget;
  for (std::uint64_t id = 1;
       call.empty() || budget.seconds() < budget_s; ++id) {
    // Untraced end-to-end call, interleaved with the traced one, for
    // trace.overhead_s.
    {
      logcc::util::Timer t;
      auto r = logcc::connected_components(in, Algorithm::kFasterCC, opts);
      untraced.add(t.seconds());
      report.check(r.index == untraced_index,
                   "faster-cc changed between repetitions");
    }
    // The same call at every CPU: the scaling figure, faster_cc.speedup.
    {
      logcc::util::set_parallelism(cfg.nproc);
      logcc::util::Timer t;
      auto r = logcc::connected_components(in, Algorithm::kFasterCC, opts);
      nproc.add(t.seconds());
      logcc::util::set_parallelism(kTimedThreads);
      report.check(r.index == untraced_index,
                   "faster-cc at nproc threads != at one thread");
    }
    // The ingest trio compact() starts with, timed alone on the same input.
    double trio = 0.0;
    {
      ScopedSpan group(spans, "core/building_blocks", "ingest", id);
      std::vector<core::Arc> arcs;
      {
        ScopedSpan s(spans, "core/building_blocks", "arcs_from_input", id);
        arcs = core::arcs_from_input(in);
        ingest.add(s.close());
      }
      arcs_in = arcs.size();
      {
        ScopedSpan s(spans, "core/building_blocks", "drop_loops", id);
        core::drop_loops(arcs);
        drop.add(s.close());
      }
      {
        ScopedSpan s(spans, "core/building_blocks", "dedup_arcs", id);
        core::dedup_arcs(arcs);
        dedup.add(s.close());
      }
      arcs_kept = arcs.size();
      trio = group.close();
    }

    DecomposedRun run;
    ComponentIndex index;
    double build_s = 0.0, total = 0.0;
    {
      // connected_components' own arena scope, around faster-cc and the
      // index build alike.
      core::RoundArena round_arena;
      core::RoundArena::Scope arena_scope(round_arena);
      ScopedSpan root(spans, "core/connectivity", "connected_components", id);
      run = decomposed_faster_cc(in, cfg.algo_seed, spans, id);
      ScopedSpan s(spans, "core/component_index", "from_labels", id);
      index = ComponentIndex::from_labels(std::move(run.labels));
      build_s = s.close();
      total = root.close();
    }
    call.add(total);
    compact_s.add(run.compact_s);
    prepare_self.add(run.compact_s - trio);
    em.add(run.em_s);
    round_max.add(run.round_max_s);
    post.add(run.post_s);
    build.add(build_s);
    unaccounted.add(total - run.compact_s - run.em_s - run.post_s - build_s);
    if (corrupt) {
      index = corrupted(index);
      corrupt = false;
    }
    report.check(index == untraced_index,
                 "traced decomposition != connected_components");

    ScopedSpan s(spans, "core/connectivity", "verify_components", id);
    const bool ok = logcc::verify_components(in, index);
    verify.add(s.close());
    report.check(ok, "verify_components rejected the faster-cc index");
    last = std::move(run);
  }

  report.set("binary_io.validate_s", validate.median(), "s");
  report.set("binary_io.file_bytes", warm.info().file_bytes, "bytes");
  report.set("building_blocks.arcs_from_input_s", ingest.median(), "s");
  report.set("building_blocks.drop_loops_s", drop.median(), "s");
  report.set("building_blocks.dedup_s", dedup.median(), "s");
  report.set("building_blocks.arcs_in", arcs_in, "count");
  report.set("building_blocks.arcs_kept", arcs_kept, "count");
  report.set("compact.call_s", compact_s.median(), "s");
  report.set("compact.prepare_self_s", prepare_self.median(), "s");
  report.set("compact.prepare_phases", last.prepare_phases, "count");
  report.set("compact.n_compact", last.n_compact, "count");
  report.set("compact.arcs_out", last.arcs_out, "count");
  report.set("expand_maxlink.total_s", em.median(), "s");
  report.set("expand_maxlink.rounds", last.rounds, "count");
  report.set("expand_maxlink.round_max_s", round_max.median(), "s");
  report.set("expand_maxlink.hash_collisions", last.stats.hash_collisions,
             "count");
  report.set("expand_maxlink.level_raises", last.stats.level_raises, "count");
  report.set("expand_maxlink.peak_space_words", last.stats.peak_space_words,
             "words");
  report.set("cc_theorem1.post_s", post.median(), "s");
  report.set("cc_theorem1.remaining_arcs", last.remaining_arcs, "count");
  report.set("cc_theorem1.phases", last.post_phases, "count");
  report.set("cc_theorem1.finisher_used", last.stats.finisher_used ? 1 : 0,
             "count");
  report.set("component_index.build_s", build.median(), "s");
  report.set("connectivity.verify_s", verify.median(), "s");
  report.set("trace.unaccounted_s", unaccounted.median(), "s");
  report.set("trace.overhead_s", call.median() - untraced.median(), "s");
  report.set("faster_cc.nproc_s", nproc.median(), "s");
  report.set("faster_cc.speedup", untraced.median() / nproc.median(), "x");
  report.note("traced connected_components " + call.summary("s") +
              "; untraced " + untraced.summary("s") + "; at " +
              std::to_string(cfg.nproc) + " threads " + nproc.summary("s"));
}

}  // namespace perfbench
