// bench_sketch — error-vs-space curves for the approximate tier, reported
// into the canonical logcc-bench-v1 bench.json.
//
//   $ ./bench_sketch --generate=rmat:200000 [--reps=3] [--seed=1]
//                    [--json=bench_sketch.json]
//
// One materialized ground truth (exact distinct edges, exact component
// labels and sizes) is swept against the sketches at increasing space:
// HyperLogLog precisions {8,10,12,14} over the edge stream and over the
// component labels, count-min widths {2^10..2^16} over the label
// multiplicities. Each rep re-seeds the *sketch* (the graph is fixed), so
// the reps sample the estimator's own error distribution.
//
// bench.json cells (all under the one "runs" array the gate reads):
//   hll-edges-p<P>      : distinct-edge cardinality at precision P
//   hll-components-p<P> : component-count cardinality at precision P
//   cms-sizes-w<W>      : component-size frequency table at width W
// Every cell carries "rel_error" and "bytes" next to "seconds";
// scripts/bench_compare.py gates these cells on rel_error at fixed space
// (mean across reps, --error-floor), not on seconds — sketch build time is
// noise, the accuracy-per-byte curve is the contract.
#include <algorithm>
#include <cinttypes>
#include <span>

#include "bench_support.hpp"
#include "sketch/count_min.hpp"
#include "sketch/hyperloglog.hpp"
#include "util/parallel.hpp"

namespace {

using namespace logcc;

struct Cell {
  std::string algorithm;
  int rep = 0;
  double seconds = 0.0;
  double estimate = 0.0;
  double exact = 0.0;
  double rel_error = 0.0;
  std::uint64_t bytes = 0;
};

/// Canonical undirected key, the StreamStats convention: (lo << 32) | hi.
std::uint64_t edge_key(graph::VertexId u, graph::VertexId v) {
  const graph::VertexId lo = u < v ? u : v;
  const graph::VertexId hi = u < v ? v : u;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace logcc::bench;

  util::Cli cli(argc, argv);
  const std::string generate = cli.get_string(
      "generate", "rmat:200000", "family:n[:seed] graph to sketch");
  const int reps = static_cast<int>(
      cli.get_int("reps", 3, "sketch re-seedings per cell"));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1, "base sketch seed"));
  const std::string json_path = cli.get_string(
      "json", "", "write the logcc-bench-v1 document here ('-' = stdout)");
  cli.finish();

  if (reps < 1) {
    std::fprintf(stderr, "bench_sketch: --reps must be >= 1\n");
    return 2;
  }
  std::string family;
  std::uint64_t n = 0;
  std::uint64_t gseed = 1;
  if (!graph::parse_generator_spec(generate, family, n, gseed)) {
    std::fprintf(stderr, "bench_sketch: bad --generate spec '%s'\n",
                 generate.c_str());
    return 2;
  }

  // Ground truth, computed once: canonical edge keys (distinct count), and
  // canonical min-id component labels (distinct count + multiplicities).
  const graph::EdgeList el = graph::make_family(family, n, gseed);
  std::vector<std::uint64_t> keys(el.edges.size());
  util::parallel_for(0, el.edges.size(), [&](std::size_t i) {
    keys[i] = edge_key(el.edges[i].u, el.edges[i].v);
  });
  std::vector<std::uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  const auto exact_distinct = static_cast<double>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
  auto r = connected_components(el, Algorithm::kFasterCC, {});
  const std::vector<graph::VertexId> labels = r.labels();
  const auto exact_components = static_cast<double>(r.num_components());
  std::vector<std::uint64_t> exact_size(el.n, 0);
  for (graph::VertexId l : labels) ++exact_size[l];

  header("sketch: error vs space",
         "HLL cardinality and count-min frequency error as a function of "
         "sketch bytes, against one exact ground truth");
  std::printf("graph %s: n=%" PRIu64 " edges=%zu distinct=%.0f "
              "components=%.0f, %d reps (backend=%s)\n\n",
              generate.c_str(), el.n, el.edges.size(), exact_distinct,
              exact_components, reps, util::parallel_backend_name());

  std::vector<Cell> cells;
  const std::span<const std::uint64_t> key_span(keys);
  const std::span<const graph::VertexId> label_span(labels);

  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t s = seed + 7919ULL * static_cast<std::uint64_t>(rep);
    for (int p : {8, 10, 12, 14}) {
      {
        util::Timer t;
        sketch::HyperLogLog hll(p, s);
        hll.add_parallel(key_span);
        Cell c;
        c.algorithm = "hll-edges-p" + std::to_string(p);
        c.rep = rep;
        c.seconds = t.seconds();
        c.estimate = hll.estimate();
        c.exact = exact_distinct;
        c.rel_error = std::abs(c.estimate - c.exact) / c.exact;
        c.bytes = hll.serialize().size();
        cells.push_back(std::move(c));
      }
      {
        util::Timer t;
        sketch::HyperLogLog hll(p, s);
        hll.add_parallel(label_span);
        Cell c;
        c.algorithm = "hll-components-p" + std::to_string(p);
        c.rep = rep;
        c.seconds = t.seconds();
        c.estimate = hll.estimate();
        c.exact = exact_components;
        c.rel_error = std::abs(c.estimate - c.exact) / c.exact;
        c.bytes = hll.serialize().size();
        cells.push_back(std::move(c));
      }
    }
    for (int w : {1 << 10, 1 << 12, 1 << 14, 1 << 16}) {
      util::Timer t;
      sketch::CountMinSketch cms(4, static_cast<std::uint32_t>(w), s,
                                 sketch::CmsUpdate::kStandard);
      cms.add_parallel(label_span);
      // The count-min error metric: mean overestimate across the true
      // components, normalized by stream mass N (the quantity epsilon*N
      // bounds). Overestimate-only, so no abs() — a negative value would be
      // a bug, and the accuracy tests assert exactly that.
      double over = 0.0;
      std::uint64_t roots = 0;
      for (graph::VertexId v = 0; v < el.n; ++v) {
        if (exact_size[v] == 0) continue;
        ++roots;
        over += static_cast<double>(cms.estimate(v) - exact_size[v]);
      }
      Cell c;
      c.algorithm = "cms-sizes-w" + std::to_string(w);
      c.rep = rep;
      c.seconds = t.seconds();
      c.estimate = over / static_cast<double>(roots);  // mean overestimate
      c.exact = static_cast<double>(cms.total());
      c.rel_error = c.estimate / static_cast<double>(cms.total());
      c.bytes = cms.serialize().size();
      cells.push_back(std::move(c));
    }
  }

  std::printf("%-20s %3s %12s %12s %10s %10s\n", "cell", "rep", "estimate",
              "exact", "rel-err", "bytes");
  for (const Cell& c : cells)
    std::printf("%-20s %3d %12.1f %12.1f %9.5f%% %10" PRIu64 "\n",
                c.algorithm.c_str(), c.rep, c.estimate, c.exact,
                100.0 * c.rel_error, c.bytes);

  if (!json_path.empty()) {
    std::FILE* out =
        json_path == "-" ? stdout : std::fopen(json_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "bench_sketch: cannot write '%s'\n",
                   json_path.c_str());
      return 2;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"schema\": \"logcc-bench-v1\",\n"
                 "  \"driver\": \"bench_sketch\",\n"
                 "  \"runtime\": {\"backend\": \"%s\", \"grain\": %zu},\n"
                 "  \"dataset\": {\"name\": \"%s\", \"source\": \"generator\", "
                 "\"n\": %" PRIu64 ", \"edges\": %zu, \"distinct\": %.0f, "
                 "\"components\": %.0f},\n"
                 "  \"sketch\": {\"reps\": %d, \"seed\": %" PRIu64 "},\n"
                 "  \"runs\": [\n",
                 util::parallel_backend_name(), util::parallel_grain(),
                 json_escape(generate).c_str(), el.n, el.edges.size(),
                 exact_distinct, exact_components, reps, seed);
    const int hw = util::hardware_parallelism();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(out,
                   "    {\"algorithm\": \"%s\", \"threads\": %d, \"rep\": %d"
                   ", \"seconds\": %.6f, \"estimate\": %.3f, \"exact\": %.3f"
                   ", \"rel_error\": %.8f, \"bytes\": %" PRIu64 "}%s\n",
                   json_escape(c.algorithm).c_str(), hw, c.rep, c.seconds,
                   c.estimate, c.exact, c.rel_error, c.bytes,
                   i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    if (out != stdout) std::fclose(out);
    if (json_path != "-")
      std::printf("\nwrote %s (logcc-bench-v1, %zu cells)\n",
                  json_path.c_str(), cells.size());
  }
  return 0;
}
