// Social-network scenario: skewed-degree, low-diameter graphs — the workload
// class the paper's introduction motivates ("graphs of internet scale ...
// many graphs in applications have components of small diameter").
//
//   $ ./examples/social_components [--scale=14] [--edges-per-vertex=8]
//
// Generates an RMAT graph, computes components with the Theorem-3 algorithm,
// prints the component-size distribution, and compares round counts against
// the O(log n) classics — on low-diameter inputs the log-d algorithm should
// need fewer progress rounds than Θ(log n).
#include <cstdio>

#include "core/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace logcc;

  util::Cli cli(argc, argv);
  const std::uint32_t scale = static_cast<std::uint32_t>(
      cli.get_int("scale", 14, "log2 of vertex count"));
  const std::uint64_t epv = static_cast<std::uint64_t>(
      cli.get_int("edges-per-vertex", 8, "average degree"));
  cli.finish();

  graph::EdgeList g = graph::make_rmat(scale, epv << scale, 7);
  std::printf("RMAT scale=%u: n=%llu m=%llu\n", scale,
              static_cast<unsigned long long>(g.n),
              static_cast<unsigned long long>(g.edges.size()));

  const graph::ArcsInput in(g);
  auto r = connected_components(in, Algorithm::kFasterCC);
  auto sizes = graph::component_sizes(r.labels());
  std::printf("\ncomponents: %llu; largest:",
              static_cast<unsigned long long>(r.num_components()));
  for (std::size_t i = 0; i < std::min<std::size_t>(5, sizes.size()); ++i)
    std::printf(" %llu", static_cast<unsigned long long>(sizes[i]));
  std::printf("\ngiant component covers %.1f%% of vertices\n",
              100.0 * static_cast<double>(sizes.empty() ? 0 : sizes[0]) /
                  static_cast<double>(g.n));

  graph::Graph csr = graph::Graph::from_edges(g);
  std::printf("pseudo-diameter: %llu (low, as social graphs are)\n",
              static_cast<unsigned long long>(graph::pseudo_diameter(csr)));

  std::printf("\nalgorithm comparison (low-diameter regime):\n");
  util::TextTable table({"algorithm", "progress rounds", "ms", "components"});
  for (Algorithm alg :
       {Algorithm::kFasterCC, Algorithm::kTheorem1, Algorithm::kVanilla,
        Algorithm::kShiloachVishkin, Algorithm::kUnionFind}) {
    auto res = connected_components(in, alg);
    table.row()
        .add(to_string(alg))
        .add_int(static_cast<long long>(res.stats.rounds + res.stats.phases))
        .add_double(res.seconds * 1e3, 1)
        .add_int(static_cast<long long>(res.num_components()));
  }
  table.print();
  return 0;
}
