// Quickstart: the 30-second tour of the logcc public API.
//
//   $ ./examples/quickstart
//
// Builds a random graph, runs the paper's Theorem-3 algorithm, checks the
// answer against sequential BFS, and prints the cost metrics the paper's
// theorems bound.
#include <cstdio>

#include "core/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"

int main() {
  using namespace logcc;

  // 1. A graph: any EdgeList works — generators, file I/O, or build your own.
  graph::EdgeList g = graph::make_gnm(/*n=*/100'000, /*m=*/400'000,
                                      /*seed=*/42);

  // 2. Connected components with the O(log d + log log_{m/n} n) algorithm.
  // The EdgeList converts implicitly to an ArcsInput, the zero-copy front
  // door (CSR datasets plug in the same way); the result carries a
  // ComponentIndex snapshot.
  ComponentsResult r = connected_components(g);  // kFasterCC

  // 3. labels()[v] == labels()[w] iff v and w are connected; the index also
  // answers point queries directly.
  std::printf("n=%llu m=%llu components=%llu largest-component=%llu\n",
              static_cast<unsigned long long>(g.n),
              static_cast<unsigned long long>(g.edges.size()),
              static_cast<unsigned long long>(r.num_components()),
              static_cast<unsigned long long>(r.index.component_size(
                  r.index.component_of(0))));

  // 4. The metrics the paper's theorems are about.
  std::printf("EXPAND-MAXLINK rounds: %llu  (Thm 3: O(log d + log log n))\n",
              static_cast<unsigned long long>(r.stats.rounds));
  std::printf("postprocess phases:    %llu\n",
              static_cast<unsigned long long>(r.stats.phases));
  std::printf("peak space (words):    %llu  (Thm 3: O(m))\n",
              static_cast<unsigned long long>(r.stats.peak_space_words));
  std::printf("max level reached:     %u   (Lemma 3.19: O(log log n))\n",
              r.stats.max_level);
  std::printf("wall clock:            %.1f ms\n", r.seconds * 1e3);

  // 5. Sanity: agree with sequential BFS.
  auto oracle = graph::bfs_components(graph::Graph::from_edges(g));
  std::printf("matches BFS oracle:    %s\n",
              graph::same_partition(oracle, r.labels()) ? "yes" : "NO");

  // 6. A spanning forest of the same graph (Theorem 2).
  ForestResult f = spanning_forest(g);
  std::printf("spanning forest edges: %llu (= n - #components: %s)\n",
              static_cast<unsigned long long>(f.forest_edges.size()),
              f.forest_edges.size() == g.n - r.num_components() ? "yes" : "NO");
  return 0;
}
