// Shared helpers for the logcc test suites.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/graph_algos.hpp"
#include "util/parallel.hpp"

namespace logcc::testing {

/// Fixture for the determinism contract (README "Determinism contract"):
/// captures the ambient thread count and restores it after the test, so a
/// test can sweep util::set_parallelism(1 / 2 / 8) and assert bit-identical
/// results. hardware_parallelism() reflects whatever was last set, so the
/// original value must be captured before the test changes it.
class ThreadInvariance : public ::testing::Test {
 protected:
  void SetUp() override { original_threads_ = util::hardware_parallelism(); }
  void TearDown() override { util::set_parallelism(original_threads_); }

 private:
  int original_threads_ = 1;
};

/// Oracle labels (min id per component) for an edge list.
inline std::vector<graph::VertexId> oracle_labels(const graph::EdgeList& el) {
  return graph::bfs_components(graph::Graph::from_edges(el));
}

/// Asserts `labels` induces exactly the oracle partition.
inline ::testing::AssertionResult matches_oracle(
    const graph::EdgeList& el, const std::vector<graph::VertexId>& labels) {
  if (labels.size() != el.n)
    return ::testing::AssertionFailure()
           << "label vector has size " << labels.size() << ", expected "
           << el.n;
  auto oracle = oracle_labels(el);
  if (!graph::same_partition(oracle, labels))
    return ::testing::AssertionFailure()
           << "labels do not match the BFS oracle partition";
  return ::testing::AssertionSuccess();
}

/// A path of k spine vertices (ids k .. 2k-1) where spine vertex k + i
/// also has a private leaf i below every spine id and a private leaf
/// 2k + i above them. Each spine vertex's smallest and largest neighbours
/// are its leaves, so PREPARE's neighbour sample (core/prepare.hpp) holds
/// no spine edge: the whole spine survives the sample contraction.
inline graph::EdgeList hidden_spine(std::uint64_t k) {
  auto id = [](std::uint64_t v) { return static_cast<graph::VertexId>(v); };
  graph::EdgeList el;
  el.n = 3 * k;
  for (std::uint64_t i = 0; i < k; ++i) {
    el.add(id(k + i), id(i));
    el.add(id(k + i), id(2 * k + i));
    if (i + 1 < k) el.add(id(k + i), id(k + i + 1));
  }
  return el;
}

/// A small-but-varied collection of graphs exercising every structural
/// regime (empty, single edge, loops, high diameter, dense, skewed,
/// multi-component, and a spine PREPARE's sample misses).
inline std::vector<std::pair<std::string, graph::EdgeList>> small_zoo(
    std::uint64_t seed = 7) {
  using namespace graph;
  std::vector<std::pair<std::string, EdgeList>> zoo;
  EdgeList empty;
  empty.n = 5;
  zoo.emplace_back("empty5", empty);
  EdgeList single;
  single.n = 2;
  single.add(0, 1);
  zoo.emplace_back("single-edge", single);
  EdgeList loops;
  loops.n = 3;
  loops.add(0, 0);
  loops.add(1, 2);
  zoo.emplace_back("self-loops", loops);
  zoo.emplace_back("path64", make_path(64));
  zoo.emplace_back("cycle65", make_cycle(65));
  zoo.emplace_back("star40", make_star(40));
  zoo.emplace_back("grid8x9", make_grid(8, 9));
  zoo.emplace_back("tree127", make_binary_tree(127));
  zoo.emplace_back("complete16", make_complete(16));
  zoo.emplace_back("hypercube6", make_hypercube(6));
  zoo.emplace_back("gnm", make_gnm(128, 384, seed));
  zoo.emplace_back("rmat", make_rmat(7, 512, seed));
  zoo.emplace_back("pref", make_preferential(96, 3, seed));
  zoo.emplace_back("caterpillar", make_caterpillar(24, 3));
  zoo.emplace_back("lollipop", make_lollipop(12, 40));
  zoo.emplace_back("path-forest", make_path_forest(6, 17));
  zoo.emplace_back("hidden-spine", hidden_spine(40));
  return zoo;
}

}  // namespace logcc::testing
