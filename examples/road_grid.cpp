// Road-network scenario: grid graphs have Θ(√n) diameter — the regime where
// the log-d dependence is visible and the additive vs multiplicative
// log log n separation between Theorem 3 and Theorem 1 matters.
//
//   $ ./examples/road_grid [--rows=64] [--cols=512]
//
// Sweeps grid aspect ratios at fixed n and prints rounds as the diameter
// grows — the Theorem-3 column should track log2(d), the Vanilla column
// should stay ~flat at Θ(log n).
#include <cmath>
#include <cstdio>

#include "core/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace logcc;

  util::Cli cli(argc, argv);
  const std::uint64_t n = static_cast<std::uint64_t>(
      cli.get_int("n", 32768, "total vertices (split across aspect ratios)"));
  cli.finish();

  std::printf("grid aspect sweep at n=%llu\n",
              static_cast<unsigned long long>(n));
  util::TextTable table({"grid", "diameter", "log2(d)", "faster-cc rounds",
                         "vanilla phases", "faster-cc ms", "bfs ms"});
  for (std::uint64_t rows : {181ULL, 64ULL, 16ULL, 4ULL, 1ULL}) {
    std::uint64_t cols =
        std::max<std::uint64_t>(2, n / std::max<std::uint64_t>(rows, 1));
    graph::EdgeList g = rows == 1 ? graph::make_path(cols)
                                  : graph::make_grid(rows, cols);
    std::uint64_t d = rows == 1 ? cols - 1 : rows + cols - 2;

    const graph::ArcsInput in(g);
    auto fast = connected_components(in, Algorithm::kFasterCC);
    auto vanilla = connected_components(in, Algorithm::kVanilla);
    auto bfs = connected_components(in, Algorithm::kBFS);

    char name[32];
    std::snprintf(name, sizeof name, "%llux%llu",
                  static_cast<unsigned long long>(rows),
                  static_cast<unsigned long long>(cols));
    table.row()
        .add(name)
        .add_int(static_cast<long long>(d))
        .add_double(std::log2(static_cast<double>(d)), 1)
        .add_int(static_cast<long long>(fast.stats.rounds))
        .add_int(static_cast<long long>(vanilla.stats.phases))
        .add_double(fast.seconds * 1e3, 1)
        .add_double(bfs.seconds * 1e3, 1);
  }
  table.print();
  std::printf("\nreading: faster-cc rounds grow with log2(d); vanilla is "
              "pinned at ~log2(n)=%.0f regardless.\n",
              std::log2(static_cast<double>(n)));
  return 0;
}
