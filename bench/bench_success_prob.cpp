// T4 — success probability ("with good probability").
//
// Paper claim reproduced: the randomized drivers meet their round budgets
// with probability 1 − 1/poly(·). Operationally: across many seeds, the
// guaranteed-convergent finisher should essentially never fire and the
// answer is always correct (correctness is unconditional by construction;
// the finisher rate is the measured failure probability of the randomized
// part).
#include "bench_support.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace logcc;
  using namespace logcc::bench;

  util::Cli cli(argc, argv);
  const int seeds = static_cast<int>(cli.get_int("seeds", 60, "seed count"));
  cli.finish();

  header("T4: success probability across seeds",
         "claim: round budgets met w.g.p. — finisher-rate ~ 0, correctness "
         "always (finisher firing is the observable 'bad event')");

  util::TextTable table({"workload", "algorithm", "seeds", "wrong answers",
                         "finisher fired", "mean rounds", "max rounds"});
  struct Cell {
    const char* name;
    graph::EdgeList el;
  };
  std::vector<Cell> cells;
  cells.push_back({"gnm n=2048 m=6144", graph::make_gnm(2048, 6144, 1)});
  cells.push_back({"path n=2048", graph::make_path(2048)});
  cells.push_back({"rmat 2^11", graph::make_rmat(11, 16384, 2)});

  bool any_wrong = false;
  for (const Cell& cell : cells) {
    auto oracle =
        graph::bfs_components(graph::Graph::from_edges(cell.el));
    const graph::ArcsInput in(cell.el);
    for (Algorithm alg : {Algorithm::kFasterCC, Algorithm::kTheorem1,
                          Algorithm::kVanilla}) {
      int wrong = 0, finisher = 0;
      util::Accumulator rounds;
      for (int s = 1; s <= seeds; ++s) {
        Options opt;
        opt.seed = static_cast<std::uint64_t>(s) * 2654435761ULL + 17;
        auto r = connected_components(in, alg, opt);
        wrong += !graph::same_partition(oracle, r.labels());
        finisher += r.stats.finisher_used;
        rounds.add(static_cast<double>(progress_rounds(r)));
      }
      any_wrong = any_wrong || wrong > 0;
      auto s = rounds.summary();
      table.row()
          .add(cell.name)
          .add(to_string(alg))
          .add_int(seeds)
          .add_int(wrong)
          .add_int(finisher)
          .add_double(s.mean, 1)
          .add_double(s.max, 0);
    }
  }
  table.print();
  std::printf("\nshape check: zero wrong answers: %s\n",
              any_wrong ? "FAIL" : "PASS");
  return 0;
}
