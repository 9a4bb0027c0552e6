// F3 — maximum level reached vs. the Lemma 3.19/D.23 bound.
//
// Paper claim reproduced: levels never exceed L = O(max{2, log log_{m/n} n})
// w.g.p. Under the practical policy the analogue of L is the saturation
// level (budget cap reached) plus a small constant for collision-forced
// raises; the measured max level must track it, not n.
#include "bench_support.hpp"
#include "core/budget.hpp"
#include "util/bitutil.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace logcc;
  using namespace logcc::bench;

  util::Cli cli(argc, argv);
  const int reps = static_cast<int>(cli.get_int("reps", 3, "seeds per cell"));
  cli.finish();

  header("F3: max level vs the Lemma 3.19/D.23 bound",
         "claim: levels stay O(log log n)-like (saturation level + O(1)), "
         "independent of n growth");

  util::TextTable table({"n", "m/n", "saturation L", "measured max level",
                         "level raises", "within L + slack"});
  bool ok = true;
  for (std::uint64_t n : {1024ULL, 4096ULL, 16384ULL, 65536ULL}) {
    for (std::uint64_t density : {2ULL, 8ULL}) {
      graph::EdgeList el = graph::make_gnm(n, density * n, n + density);
      const graph::ArcsInput in(el);
      core::ParamPolicy policy = core::ParamPolicy::practical(2 * n, el.edges.size());
      std::uint32_t max_level = 0;
      std::uint64_t raises = 0;
      for (int rep = 0; rep < reps; ++rep) {
        Options opt;
        opt.seed = 1000 + rep;
        auto r = connected_components(in, Algorithm::kFasterCC, opt);
        max_level = std::max(max_level, r.stats.max_level);
        raises += r.stats.level_raises;
      }
      std::uint32_t bound = policy.saturation_level() + 12;
      bool within = max_level <= bound;
      ok = ok && within;
      table.row()
          .add_int(static_cast<long long>(n))
          .add_int(static_cast<long long>(density))
          .add_int(policy.saturation_level())
          .add_int(max_level)
          .add_int(static_cast<long long>(raises / reps))
          .add(within ? "yes" : "NO");
    }
  }
  table.print();
  std::printf("\nshape check: all measured levels within bound: %s\n",
              ok ? "PASS" : "FAIL");
  return 0;
}
