// F1 — rounds vs. component diameter at (approximately) fixed n and m.
//
// Paper claims reproduced (shape, not constants):
//   * Theorem 3 (faster-cc): rounds ~ O(log d + log log n) — logarithmic in
//     d, nearly flat otherwise;
//   * Theorem 1: phases ~ O(log log n), but each phase pays O(log d) inner
//     expand rounds, so total PRAM steps ~ log d · log log n;
//   * Vanilla / Shiloach–Vishkin: Θ(log n) independent of d — flat lines
//     above the Thm-3 curve for small d, crossing under it nowhere.
//
// Workload: rows × cols grids with n = rows·cols fixed and aspect ratio
// swept (d = rows + cols − 2 varies over two orders of magnitude), plus a
// star (d = 2) and a path (d = n − 1) as the extremes.
#include <cinttypes>

#include "bench_support.hpp"
#include "util/cli.hpp"

namespace {

using namespace logcc;
using namespace logcc::bench;

struct DiamWorkload {
  std::string name;
  graph::EdgeList el;
  std::uint64_t diameter;
};

std::vector<DiamWorkload> workloads(std::uint64_t n) {
  std::vector<DiamWorkload> out;
  out.push_back({"star", graph::make_star(n), 2});
  for (std::uint64_t rows : {256ULL, 64ULL, 16ULL, 4ULL}) {
    std::uint64_t cols = n / rows;
    out.push_back({"grid" + std::to_string(rows) + "x" + std::to_string(cols),
                   graph::make_grid(rows, cols), rows + cols - 2});
  }
  out.push_back({"path", graph::make_path(n), n - 1});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::uint64_t n = static_cast<std::uint64_t>(
      cli.get_int("n", 65536, "vertices per workload"));
  const int reps = static_cast<int>(cli.get_int("reps", 3, "seeds per cell"));
  cli.finish();

  // For faster-cc and Theorem 1, expose the EXPAND-MAXLINK loop and the
  // phase loop to the full input diameter: PREPARE's sample contraction
  // solves most of these workloads alone, and a partial one would divide
  // every d by the same factor and compress the x-axis.
  Options no_prepare;
  no_prepare.faster.prepare_max_phases = 0;
  no_prepare.theorem1.prepare_max_phases = 0;

  header("F1: rounds vs diameter",
         "claim: Thm-3 rounds ~ log d (+ log log n); Thm-1 total steps ~ "
         "log d * log log n; Vanilla/SV ~ log n independent of d");

  const std::vector<Algorithm> algs = {
      Algorithm::kFasterCC, Algorithm::kTheorem1, Algorithm::kVanilla,
      Algorithm::kShiloachVishkin};

  util::TextTable table({"workload", "diameter", "log2(d)", "thm3-ml-rounds",
                         "thm3-prep", "thm1-phases", "thm1-expand-rounds",
                         "vanilla", "sv"});
  std::vector<double> log_d, thm3_rounds;
  for (const DiamWorkload& w : workloads(n)) {
    table.row().add(w.name).add_int(static_cast<long long>(w.diameter));
    table.add_double(std::log2(static_cast<double>(w.diameter)), 2);
    for (Algorithm alg : algs) {
      RunOutcome r = run_algorithm(
          w.el, alg, 17, reps,
          alg == Algorithm::kFasterCC || alg == Algorithm::kTheorem1
              ? no_prepare
              : Options{});
      if (!r.correct) std::printf("!! WRONG ANSWER: %s\n", to_string(alg));
      if (alg == Algorithm::kFasterCC) {
        // The log-d-sensitive term is the EXPAND-MAXLINK loop; COMPACT's
        // densification (prepare) is the additive log log term.
        log_d.push_back(std::log2(static_cast<double>(w.diameter)));
        thm3_rounds.push_back(static_cast<double>(r.stats.rounds));
        table.add_int(static_cast<long long>(r.stats.rounds));
        table.add_int(static_cast<long long>(r.stats.prepare_phases));
      } else if (alg == Algorithm::kTheorem1) {
        table.add_int(static_cast<long long>(r.stats.phases));
        table.add_int(static_cast<long long>(r.stats.expand_rounds));
      } else {
        table.add_int(static_cast<long long>(r.rounds));
      }
    }
  }
  table.print();

  // The bound is O(log d + log log n): an additive floor (break-detection
  // tail + the log log term) dominates small d, so fit the slope on the
  // large-d points and check the floor separately.
  std::vector<double> hi_x, hi_y;
  for (std::size_t i = 0; i < log_d.size(); ++i) {
    if (log_d[i] >= 8.0) {
      hi_x.push_back(log_d[i]);
      hi_y.push_back(thm3_rounds[i]);
    }
  }
  auto fit = util::linear_fit(hi_x, hi_y);
  std::printf(
      "\nfit (log2 d >= 8): faster-cc rounds ~ %.2f * log2(d) + %.2f  "
      "(r^2 = %.3f)\n",
      fit.slope, fit.intercept, fit.r2);
  bool monotone = true;
  for (std::size_t i = 1; i < thm3_rounds.size(); ++i)
    if (thm3_rounds[i] + 1.0 < thm3_rounds[i - 1]) monotone = false;
  bool spread = thm3_rounds.back() >= thm3_rounds.front() + 3.0;
  std::printf("shape check: positive slope (%.2f), monotone rounds (%s), "
              "path >= star + 3 (%s): %s\n",
              fit.slope, monotone ? "yes" : "no", spread ? "yes" : "no",
              fit.slope > 0.2 && monotone && spread ? "PASS"
                                                    : "INCONCLUSIVE");
  util::print_series("faster-cc rounds vs log2(d)", log_d, thm3_rounds,
                     "log2(d)", "rounds");
  return 0;
}
