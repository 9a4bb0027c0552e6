// Theorem 1 (§B): Connected Components in O(log d · log log_{m/n} n) time.
//
//   PREPARE; repeat { EXPAND; VOTE; LINK; SHORTCUT; ALTER } until no edge
//   exists other than loops.
//
// PREPARE densifies (core/prepare.hpp) when m/n is small; each phase then
// expands neighbour sets to balls of doubling radius (O(log d) inner
// rounds), elects leaders, and contracts, multiplying the density m/n' by a
// b^{Ω(1)} factor per phase — hence O(log log) phases.
#pragma once

#include <cstdint>
#include <vector>

#include "core/budget.hpp"
#include "core/building_blocks.hpp"
#include "core/metrics.hpp"
#include "core/vanilla.hpp"
#include "graph/graph.hpp"

namespace logcc::core {

struct Theorem1Params {
  std::uint64_t seed = 1;

  // Per-phase sizing from the density δ = m / n' (paper exponents in
  // comments): block size δ^block_exp (2/3), table |H(u)| = δ^table_exp
  // (1/3), progress parameter b = δ^b_exp (1/18). Practical defaults trade
  // the asymptotic constants for observable progress at laptop scale: at
  // δ = 64 the paper's exponents give 4-cell tables and b = 64^{1/18} < 2,
  // which the sizing clamps up to 2.
  double block_exp = 2.0 / 3.0;
  double table_exp = 2.0 / 3.0;
  double b_exp = 1.0 / 3.0;
  std::uint32_t min_table_capacity = 8;

  /// PREPARE (core/prepare.hpp) densifies until m/n' reaches this density
  /// (the paper's log^c n) or the graph is solved or the budget runs out;
  /// an input already this dense skips its sample.
  double prepare_target_density = 64.0;
  /// Budget of sample rounds plus Vanilla phases; kAutoPreparePhases =
  /// Θ(log log n), see vanilla.hpp for why a fixed budget exists. 0 turns
  /// PREPARE off.
  std::uint64_t prepare_max_phases = kAutoPreparePhases;

  /// 0 = automatic: C · log log_{m/n} n + K phases before the deterministic
  /// finisher takes over (it essentially never does; bench T4 measures it).
  std::uint64_t max_phases = 0;

  /// true  — n' counted exactly (the COMBINING CRCW assumption B.6);
  /// false — the ñ update rule of §B.5 (pure ARBITRARY CRCW).
  bool exact_count = true;

  /// Paper-faithful exponents. Its PREPARE target log^100 n exceeds any
  /// feasible m/n', and its phase budget is in the thousands, so at feasible
  /// n PREPARE runs until the graph is solved: the mode mostly degenerates
  /// to PREPARE.
  static Theorem1Params paper(std::uint64_t n, std::uint64_t m);
};

/// CSR-backed inputs ingest without an EdgeList; an EdgeList converts to
/// an ArcsInput view implicitly.
CcResult theorem1_cc(const graph::ArcsInput& in,
                     const Theorem1Params& params = {});

/// The one EXPAND/VOTE phase loop, in place on (forest, arcs), ending in
/// deterministic_contract when the phase budget runs out. Arcs must connect
/// roots of flat trees and hold no loops (u == v); every phase ends with
/// ALTER and drop_loops, so it keeps both true. Theorem 1 and the Theorem-3
/// postprocess run it plain: LINK to a leader in the expanded
/// neighbourhood, then SHORTCUT.
/// With `in_forest` set it is Theorem 2's loop: EXPAND keeps its history,
/// TREE-LINK (spanning_forest.hpp) links along input edges and marks them,
/// and TREE-SHORTCUT flattens. Each mode draws its own coins.
void theorem1_phases(ParentForest& forest, std::vector<Arc>& arcs,
                     std::uint64_t m0, const Theorem1Params& params,
                     RunStats& stats,
                     std::vector<std::uint8_t>* in_forest = nullptr);

}  // namespace logcc::core
