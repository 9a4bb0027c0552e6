// PREPARE (§B.2), FOREST-PREPARE (§C.1) and COMPACT's densification (§D)
// as one entry that also ingests the input.
//
// PREPARE only has to shrink the ongoing set before the O(log d) loop, so
// it need not touch every arc once per phase. Following the sampling idea
// of Afforest (Sutton, Ben-Nun, Barak, IPDPS 2018) and ConnectIt
// (Dhulipala, Hong, Shun, VLDB 2021), `prepare` runs four steps:
//
//   1. SAMPLE   — each vertex's smallest and largest non-self neighbour
//                 (the ends of a sorted CSR row; one packed fetch-min /
//                 fetch-max pass over an edge span), each sampled edge
//                 emitted once, carrying the smallest canonical index
//                 among the copies of its edge;
//   2. CONTRACT — deterministic_contract on the sample (min-label hooking,
//                 thread-count invariant, marks `in_forest`), capped at the
//                 PREPARE budget; its rounds count as prepare_phases;
//   3. FILTER   — one fused pass over the input's canonical edges: every
//                 edge whose endpoints' roots differ becomes the arc
//                 (root(u), root(v), orig); only these survivors are
//                 deduped. No m-sized arc vector of the input is built.
//   4. VANILLA  — vanilla_prepare on the survivors with the rest of the
//                 budget and the density rule.
//
// max_phases == 0, or an input whose density (edges / vertices with a
// non-self neighbour) already meets the target, skips steps 1–2; step 3
// then yields exactly arcs_from_input + drop_loops + dedup_arcs, and step 4
// runs as PREPARE did before the sample existed.
#pragma once

#include <cstdint>
#include <vector>

#include "core/building_blocks.hpp"
#include "core/labels.hpp"
#include "core/metrics.hpp"
#include "core/vanilla.hpp"
#include "graph/arcs_input.hpp"

namespace logcc::core {

struct Prepared {
  /// Loop-free, deduped arcs on roots of flat trees, `orig` kept.
  std::vector<Arc> arcs;
  /// The edge count the densities are measured against: the deduped arc
  /// count when the sample was skipped, otherwise the input's edge count
  /// (parallel copies and self-loops counted; deduping all of them is what
  /// the sample avoids). At least 1.
  std::uint64_t m0 = 1;
};

/// Resets `forest` to the identity on the input's n vertices and runs the
/// four steps above. `max_phases` (kAutoPreparePhases resolves through
/// prepare_phase_budget) caps sample rounds plus Vanilla phases; Vanilla
/// phase p draws its coins from mix64(seed, salt + p). `in_forest` (sized
/// to the input's edge count) receives every hook's input edge, as
/// Vanilla-SF does; `ongoing` receives vanilla_prepare's final marking.
/// stats.prepare_phases counts sample rounds and Vanilla phases, and
/// stats.prepare_used is set iff any ran. Results are identical for every
/// thread count, and for a CSR input and its canonical edge list.
Prepared prepare(const graph::ArcsInput& in, ParentForest& forest,
                 double target_density, std::uint64_t max_phases,
                 std::uint64_t seed, std::uint64_t salt, RunStats& stats,
                 std::vector<std::uint8_t>* in_forest = nullptr,
                 OngoingSet* ongoing = nullptr);

/// Step 1 alone: every sampled edge once, as (v, w, orig) from the vertex
/// v that emits it, vertices ascending and each vertex's smaller pick
/// first.
std::vector<Arc> neighbour_sample(const graph::ArcsInput& in);

}  // namespace logcc::core
