// Vanilla algorithm (§B.1) — Reif's random-vote leader contraction recast in
// the paper's framework — and Vanilla-SF (§C.1), its spanning-forest variant.
//
// Used three ways: standalone O(log n) randomized baseline, the Vanilla
// stage (`vanilla_prepare`) of the one PREPARE entry (core/prepare.hpp)
// that Theorem 1's PREPARE, Theorem 2's FOREST-PREPARE and Theorem 3's
// COMPACT all call, and the contraction of the wide faster-cc bridge.
#pragma once

#include <cstdint>
#include <vector>

#include "core/building_blocks.hpp"
#include "core/labels.hpp"
#include "core/metrics.hpp"
#include "graph/graph.hpp"

namespace logcc::core {

struct VanillaOptions {
  std::uint64_t seed = 1;
  /// 0 = run until no non-loop edge remains; otherwise stop after this many
  /// phases (the PREPARE use).
  std::uint64_t max_phases = 0;
};

/// Runs Vanilla phases in place on (forest, arcs). Arcs must connect roots of
/// flat trees (true initially and re-established every phase). Returns the
/// number of phases executed; RunStats::phases/pram_steps are advanced.
/// One body serves both index widths (instantiated in vanilla.cpp): coins
/// depend on the vertex's numeric id, so a wide run of a graph that fits 32
/// bits reproduces the narrow run's labels value for value.
template <typename V>
std::uint64_t vanilla_phases(BasicParentForest<V>& forest,
                             std::vector<BasicArc<V>>& arcs,
                             const VanillaOptions& opt, RunStats& stats);

/// PREPARE phase-budget sentinel, shared by Theorem1Params, CompactParams
/// and FasterCcParams. It resolves to Θ(log log n) steps — the paper's
/// fixed PREPARE budget (c · log_{8/7} log n) — shared by the sample
/// contraction's rounds and the Vanilla phases after it. Without it the
/// sample contraction would run its O(log n) worst-case rounds, and the
/// Vanilla stage would contract a sparse remnant all the way down.
inline constexpr std::uint64_t kAutoPreparePhases =
    static_cast<std::uint64_t>(-1);

/// `max_phases` with kAutoPreparePhases resolved against (n, m0):
/// 2 · loglog_density(n, m0) + 4.
std::uint64_t prepare_phase_budget(std::uint64_t n, std::uint64_t m0,
                                   std::uint64_t max_phases);

/// The ongoing vertices as mark_ongoing leaves them: n byte flags and
/// their count.
struct OngoingSet {
  std::vector<std::uint8_t> flags;
  std::uint64_t count = 0;
};

/// The Vanilla stage of PREPARE (core/prepare.hpp), on the arcs that
/// survive its sample contraction: one-phase Vanilla steps on (forest,
/// arcs) until m0 / #ongoing reaches `target_density`, no non-loop arc
/// remains, or `max_phases` phases ran (resolved by prepare_phase_budget).
/// Each iteration marks the ongoing set first, so the loop ends on a
/// marking of the final arcs; `ongoing`, when given, receives it. Phase p
/// (from 0) draws its coins from mix64(seed, salt + p). With `in_forest`
/// set it runs Vanilla-SF: every LINK marks its input edge
/// (`(*in_forest)[orig] = 1`).
/// The phases are counted in stats.prepare_phases, not stats.phases, and
/// stats.prepare_used is set iff at least one ran. Returns that count.
std::uint64_t vanilla_prepare(ParentForest& forest, std::vector<Arc>& arcs,
                              std::uint64_t m0, double target_density,
                              std::uint64_t max_phases, std::uint64_t seed,
                              std::uint64_t salt, RunStats& stats,
                              std::vector<std::uint8_t>* in_forest = nullptr,
                              OngoingSet* ongoing = nullptr);

/// Standalone Vanilla connected components, at either index width
/// (CSR-backed inputs ingest without an EdgeList).
CcResult vanilla_cc(const graph::ArcsInput& in, std::uint64_t seed = 1);
CcResult64 vanilla_cc(const graph::ArcsInput64& in, std::uint64_t seed = 1);

struct VanillaSfResult {
  std::vector<std::uint64_t> forest_edges;  // canonical edge indices
  RunStats stats;
};

/// Standalone Vanilla-SF spanning forest.
VanillaSfResult vanilla_sf(const graph::ArcsInput& in, std::uint64_t seed = 1);

}  // namespace logcc::core
