// The paper's four building blocks (§2.2) over an arc list:
//
//   * ALTER        — replace every edge {v,w} by {v.p, w.p};
//   * direct LINK / parent LINK — applied inside the algorithm drivers;
//   * SHORTCUT     — lives on ParentForest (labels.hpp);
//   * expansion    — lives in hash_table/expand/expand_maxlink.
//
// Arcs carry the index of the original input edge they were altered from
// (`orig`), which is what lets the spanning-forest algorithm mark tree edges
// of the *input* graph (the ê/e distinction of §C).
//
// Ingestion and the arc kernels (ALTER, loop drop, dedup, the non-loop
// test) serve both index widths from one body each, so a wide run of a
// graph that fits 32 bits sees the same arc sequence as the narrow run.
#pragma once

#include <cstdint>
#include <vector>

#include "core/labels.hpp"
#include "core/metrics.hpp"
#include "graph/arcs_input.hpp"
#include "graph/graph.hpp"

namespace logcc::core {

/// One arc of the working list, at index width V. `orig` is the index of
/// the input edge it was altered from, in the input's OrigId type (uint32
/// narrow, uint64 wide).
template <typename V>
struct BasicArc {
  V u = 0;
  V v = 0;
  typename graph::BasicArcsInput<V>::OrigId orig = 0;
  friend bool operator==(const BasicArc&, const BasicArc&) = default;
};

using Arc = BasicArc<VertexId>;
using Arc64 = BasicArc<VertexId64>;

/// Builds the initial arc list from the input: one Arc per undirected edge
/// (algorithms enumerate both directions). Edge-backed inputs copy the span
/// in parallel; CSR-backed inputs scatter arcs straight out of the (mmap'd)
/// adjacency with a blocked parallel emit, no intermediate EdgeList. The
/// emitted (u, v, orig) sequence for a CSR is exactly the one its canonical
/// edge list (edge_list_from_csr) yields, so every downstream result is
/// bit-identical between the two paths, for every thread count.
std::vector<Arc> arcs_from_input(const graph::ArcsInput& in);
std::vector<Arc64> arcs_from_input(const graph::ArcsInput64& in);

// The kernels below are templates over the index width, defined and
// explicitly instantiated for VertexId and VertexId64 in building_blocks.cpp.

/// ALTER: every arc (u, v) becomes (u.p, v.p); `orig` is preserved.
/// Data-parallel map over the arcs.
template <typename V>
void alter(std::vector<BasicArc<V>>& arcs, const BasicParentForest<V>& forest);

/// Drops self-loop arcs (u == v) with a stable parallel pack. Returns the
/// number removed.
template <typename V>
std::uint64_t drop_loops(std::vector<BasicArc<V>>& arcs);

/// Dedup on (u, v) treating arcs as undirected; keeps the minimum `orig`
/// per surviving pair. Controls arc-list growth after ALTERs. Small lists
/// sort+unique serially; large ones bucket-partition by mix64(u) high bits
/// and sort buckets in parallel. The path is chosen by size only, so for a
/// given input the output (including its order) is identical on every
/// thread count — and on both widths, for ids that fit both. A is
/// BasicArc<V> at either width, or graph::Edge (no orig: the Liu–Tarjan
/// baselines' ALTER working list).
template <typename A>
void dedup_arcs(std::vector<A>& arcs);

/// True iff some arc is not a self-loop — the paper's "no edge exists other
/// than loops" break condition, negated.
template <typename V>
bool has_nonloop(const std::vector<BasicArc<V>>& arcs);

/// Flags the ongoing vertices of a phase — the endpoints of non-loop arcs
/// — in `flags` (resized to n, 1 = ongoing) and returns their count, the
/// paper's n'. Idempotent byte stores plus a reduce over n, so both the
/// flags and the count are identical for every thread count. Phase loops
/// hoist `flags`, so steady-state phases reuse its capacity.
std::uint64_t mark_ongoing(std::uint64_t n, const std::vector<Arc>& arcs,
                           std::vector<std::uint8_t>& flags);

/// Guaranteed-convergent finisher (DESIGN.md §5.3): deterministic
/// Boruvka-style min-label hooking + full flatten + ALTER until no non-loop
/// arc remains. O(log n) rounds worst case, no randomness. Used when a
/// randomized driver exhausts its round budget, and as the last stage of
/// Theorem-3 runs. Returns the number of rounds. With `in_forest` set it
/// records, for every hook, the input edge that realised it
/// (`(*in_forest)[orig] = 1`), so it also finishes a spanning forest.
std::uint64_t deterministic_contract(
    ParentForest& forest, std::vector<Arc>& arcs, RunStats& stats,
    std::vector<std::uint8_t>* in_forest = nullptr);

}  // namespace logcc::core
