// Shiloach–Vishkin (1982) connected components — the classical O(log n)-time
// ARBITRARY CRCW PRAM algorithm the paper's introduction departs from.
//
// This is the fast "synchronous vector" rendering: each PRAM step is one
// sequential sweep over the parent array or the edges, with no processor
// simulation; the step-faithful on-simulator version lives in
// pram/sv_on_pram.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/arcs_input.hpp"
#include "graph/graph.hpp"

namespace logcc::baselines {

/// Labels plus round count, at index width V (the sequential union-find
/// baseline runs at both widths; the rest are narrow).
template <typename V>
struct BasicBaselineResult {
  std::vector<V> labels;
  std::uint64_t rounds = 0;
};

using BaselineResult = BasicBaselineResult<graph::VertexId>;

/// Original-style Shiloach–Vishkin: shortcut, hook-smaller, stagnant hook
/// (via Q stamps), shortcut; O(log n) rounds. Sweeps the edges straight off
/// the input's backing storage every round (zero-copy for CSR datasets).
BaselineResult shiloach_vishkin(const graph::ArcsInput& in);

}  // namespace logcc::baselines
