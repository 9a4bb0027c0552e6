// Theorem 3 (§3/§D): Faster Connected Components in
// O(log d + log log_{m/n} n) time.
//
//   COMPACT; repeat { EXPAND-MAXLINK } until the graph has diameter ≤ 1 and
//   all trees are flat; run the Theorem-1 algorithm on the remaining graph.
//
// The repeat loop halves the diameter every round (each root connects to
// everything within distance 2, Lemma 3.20/D.24) while the level/budget
// machinery keeps total space O(m); the additive log log term comes from
// COMPACT's PREPARE and the postprocess.
#pragma once

#include <cstdint>
#include <optional>

#include "core/budget.hpp"
#include "core/cc_theorem1.hpp"
#include "core/metrics.hpp"
#include "graph/arcs_input.hpp"
#include "graph/graph.hpp"

namespace logcc::core {

struct FasterCcParams {
  std::uint64_t seed = 1;
  ParamPolicy::Kind policy = ParamPolicy::Kind::kPractical;

  /// When set, used verbatim instead of deriving a policy from (n, m) —
  /// the ablation benches tweak growth/raise exponents/table shape here.
  std::optional<ParamPolicy> policy_override;

  /// COMPACT / PREPARE density target (the paper's log^c n).
  double prepare_target_density = 64.0;
  /// Sentinel = Θ(log log n) auto budget (see Theorem1Params).
  static constexpr std::uint64_t kAutoPreparePhases =
      static_cast<std::uint64_t>(-1);
  std::uint64_t prepare_max_phases = kAutoPreparePhases;

  /// 0 = automatic: C·(log2 n + log log n) + K rounds before the
  /// deterministic finisher takes over.
  std::uint64_t max_rounds = 0;

  /// Parameters for the Theorem-1 postprocess on the remaining graph.
  Theorem1Params postprocess;
};

/// CSR-backed inputs ingest without an EdgeList.
CcResult faster_cc(const graph::ArcsInput& in,
                   const FasterCcParams& params = {});

/// faster-cc on a 64-bit-index input, through a narrowing bridge (the
/// EXPAND/MAXLINK table machinery is 32-bit). Inputs whose vertex and edge
/// counts both fit `narrow_threshold` (capped at 2^32 - 1) delegate
/// straight to the narrow faster_cc — bit-identical to a native narrow run.
/// Larger inputs first contract with wide Vanilla phases until at most
/// narrow_threshold / 2 arcs remain, rename the survivors into a dense
/// 32-bit space, finish there with the narrow faster_cc, and map labels
/// back through the wide forest; that branch's exact labels differ from a
/// narrow run, its canonical partition does not. Lowering
/// `narrow_threshold` (tests) forces the contract branch at small scale.
CcResult64 faster_cc(const graph::ArcsInput64& in,
                     const FasterCcParams& params = {},
                     std::uint64_t narrow_threshold = 0xFFFFFFFFull);

}  // namespace logcc::core
