// RoundArena — the caller-owned round-scratch arena of the algorithm
// drivers: every kernel temporary of a round (a util::ScratchBuffer) comes
// from it. Cross-round buffers are not arena-backed; they are retained by
// their owner (ExpandEngine keeps its own, see docs/ARCHITECTURE.md).
//
// Ownership rule:
//   1. The *driver* (vanilla_cc, theorem1_cc, faster_cc, compact,
//      spanning_forest, connected_components, ...) owns one RoundArena for
//      the whole run and installs it with RoundArena::Scope.
//   2. Round loops call util::scratch_arena_round_reset() at the top of
//      every round/phase. Between rounds nothing lives in the arena — every
//      kernel temporary (a util::ScratchBuffer) dies inside its kernel
//      call — so the reset is always safe, including from a round loop
//      nested inside another driver's loop (PREPARE's Vanilla phases inside
//      Theorem 1, EXPAND's doubling rounds inside a phase).
//   3. Nothing that escapes a kernel call is arena-backed. Outputs and
//      cross-round state stay in caller-hoisted vectors (which reach their
//      high-water capacity within a phase or two and then stop allocating).
//
// Net effect: after warm-up, a steady-state round performs zero heap
// allocations — the arena serves every scan-primitive temporary from its
// consolidated block and the hoisted vectors reuse their capacity
// (tests/test_round_arena.cpp pins this with an operator-new counter).
//
// Scope nesting: the outermost driver wins. When a driver runs inside
// another driver's scope (faster_cc's postprocess runs theorem1_phases),
// the inner Scope is a no-op and kernels keep drawing from the outer arena
// — one arena per run, not one per layer.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/arena.hpp"

namespace logcc::core {

class RoundArena {
 public:
  RoundArena() = default;

  util::MonotonicArena& arena() { return arena_; }

  /// Rewinds the arena for the next round. Precondition: no live
  /// ScratchBuffer (true between kernel calls). Equivalent to
  /// util::scratch_arena_round_reset() when this arena is the active one.
  void begin_round() { arena_.reset(); }

  std::uint64_t rounds_begun() const { return arena_.resets(); }
  std::size_t high_water_bytes() const { return arena_.high_water(); }
  std::uint64_t heap_block_allocations() const {
    return arena_.block_allocations();
  }

  /// Installs the arena as the thread's active scratch arena — unless one
  /// is already active (outermost driver wins; see the ownership rule).
  class Scope {
   public:
    explicit Scope(RoundArena& arena)
        : installed_(util::active_scratch_arena() == nullptr),
          inner_(installed_ ? &arena.arena() : util::active_scratch_arena()) {}
    bool installed() const { return installed_; }

   private:
    bool installed_;  // declared before inner_: decides what it installs
    util::ScratchArenaScope inner_;
  };

 private:
  util::MonotonicArena arena_;
};

}  // namespace logcc::core
