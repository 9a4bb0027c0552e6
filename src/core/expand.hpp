// The EXPAND procedure (§B.3): repeated neighbourhood doubling through
// per-vertex hash tables.
//
// Mechanics per phase:
//   0. the ongoing vertices (mark_ongoing's byte flags) take slots in
//      ascending vertex order; every per-slot array below is indexed by
//      slot, and every decision keys on the vertex id, never on the slot;
//   1. ongoing vertices are hashed to blocks via h_B; a vertex that is not
//      the unique occupant of its block is *fully dormant*;
//   2. each block owner u gets a hash table H(u); round 0 hashes u and its
//      graph neighbours into H(u) (collision ⇒ dormant);
//   3. each subsequent round replaces H(u) by ∪_{v∈H(u)} H(v) (hashing via
//      h_V; collision or a dormant member ⇒ u dormant);
// so while u stays live and collision-free, H_j(u) = B(u, 2^j) (Lemma B.7):
// the ball of radius 2^j around u. The loop runs until no table grows and no
// status changes — O(log d) rounds.
//
// Dormancy never stops the table from being *used*; it stops the guarantee
// that the table equals the ball and signals VOTE to treat u pessimistically.
//
// `keep_history` retains H_j(u) and per-round liveness for every round j —
// required by the spanning forest's TREE-LINK (§C.3).
//
// A phase loop keeps one engine and calls run() once per phase; the engine
// owns every buffer EXPAND uses (docs/ARCHITECTURE.md, "EXPAND owns its
// buffers").
//
// Every step is data-parallel over util/scan's blocked primitives — block
// occupancy via a stable bucket partition, table seeding via a segmented
// emit grouped by owner slot, doubling rounds as a parallel map over slots
// with per-slot collision tallies — and all of it is thread-count
// invariant: the same input yields bit-identical tables, dormancy rounds
// and stats for every OMP_NUM_THREADS (tests/test_expand.cpp asserts it).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/building_blocks.hpp"
#include "core/metrics.hpp"
#include "core/table_slab.hpp"
#include "util/hashing.hpp"

namespace logcc::core {

struct ExpandParams {
  std::uint64_t block_count = 1;   // number of h_B blocks (≈ m / δ^{2/3})
  std::uint32_t table_capacity = 4;  // |H(u)| (≈ δ^{1/3})
  std::uint64_t seed = 1;          // h_B, h_V derived deterministically
  std::uint32_t max_rounds = 64;   // safety cap on doubling rounds
  bool keep_history = false;       // retain H_j for TREE-LINK
};

class ExpandEngine {
 public:
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);
  static constexpr std::uint32_t kNeverDormant = static_cast<std::uint32_t>(-1);

  ExpandEngine() = default;
  ExpandEngine(const ExpandEngine&) = delete;
  ExpandEngine& operator=(const ExpandEngine&) = delete;

  /// Numbers the slots, executes Steps (1)–(5) for one phase and fills the
  /// result accessors below. `ongoing` flags the roots participating this phase, one byte
  /// per vertex (mark_ongoing's flags; n = ongoing.size()); they take slots
  /// in ascending vertex order. `arcs` are the current (altered) arcs;
  /// only those whose both endpoints are ongoing are used. Every run starts
  /// from scratch (slot map, tables, dormancy, rounds, history); only
  /// buffer capacity carries over, so a phase loop keeps one engine and,
  /// once warm, a run allocates nothing.
  void run(std::span<const std::uint8_t> ongoing, std::span<const Arc> arcs,
           const ExpandParams& params, RunStats& stats);

  std::uint32_t num_slots() const {
    return static_cast<std::uint32_t>(vertex_of_.size());
  }
  std::uint32_t slot_of(VertexId v) const { return slot_of_[v]; }
  VertexId vertex_of(std::uint32_t slot) const { return vertex_of_[slot]; }

  bool owns_block(std::uint32_t slot) const {
    return owns_block_[slot] != 0;
  }
  bool fully_dormant(std::uint32_t slot) const { return !owns_block(slot); }
  /// Round at which the vertex became dormant; kNeverDormant if it stayed
  /// live throughout. Fully dormant vertices report round 0.
  std::uint32_t dormant_round(std::uint32_t slot) const {
    return dormant_round_[slot];
  }
  bool live_after(std::uint32_t slot) const {
    return dormant_round(slot) == kNeverDormant;
  }
  /// "v is live in round j of Step (5)" in the paper's sense.
  bool live_in_round(std::uint32_t slot, std::uint32_t j) const {
    return owns_block(slot) &&
           (dormant_round(slot) == kNeverDormant || dormant_round(slot) > j);
  }

  TableView table(std::uint32_t slot) const {
    return TableView(&tables_, slot);
  }

  /// Total doubling rounds executed (the paper's T).
  std::uint32_t rounds() const { return rounds_; }

  /// History: items of H_j(slot); valid when keep_history, for j in
  /// [0, rounds()].
  const std::vector<VertexId>& history(std::uint32_t j,
                                       std::uint32_t slot) const;

  const util::PairwiseHash& hv() const { return hv_; }
  std::uint32_t table_capacity() const { return params_.table_capacity; }

 private:
  void assign_blocks();
  void seed_tables();      // Steps (3) and (4)
  void doubling_rounds();  // Step (5)
  void mark_dormant(std::uint32_t slot, std::uint32_t round);
  void snapshot_history();
  void flush_collisions();  // per-slot tallies -> stats_->hash_collisions

  // The current run's inputs; arcs_ and stats_ are read only inside run().
  std::span<const Arc> arcs_;
  ExpandParams params_;
  RunStats* stats_ = nullptr;
  util::PairwiseHash hb_, hv_;

  // Results, read through the accessors above.
  std::vector<std::uint32_t> slot_of_;  // n entries, kNoSlot except ongoing
  std::vector<VertexId> vertex_of_;     // ongoing vertices, ascending
  std::vector<std::uint8_t> owns_block_;
  std::vector<std::uint32_t> dormant_round_;
  TableSlab tables_;                    // H(u) buckets, epoch-reset per run
  std::vector<std::vector<std::vector<VertexId>>> history_;  // [round][slot]
  std::uint32_t rounds_ = 0;

  // Kernel buffers, kept only for their capacity.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> block_keys_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> block_keys_tmp_;
  // (owner slot, vertex) insert. Trivially copyable, unlike std::pair, so
  // the group-by's staging copy comes from the round arena, not the heap.
  struct FillItem {
    std::uint32_t slot;
    VertexId w;
  };
  std::vector<FillItem> fill_items_;
  std::vector<FillItem> fill_items_grouped_;
  std::vector<std::uint64_t> collisions_;      // per-slot tallies
  std::vector<std::uint64_t> snapshot_words_;  // per-round flat table copy
  // Doubling-round flags (rounds are the innermost hot loop).
  std::vector<std::uint8_t> changed_, went_dormant_, dormant_in_;
  std::vector<std::uint8_t> changed_now_, dormant_now_;
};

}  // namespace logcc::core
