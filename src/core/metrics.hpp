// Per-run cost metrics. The paper's theorems bound *rounds/steps*, *number of
// processors* and *success probability*; RunStats captures the measured
// counterparts so benches can print paper-claim vs. measured directly.
#pragma once

#include <cstdint>
#include <vector>

namespace logcc::core {

struct RunStats {
  // Outer progress counters.
  std::uint64_t rounds = 0;          // Thm 3: EXPAND-MAXLINK rounds
  std::uint64_t phases = 0;          // Thm 1/2 & Vanilla: phase count
  std::uint64_t prepare_phases = 0;  // PREPARE/COMPACT densification phases
  std::uint64_t expand_rounds = 0;   // inner EXPAND doubling rounds (total)

  // Modeled PRAM cost: every O(1)-time step of the algorithm adds 1. This is
  // what the theorems' time bounds refer to.
  std::uint64_t pram_steps = 0;

  // Space/processor accounting (words). peak = max over rounds of
  // (arc processors + block space in use); total_block = sum of all blocks
  // ever allocated (the paper's zone ledger, Lemma 3.10/D.13 bounds it O(m)).
  std::uint64_t peak_space_words = 0;
  std::uint64_t total_block_words = 0;

  // Hashing behaviour.
  std::uint64_t hash_collisions = 0;
  std::uint64_t level_raises = 0;     // random (Step 2) + forced (Step 7)
  std::uint32_t max_level = 0;        // Lemma 3.19/D.23 bound target
  std::vector<std::uint64_t> level_histogram;  // vertices that reached level i

  // Robustness.
  bool finisher_used = false;   // guaranteed-convergent fallback fired
  bool prepare_used = false;    // PREPARE/COMPACT densification ran

  /// Merges counters from a sub-run (e.g. Thm 3's Thm-1 postprocess).
  void absorb(const RunStats& other) {
    rounds += other.rounds;
    phases += other.phases;
    prepare_phases += other.prepare_phases;
    expand_rounds += other.expand_rounds;
    pram_steps += other.pram_steps;
    peak_space_words = std::max(peak_space_words, other.peak_space_words);
    total_block_words += other.total_block_words;
    hash_collisions += other.hash_collisions;
    level_raises += other.level_raises;
    max_level = std::max(max_level, other.max_level);
    finisher_used = finisher_used || other.finisher_used;
    prepare_used = prepare_used || other.prepare_used;
    for (std::size_t i = 0; i < other.level_histogram.size(); ++i) {
      if (level_histogram.size() <= i) level_histogram.resize(i + 1, 0);
      level_histogram[i] += other.level_histogram[i];
    }
  }
};

/// What the CC drivers return: one root id per vertex plus the counters,
/// at index width V (see graph/graph.hpp, "Index-type contract").
template <typename V>
struct BasicCcResult {
  std::vector<V> labels;  // root id per vertex
  RunStats stats;
};

using CcResult = BasicCcResult<std::uint32_t>;
using CcResult64 = BasicCcResult<std::uint64_t>;

}  // namespace logcc::core
