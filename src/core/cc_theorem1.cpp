#include "core/cc_theorem1.hpp"

#include <algorithm>
#include <cmath>

#include "core/expand.hpp"
#include "core/prepare.hpp"
#include "core/round_arena.hpp"
#include "core/spanning_forest.hpp"
#include "core/vote.hpp"
#include "util/arena.hpp"
#include "util/bitutil.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/scan.hpp"

namespace logcc::core {

Theorem1Params Theorem1Params::paper(std::uint64_t n, std::uint64_t m) {
  (void)m;
  Theorem1Params p;
  p.block_exp = 2.0 / 3.0;
  p.table_exp = 1.0 / 3.0;
  p.b_exp = 1.0 / 18.0;
  p.min_table_capacity = 2;
  // log^c n with c = 100: at feasible n this exceeds any real m/n, so
  // PREPARE dominates — exactly what the theory predicts for small inputs.
  double log_n = std::log2(std::max<double>(n, 4));
  p.prepare_target_density = std::pow(log_n, 100.0);
  p.prepare_max_phases =
      static_cast<std::uint64_t>(100.0 * util::log_base(std::max(4.0, std::log2(std::max<double>(n, 4))), 8.0 / 7.0)) +
      8;
  return p;
}

void theorem1_phases(ParentForest& forest, std::vector<Arc>& arcs,
                     std::uint64_t m0, const Theorem1Params& params,
                     RunStats& stats, std::vector<std::uint8_t>* in_forest) {
  const std::uint64_t n = forest.size();
  m0 = std::max<std::uint64_t>(m0, 1);

  std::uint64_t max_phases = params.max_phases;
  if (max_phases == 0) {
    max_phases = static_cast<std::uint64_t>(
                     8.0 * util::loglog_density(n, m0)) +
                 24;
  }
  // Coin salts for EXPAND's hashes and VOTE, one pair per mode.
  const std::uint64_t expand_salt = in_forest ? 0x5F00 : 0xE0;
  const std::uint64_t vote_salt = in_forest ? 0x5F0E : 0x40E;

  // ñ update rule state (§B.5) for the pure-ARBITRARY variant.
  double n_tilde = static_cast<double>(std::max<std::uint64_t>(n, 1));

  // One EXPAND engine and hoisted per-phase buffers (ongoing flags, leader
  // flags, LINK choices): steady-state phases reuse their capacity instead
  // of allocating.
  ExpandEngine expand;
  std::vector<std::uint8_t> ongoing;
  std::vector<std::uint8_t> leader;
  std::vector<VertexId> chosen;
  std::uint64_t phase = 0;
  while (true) {
    util::scratch_arena_round_reset();
    dedup_arcs(arcs);
    const std::uint64_t num_ongoing = mark_ongoing(n, arcs, ongoing);
    if (num_ongoing == 0) return;
    if (phase >= max_phases) break;  // to finisher
    ++phase;
    ++stats.phases;

    const double n_prime = params.exact_count
                               ? static_cast<double>(num_ongoing)
                               : std::max(1.0, n_tilde);
    const double delta = std::max(2.0, static_cast<double>(m0) / n_prime);
    const double b = std::max(2.0, std::pow(delta, params.b_exp));

    ExpandParams ep;
    ep.seed = util::mix64(params.seed, expand_salt + phase);
    ep.table_capacity = static_cast<std::uint32_t>(
        std::clamp<double>(std::pow(delta, params.table_exp),
                           params.min_table_capacity, double(1u << 22)));
    const double block_size = std::max(4.0, std::pow(delta, params.block_exp));
    ep.block_count =
        std::max<std::uint64_t>(2 * num_ongoing + 1,
                                static_cast<std::uint64_t>(
                                    static_cast<double>(m0) / block_size));
    ep.max_rounds = util::ceil_log2(std::max<std::uint64_t>(n, 2)) + 4;
    ep.keep_history = in_forest != nullptr;  // TREE-LINK consumes H_j

    expand.run(ongoing, arcs, ep, stats);

    VoteParams vp;
    vp.dormant_leader_prob = std::pow(b, -2.0 / 3.0);
    vp.seed = util::mix64(params.seed, vote_salt + phase);
    vote(expand, vp, stats, leader);

    // Space in use this phase: arc processors + all tables (every round's
    // tables when TREE-LINK keeps the history).
    const std::uint64_t table_words = num_ongoing * ep.table_capacity;
    stats.peak_space_words = std::max<std::uint64_t>(
        stats.peak_space_words,
        arcs.size() * 3 + table_words * (in_forest ? expand.rounds() + 2 : 1));
    stats.total_block_words += table_words;

    if (in_forest) {
      tree_link(expand, leader, arcs, forest, *in_forest, stats);
      // TREE-SHORTCUT: BFS trees have height ≤ d; flatten fully.
      stats.pram_steps += forest.flatten();
    } else {
      // LINK: non-leaders adopt a leader in their neighbour set (graph arcs
      // plus the expanded tables). The ARBITRARY write resolution becomes a
      // fetch-min on the leader id, so the adopted parent is the same for
      // every thread count.
      stats.pram_steps += 1;
      const std::uint32_t num = expand.num_slots();
      chosen.assign(num, graph::kInvalidVertex);
      util::parallel_for(0, arcs.size(), [&](std::size_t i) {
        const Arc& a = arcs[i];
        if (a.u == a.v) return;
        std::uint32_t su = expand.slot_of(a.u);
        std::uint32_t sv = expand.slot_of(a.v);
        if (su == ExpandEngine::kNoSlot || sv == ExpandEngine::kNoSlot) return;
        if (!leader[su] && leader[sv]) util::atomic_min(chosen[su], a.v);
        if (!leader[sv] && leader[su]) util::atomic_min(chosen[sv], a.u);
      });
      // Each non-leader scans its own table — disjoint writes, no atomics.
      util::parallel_for(0, num, [&](std::size_t s) {
        if (leader[s]) return;
        VertexId best = chosen[s];
        expand.table(static_cast<std::uint32_t>(s)).for_each([&](VertexId w) {
          std::uint32_t sw = expand.slot_of(w);
          if (sw != ExpandEngine::kNoSlot && leader[sw] && w < best) best = w;
        });
        chosen[s] = best;
      });
      util::parallel_for(0, num, [&](std::size_t s) {
        if (chosen[s] == graph::kInvalidVertex) return;
        VertexId v = expand.vertex_of(static_cast<std::uint32_t>(s));
        if (forest.is_root(v)) forest.set_parent(v, chosen[s]);
      });
      forest.shortcut();
      stats.pram_steps += 2;  // SHORTCUT and the ALTER below
    }
    alter(arcs, forest);
    drop_loops(arcs);

    // ñ update rule (§B.5): ñ := ñ / b^{1/4}.
    n_tilde = std::max(1.0, n_tilde / std::pow(b, 0.25));
  }

  // Round budget exhausted (vanishingly rare; bench T4 quantifies): finish
  // deterministically.
  stats.finisher_used = true;
  deterministic_contract(forest, arcs, stats, in_forest);
}

CcResult theorem1_cc(const graph::ArcsInput& in, const Theorem1Params& params) {
  CcResult out;
  RoundArena round_arena;
  RoundArena::Scope arena_scope(round_arena);
  ParentForest forest;
  // PREPARE (§B.2): densify while m/n' is below target.
  Prepared p = prepare(in, forest, params.prepare_target_density,
                       params.prepare_max_phases, params.seed, 0xAA00,
                       out.stats);
  theorem1_phases(forest, p.arcs, p.m0, params, out.stats);

  forest.flatten();
  out.labels = forest.root_labels();
  return out;
}

}  // namespace logcc::core
