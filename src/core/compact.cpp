#include "core/compact.hpp"

#include "core/prepare.hpp"
#include "core/round_arena.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/hashing.hpp"
#include "util/parallel.hpp"
#include "util/scan.hpp"

namespace logcc::core {

std::optional<std::vector<std::uint32_t>> approximate_compaction_vec(
    const std::vector<std::uint8_t>& flags, std::uint64_t seed,
    std::uint32_t max_rounds) {
  constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  const std::uint64_t n = flags.size();
  std::vector<std::uint32_t> items;
  util::parallel_emit(
      n, items,
      [&](std::size_t i) -> std::size_t { return flags[i] ? 1 : 0; },
      [](std::size_t i, std::uint32_t* dst) {
        *dst = static_cast<std::uint32_t>(i);
      });
  std::vector<std::uint32_t> slot(n, kNone);
  if (items.empty()) return slot;
  const std::uint64_t cells = 2 * items.size();

  std::vector<std::uint32_t> owner(cells, kNone);
  std::vector<std::uint32_t> contender(cells);
  std::vector<std::uint32_t> unplaced = std::move(items);
  for (std::uint32_t round = 0; round < max_rounds && !unplaced.empty();
       ++round) {
    util::scratch_arena_round_reset();
    auto h = util::PairwiseHash::from_seed(seed, 0xC0417 + round);
    // Contend by fetch-min (the minimum id wins the cell — a deterministic
    // ARBITRARY resolution); winners re-read and claim their cell, losers
    // stay for the next round via a stable pack.
    util::parallel_for(0, cells, [&](std::size_t c) { contender[c] = kNone; });
    util::parallel_for(0, unplaced.size(), [&](std::size_t i) {
      const std::uint32_t id = unplaced[i];
      const std::uint64_t c = h(id, cells);
      if (owner[c] == kNone) util::atomic_min(contender[c], id);
    });
    util::parallel_for(0, unplaced.size(), [&](std::size_t i) {
      const std::uint32_t id = unplaced[i];
      const std::uint64_t c = h(id, cells);
      // contender[c] == id already implies owner[c] was empty this round
      // (the contend pass only bids on empty cells, so an owned cell keeps
      // contender == kNone). Checking only the contender keeps this pass
      // race-free: the unique winner is the cell's only reader and writer.
      if (contender[c] == id) {
        owner[c] = id;
        slot[id] = static_cast<std::uint32_t>(c);
      }
    });
    util::parallel_pack(unplaced,
                        [&](std::uint32_t id) { return slot[id] == kNone; });
  }
  if (!unplaced.empty()) return std::nullopt;
  return slot;
}

CompactResult compact(const graph::ArcsInput& in, const CompactParams& params) {
  CompactResult out;
  RoundArena round_arena;
  RoundArena::Scope arena_scope(round_arena);
  const std::uint64_t n = in.num_vertices();

  // PREPARE leaves the ongoing roots marked; rename them via approximate
  // compaction.
  OngoingSet ongoing;
  const std::vector<Arc> arcs =
      prepare(in, out.outer, params.target_density, params.prepare_max_phases,
              params.seed, 0xC0DE00, out.stats, nullptr, &ongoing)
          .arcs;

  out.renamed_of.assign(n, CompactResult::kInvalid);
  if (ongoing.count == 0) {
    out.n_compact = 0;
    return out;
  }

  auto slots = approximate_compaction_vec(ongoing.flags, params.seed);
  LOGCC_CHECK_MSG(slots.has_value(), "approximate compaction failed");
  out.n_compact = 2 * ongoing.count;
  out.exists.assign(out.n_compact, 0);
  out.orig_of.assign(out.n_compact, graph::kInvalidVertex);
  util::parallel_for(0, n, [&](std::size_t v) {
    if (!ongoing.flags[v]) return;
    std::uint32_t cid = (*slots)[v];
    out.renamed_of[v] = cid;
    out.exists[cid] = 1;
    out.orig_of[cid] = static_cast<VertexId>(v);
  });
  util::parallel_emit(
      arcs.size(), out.arcs,
      [&](std::size_t i) -> std::size_t {
        return arcs[i].u != arcs[i].v ? 1 : 0;
      },
      [&](std::size_t i, Arc* dst) {
        const Arc& a = arcs[i];
        *dst = {static_cast<VertexId>(out.renamed_of[a.u]),
                static_cast<VertexId>(out.renamed_of[a.v]), a.orig};
      });
  out.stats.pram_steps += 3;  // compaction is O(log* n); modeled as O(1) here
  return out;
}

}  // namespace logcc::core
