#include "core/vanilla.hpp"

#include <algorithm>

#include "core/round_arena.hpp"
#include "util/arena.hpp"
#include "util/bitutil.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/scan.hpp"

namespace logcc::core {

namespace {

// Shared phase body, one per index width; `mark` is a no-op for plain
// Vanilla and receives the arc of every winning MARK-EDGE in the SF variant.
template <typename V, typename MarkFn>
std::uint64_t run_phases(BasicParentForest<V>& forest,
                         std::vector<BasicArc<V>>& arcs,
                         const VanillaOptions& opt, RunStats& stats,
                         MarkFn&& mark) {
  using ArcIndex = typename graph::BasicArcsInput<V>::OrigId;
  const std::uint64_t n = forest.size();
  constexpr ArcIndex kNoArc = static_cast<ArcIndex>(-1);
  std::vector<std::uint8_t> leader(n, 0);
  // v.e of §C: the arc index that realises v's link this phase.
  std::vector<ArcIndex> chosen(n, kNoArc);

  std::uint64_t phases = 0;
  while (has_nonloop(arcs)) {
    if (opt.max_phases && phases >= opt.max_phases) break;
    util::scratch_arena_round_reset();
    ++phases;
    ++stats.phases;
    stats.pram_steps += 5;  // vote, mark, link, shortcut, alter

    // RANDOM-VOTE. Counter-based coins — mix64(seed, phase, v) — instead of
    // a sequential RNG stream: every vertex's coin is its own function of
    // (seed, phase), so the step parallelises with no cross-processor order
    // and labels are bit-identical for every thread count.
    util::parallel_for(0, n, [&](std::size_t v) {
      leader[v] = util::mix64(opt.seed, phases, v) & 1;
    });

    // MARK-EDGE. The CRCW "arbitrary write wins" becomes a fetch-min on the
    // arc index: the lowest-indexed eligible arc wins deterministically.
    util::parallel_for(0, arcs.size(), [&](std::size_t i) {
      const BasicArc<V>& a = arcs[i];
      if (a.u == a.v) return;
      const ArcIndex idx = static_cast<ArcIndex>(i);
      // Both directions of the undirected arc.
      if (forest.is_root(a.u) && !leader[a.u] && leader[a.v])
        util::atomic_min(chosen[a.u], idx);
      if (forest.is_root(a.v) && !leader[a.v] && leader[a.u])
        util::atomic_min(chosen[a.v], idx);
    });
    // LINK. Each v writes only its own parent; an arc realises at most one
    // link (its endpoints need opposite coins), so `mark` targets are
    // distinct too.
    util::parallel_for(0, n, [&](std::size_t v) {
      ArcIndex i = chosen[v];
      if (i == kNoArc) return;
      chosen[v] = kNoArc;
      const BasicArc<V>& a = arcs[i];
      V w = (a.u == static_cast<V>(v)) ? a.v : a.u;
      forest.set_parent(static_cast<V>(v), w);
      mark(a);
    });
    // SHORTCUT (one step suffices: link trees have height <= 2).
    forest.shortcut();
    // ALTER + loop cleanup; dedup bounds the work (edges are a set).
    alter(arcs, forest);
    drop_loops(arcs);
    dedup_arcs(arcs);

    LOGCC_CHECK_MSG(stats.phases <= 100000, "Vanilla failed to converge");
  }
  return phases;
}

}  // namespace

template <typename V>
std::uint64_t vanilla_phases(BasicParentForest<V>& forest,
                             std::vector<BasicArc<V>>& arcs,
                             const VanillaOptions& opt, RunStats& stats) {
  return run_phases(forest, arcs, opt, stats, [](const BasicArc<V>&) {});
}

template std::uint64_t vanilla_phases(ParentForest&, std::vector<Arc>&,
                                      const VanillaOptions&, RunStats&);
template std::uint64_t vanilla_phases(ParentForest64&, std::vector<Arc64>&,
                                      const VanillaOptions&, RunStats&);

std::uint64_t prepare_phase_budget(std::uint64_t n, std::uint64_t m0,
                                   std::uint64_t max_phases) {
  if (max_phases != kAutoPreparePhases) return max_phases;
  return static_cast<std::uint64_t>(2.0 * util::loglog_density(n, m0)) + 4;
}

std::uint64_t vanilla_prepare(ParentForest& forest, std::vector<Arc>& arcs,
                              std::uint64_t m0, double target_density,
                              std::uint64_t max_phases, std::uint64_t seed,
                              std::uint64_t salt, RunStats& stats,
                              std::vector<std::uint8_t>* in_forest,
                              OngoingSet* ongoing) {
  max_phases = prepare_phase_budget(forest.size(), m0, max_phases);
  const std::uint64_t phases_before = stats.phases;
  VanillaOptions vo;
  vo.max_phases = 1;
  OngoingSet own;  // reused by every phase
  OngoingSet& on = ongoing ? *ongoing : own;
  std::uint64_t phases = 0;
  while (true) {
    util::scratch_arena_round_reset();
    // count == 0 exactly when no non-loop arc is left.
    on.count = mark_ongoing(forest.size(), arcs, on.flags);
    if (on.count == 0 || phases >= max_phases ||
        static_cast<double>(m0) / static_cast<double>(on.count) >=
            target_density)
      break;
    vo.seed = util::mix64(seed, salt + phases);
    run_phases(forest, arcs, vo, stats, [&](const Arc& a) {
      if (in_forest) (*in_forest)[a.orig] = 1;
    });
    ++phases;
  }
  // Densification is reported apart from the theorem loops' phases.
  stats.prepare_phases += stats.phases - phases_before;
  stats.phases = phases_before;
  if (phases > 0) stats.prepare_used = true;
  return phases;
}

namespace {

template <typename V>
BasicCcResult<V> vanilla_cc_impl(const graph::BasicArcsInput<V>& in,
                                 std::uint64_t seed) {
  BasicCcResult<V> out;
  RoundArena round_arena;
  RoundArena::Scope arena_scope(round_arena);
  BasicParentForest<V> forest(in.num_vertices());
  std::vector<BasicArc<V>> arcs = arcs_from_input(in);
  drop_loops(arcs);
  VanillaOptions opt;
  opt.seed = seed;
  vanilla_phases(forest, arcs, opt, out.stats);
  forest.flatten();
  out.labels = forest.root_labels();
  return out;
}

}  // namespace

CcResult vanilla_cc(const graph::ArcsInput& in, std::uint64_t seed) {
  return vanilla_cc_impl(in, seed);
}

CcResult64 vanilla_cc(const graph::ArcsInput64& in, std::uint64_t seed) {
  return vanilla_cc_impl(in, seed);
}

VanillaSfResult vanilla_sf(const graph::ArcsInput& in, std::uint64_t seed) {
  VanillaSfResult out;
  RoundArena round_arena;
  RoundArena::Scope arena_scope(round_arena);
  ParentForest forest(in.num_vertices());
  std::vector<Arc> arcs = arcs_from_input(in);
  drop_loops(arcs);
  std::vector<std::uint8_t> in_forest(in.num_edges(), 0);
  VanillaOptions opt;
  opt.seed = seed;
  run_phases(forest, arcs, opt, out.stats,
             [&](const Arc& a) { in_forest[a.orig] = 1; });
  for (std::uint64_t i = 0; i < in_forest.size(); ++i)
    if (in_forest[i]) out.forest_edges.push_back(i);
  return out;
}

}  // namespace logcc::core
