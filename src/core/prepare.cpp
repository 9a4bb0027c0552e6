#include "core/prepare.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/scan.hpp"

namespace logcc::core {

namespace {

using Orig = graph::ArcsInput::OrigId;

// A vertex's sampled neighbour w and that edge's smallest canonical index,
// packed so that one fetch-min picks the smallest w (lo) and one fetch-max
// the largest (hi), each with the smallest index among w's parallel copies.
// The identities are never real picks: w = 2^32 - 1 is no narrow vertex,
// and ~orig = 0 would need orig = 2^32 - 1, past the last edge index.
constexpr std::uint64_t kNoLo = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kNoHi = 0;

std::uint64_t pack_lo(VertexId w, Orig orig) {
  return (static_cast<std::uint64_t>(w) << 32) | orig;
}
std::uint64_t pack_hi(VertexId w, Orig orig) {
  return (static_cast<std::uint64_t>(w) << 32) | static_cast<Orig>(~orig);
}
VertexId picked(std::uint64_t p) { return static_cast<VertexId>(p >> 32); }

/// base[u] = canonical index of the first edge of u's suffix (exclusive
/// prefix sum of the suffix sizes); empty for an edge-backed input.
std::vector<Orig> canonical_base(const graph::ArcsInput& in) {
  if (!in.csr_backed()) return {};
  const graph::CsrView& csr = in.csr();
  std::vector<Orig> base(csr.n);
  util::parallel_for(0, csr.n, [&](std::size_t u) {
    base[u] = static_cast<Orig>(
        graph::csr_suffix(csr, static_cast<VertexId>(u)).size());
  });
  util::parallel_prefix_sum(base);
  return base;
}

/// Step 1: the picks of every vertex, then each picked edge once. With
/// `with_orig` false, arcs from a CSR input carry orig 0: only a
/// spanning forest reads a sampled arc's orig.
std::vector<Arc> sample_arcs(const graph::ArcsInput& in,
                             const std::vector<Orig>& base, bool with_orig) {
  const std::uint64_t n = in.num_vertices();
  std::vector<std::uint64_t> lo(n, kNoLo), hi(n, kNoHi);
  if (!in.csr_backed()) {
    const auto edges = in.edge_span();
    util::parallel_for(0, edges.size(), [&](std::size_t i) {
      const graph::Edge& e = edges[i];
      LOGCC_CHECK(e.u < n && e.v < n);
      if (e.u == e.v) return;
      const Orig orig = static_cast<Orig>(i);
      util::atomic_min(lo[e.u], pack_lo(e.v, orig));
      util::atomic_min(lo[e.v], pack_lo(e.u, orig));
      util::atomic_max(hi[e.u], pack_hi(e.v, orig));
      util::atomic_max(hi[e.v], pack_hi(e.u, orig));
    });
  } else {
    // Sorted rows: the picks sit at the row ends, or next to v's own
    // self-loop copies.
    const graph::CsrView& csr = in.csr();
    util::parallel_for(0, n, [&](std::size_t x) {
      const VertexId v = static_cast<VertexId>(x);
      const auto row = csr.neighbors(v);
      const auto first_v = std::lower_bound(row.begin(), row.end(), v);
      const auto past_v = std::upper_bound(first_v, row.end(), v);
      if (first_v != row.begin()) {
        lo[v] = pack_lo(row.front(), 0);
        hi[v] = pack_hi(*(first_v - 1), 0);
      }
      if (past_v != row.end()) {
        if (first_v == row.begin()) lo[v] = pack_lo(*past_v, 0);
        hi[v] = pack_hi(row.back(), 0);
      }
    });
    if (with_orig) {
      // The first copy of edge {u, w}, u < w, sits in u's suffix: one walk
      // of the suffixes finds it for both endpoints' picks. Each pick slot
      // has exactly one writer, the row of its edge's smaller endpoint.
      std::vector<Orig> lo_orig(n), hi_orig(n);
      util::parallel_for(0, n, [&](std::size_t x) {
        const VertexId u = static_cast<VertexId>(x);
        const auto s = graph::csr_suffix(csr, u);
        for (std::size_t j = 0; j < s.size(); ++j) {
          const VertexId w = s[j];
          if (w == u || (j > 0 && s[j - 1] == w)) continue;
          const Orig orig = base[u] + static_cast<Orig>(j);
          if (picked(lo[u]) == w) lo_orig[u] = orig;
          if (picked(hi[u]) == w) hi_orig[u] = orig;
          if (picked(lo[w]) == u) lo_orig[w] = orig;
          if (picked(hi[w]) == u) hi_orig[w] = orig;
        }
      });
      util::parallel_for(0, n, [&](std::size_t v) {
        if (lo[v] == kNoLo) return;
        lo[v] = pack_lo(picked(lo[v]), lo_orig[v]);
        hi[v] = pack_hi(picked(hi[v]), hi_orig[v]);
      });
    }
  }
  // v's picks, lo first; an edge both endpoints picked is emitted once, by
  // its smaller endpoint.
  auto picks = [&](VertexId v, Arc* dst) -> std::size_t {
    if (lo[v] == kNoLo) return 0;
    std::size_t k = 0;
    auto offer = [&](VertexId w, Orig orig) {
      if (w < v && (picked(lo[w]) == v || picked(hi[w]) == v)) return;
      if (dst) dst[k] = {v, w, orig};
      ++k;
    };
    offer(picked(lo[v]), static_cast<Orig>(lo[v]));
    if (picked(hi[v]) != picked(lo[v]))
      offer(picked(hi[v]), static_cast<Orig>(~hi[v]));
    return k;
  };
  std::vector<Arc> sample;
  util::parallel_emit(
      n, sample,
      [&](std::size_t v) { return picks(static_cast<VertexId>(v), nullptr); },
      [&](std::size_t v, Arc* dst) { picks(static_cast<VertexId>(v), dst); });
  return sample;
}

/// Step 3: (root(u), root(v), orig) for every canonical edge whose roots
/// differ, in canonical order. `forest` is flat.
std::vector<Arc> crossing_arcs(const graph::ArcsInput& in,
                               const std::vector<Orig>& base,
                               const ParentForest& forest) {
  const std::uint64_t n = in.num_vertices();
  std::vector<Arc> out;
  if (!in.csr_backed()) {
    const auto edges = in.edge_span();
    util::parallel_emit(
        edges.size(), out,
        [&](std::size_t i) -> std::size_t {
          const graph::Edge& e = edges[i];
          LOGCC_CHECK(e.u < n && e.v < n);
          return forest.parent(e.u) != forest.parent(e.v);
        },
        [&](std::size_t i, Arc* dst) {
          *dst = {forest.parent(edges[i].u), forest.parent(edges[i].v),
                  static_cast<Orig>(i)};
        });
    return out;
  }
  const graph::CsrView& csr = in.csr();
  std::vector<Orig> crossing(n);
  util::parallel_for(0, n, [&](std::size_t u) {
    const VertexId ru = forest.parent(static_cast<VertexId>(u));
    Orig c = 0;
    for (VertexId w : graph::csr_suffix(csr, static_cast<VertexId>(u)))
      c += forest.parent(w) != ru;
    crossing[u] = c;
  });
  util::parallel_emit(
      static_cast<std::size_t>(n), out,
      [&](std::size_t u) -> std::size_t { return crossing[u]; },
      [&](std::size_t u, Arc* dst) {
        const VertexId ru = forest.parent(static_cast<VertexId>(u));
        Orig orig = base[u];
        for (VertexId w : graph::csr_suffix(csr, static_cast<VertexId>(u))) {
          const VertexId rw = forest.parent(w);
          if (rw != ru) *dst++ = {ru, rw, orig};
          ++orig;
        }
      });
  return out;
}

}  // namespace

std::vector<Arc> neighbour_sample(const graph::ArcsInput& in) {
  return sample_arcs(in, canonical_base(in), /*with_orig=*/true);
}

Prepared prepare(const graph::ArcsInput& in, ParentForest& forest,
                 double target_density, std::uint64_t max_phases,
                 std::uint64_t seed, std::uint64_t salt, RunStats& stats,
                 std::vector<std::uint8_t>* in_forest, OngoingSet* ongoing) {
  LOGCC_CHECK_MSG(in.num_edges() <= std::numeric_limits<Orig>::max(),
                  "edge count exceeds the orig-index space");
  const std::uint64_t n = in.num_vertices();
  forest.reset(n);
  const std::vector<Orig> base = canonical_base(in);
  Prepared out;
  bool sampled = false;
  if (max_phases != 0) {
    // Steps 1-2, unless the input is already as dense as PREPARE wants.
    std::vector<Arc> sample = sample_arcs(in, base, in_forest != nullptr);
    std::vector<std::uint8_t> touched;
    const std::uint64_t n_on = mark_ongoing(n, sample, touched);
    const double m = static_cast<double>(in.num_edges());
    if (n_on > 0 && m / static_cast<double>(n_on) < target_density) {
      sampled = true;
      out.m0 = in.num_edges();
      max_phases = prepare_phase_budget(n, out.m0, max_phases);
      const std::uint64_t rounds =
          deterministic_contract(forest, sample, stats, in_forest, max_phases);
      // Its rounds are PREPARE's, not a theorem loop's phases.
      stats.phases -= rounds;
      stats.prepare_phases += rounds;
      if (rounds > 0) stats.prepare_used = true;
      max_phases -= rounds;
    }
  }
  out.arcs = crossing_arcs(in, base, forest);
  dedup_arcs(out.arcs);
  if (!sampled) out.m0 = std::max<std::uint64_t>(out.arcs.size(), 1);
  vanilla_prepare(forest, out.arcs, out.m0, target_density, max_phases, seed,
                  salt, stats, in_forest, ongoing);
  return out;
}

}  // namespace logcc::core
