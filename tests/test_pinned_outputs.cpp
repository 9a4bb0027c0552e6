// Pinned outputs of the paper's three algorithms.
//
// theorem1_cc, theorem2_sf and faster_cc are seeded and deterministic, so on
// a fixed graph and seed their labels, forest edges and cost counters are
// fixed numbers, on every thread count. The values below were recorded when
// EXPAND numbered its slots in first-appearance order over the arc list.
// Slot numbering is internal to one phase (every per-slot decision keys on
// the vertex id, every cross-slot write resolves by id), so no choice of it
// may move these values; neither may any other refactor of the phase loop
// that claims to leave outputs unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/cc_theorem1.hpp"
#include "core/faster_cc.hpp"
#include "core/spanning_forest.hpp"
#include "graph/generators.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"

namespace logcc {
namespace {

// FNV-1a over a value sequence, the fingerprint cc_bench prints.
template <typename T>
std::uint64_t fingerprint(const std::vector<T>& values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (T v : values) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ULL;
  }
  return h;
}

struct Counters {
  std::uint64_t hash = 0;  // labels, or forest edge indices for theorem2_sf
  std::uint64_t phases = 0;
  std::uint64_t expand_rounds = 0;
  std::uint64_t hash_collisions = 0;
  std::uint64_t peak_space_words = 0;
  std::uint64_t pram_steps = 0;
  friend bool operator==(const Counters&, const Counters&) = default;
};

std::ostream& operator<<(std::ostream& os, const Counters& c) {
  return os << "{0x" << std::hex << c.hash << std::dec << "ULL, " << c.phases
            << ", " << c.expand_rounds << ", " << c.hash_collisions << ", "
            << c.peak_space_words << ", " << c.pram_steps << "}";
}

Counters counters(std::uint64_t hash, const core::RunStats& s) {
  return {hash,
          s.phases,
          s.expand_rounds,
          s.hash_collisions,
          s.peak_space_words,
          s.pram_steps};
}

struct Pinned {
  std::string family;
  std::uint64_t n = 0;
  std::uint64_t seed = 0;
  Counters theorem1, theorem2, faster;
};

// Three regimes: a skewed multi-component graph, a sparse random graph with
// a giant component, and a small high-diameter grid.
const std::vector<Pinned>& pinned() {
  static const std::vector<Pinned> cases = {
      {"rmat", 20000, 3,
       {0x61181ed1d2fbba59ULL, 6, 15, 320912, 46568, 83},
       {0x09ae9a7f26aa7cb7ULL, 5, 14, 103008, 153578, 121},
       {0x766e5ae7991022ffULL, 1, 1, 8803, 9206, 89}},
      {"gnm2", 30000, 5,
       {0x6ab9efd164815373ULL, 5, 13, 144054, 20920, 83},
       {0x92a068f740a9b847ULL, 7, 16, 70776, 69088, 155},
       {0x8c5a3eba5efee647ULL, 0, 0, 2949, 4110, 103}},
      {"grid", 2500, 7,
       {0xfaed4a0dd1d72ce3ULL, 4, 12, 7435, 1452, 74},
       {0x121c4741cafa2edbULL, 4, 15, 7056, 6681, 112},
       {0xf751427392960257ULL, 1, 1, 340, 616, 94}},
  };
  return cases;
}

using logcc::testing::ThreadInvariance;

TEST_F(ThreadInvariance, PaperAlgorithmsReproducePinnedOutputs) {
  for (const Pinned& p : pinned()) {
    const graph::EdgeList el = graph::make_family(p.family, p.n, p.seed);
    const std::string name = p.family + ":" + std::to_string(p.n);
    for (int threads : {1, 4}) {
      util::set_parallelism(threads);

      core::Theorem1Params tp;
      tp.seed = p.seed;
      const auto t1 = core::theorem1_cc(el, tp);
      EXPECT_EQ(counters(fingerprint(t1.labels), t1.stats), p.theorem1)
          << name << " theorem1_cc, threads=" << threads;

      const auto sf = core::theorem2_sf(el, tp);
      EXPECT_EQ(counters(fingerprint(sf.forest_edges), sf.stats), p.theorem2)
          << name << " theorem2_sf, threads=" << threads;

      core::FasterCcParams fp;
      fp.seed = p.seed;
      const auto fc = core::faster_cc(el, fp);
      EXPECT_EQ(counters(fingerprint(fc.labels), fc.stats), p.faster)
          << name << " faster_cc, threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace logcc
