// Pinned outputs of the paper's three algorithms.
//
// theorem1_cc, theorem2_sf and faster_cc are seeded and deterministic, so on
// a fixed graph and seed their labels, forest edges and cost counters are
// fixed numbers, on every thread count. Each graph is pinned twice: with the
// default params, and with PREPARE off (prepare_max_phases = 0). PREPARE
// contracts a neighbour sample first (core/prepare.hpp), which solves most
// of these graphs alone, so the second set is what pins the phase loops.
// The PREPARE-off values were recorded when EXPAND numbered its slots in
// first-appearance order over the arc list, and again, unchanged, when
// PREPARE took its sample. Slot numbering is internal to one phase (every
// per-slot decision keys on the vertex id, every cross-slot write resolves
// by id), so no choice of it may move these values; neither may any other
// refactor that claims to leave outputs unchanged.
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
  std::uint64_t prepare_phases = 0;
  std::uint64_t expand_rounds = 0;
  std::uint64_t hash_collisions = 0;
  std::uint64_t peak_space_words = 0;
  std::uint64_t pram_steps = 0;
  friend bool operator==(const Counters&, const Counters&) = default;
};

std::ostream& operator<<(std::ostream& os, const Counters& c) {
  return os << "{0x" << std::hex << c.hash << std::dec << "ULL, " << c.phases
            << ", " << c.prepare_phases << ", " << c.expand_rounds << ", "
            << c.hash_collisions << ", " << c.peak_space_words << ", "
            << c.pram_steps << "}";
}

Counters counters(std::uint64_t hash, const core::RunStats& s) {
  return {hash,
          s.phases,
          s.prepare_phases,
          s.expand_rounds,
          s.hash_collisions,
          s.peak_space_words,
          s.pram_steps};
}

struct Pinned {
  std::string family;
  std::uint64_t n = 0;
  std::uint64_t seed = 0;
  // Default params, then PREPARE off.
  Counters theorem1, theorem2, faster;
  Counters theorem1_off, theorem2_off, faster_off;
};

// Three regimes: a skewed multi-component graph, a sparse random graph with
// a giant component, and a small high-diameter grid.
const std::vector<Pinned>& pinned() {
  static const std::vector<Pinned> cases = {
      {"rmat", 20000, 3,
       {0x68c7d764b41c7a57ULL, 0, 2, 0, 0, 0, 6},
       {0xbfa1478d8cf8f494ULL, 0, 2, 0, 0, 0, 6},
       {0x68c7d764b41c7a57ULL, 0, 2, 0, 0, 0, 6},
       {0xa258f04552dc4875ULL, 12, 0, 34, 1803806, 591995, 130},
       {0x7abce32cb1d04eb1ULL, 14, 0, 42, 2720074, 1340835, 260},
       {0x72483f669877b53cULL, 1, 0, 1, 422331, 156933, 103}},
      {"gnm2", 30000, 5,
       {0xb3044852ec626df7ULL, 1, 4, 2, 0, 2441, 22},
       {0x2cbf3ba62fafa157ULL, 1, 4, 2, 0, 9737, 28},
       {0xaac8cedbcc5d8df7ULL, 0, 4, 0, 0, 20, 41},
       {0xd6fb5f337ab62ac1ULL, 12, 0, 44, 2553526, 415712, 140},
       {0x6660a11daf383bb7ULL, 17, 0, 62, 4337830, 1829984, 340},
       {0x5f1c9ac9c9ebc061ULL, 1, 0, 1, 409407, 346266, 142}},
      {"grid", 2500, 7,
       {0xcc1b6666f92fb633ULL, 0, 1, 0, 0, 0, 3},
       {0x19fe35fb9c3870ceULL, 0, 1, 0, 0, 0, 3},
       {0xcc1b6666f92fb633ULL, 0, 1, 0, 0, 0, 3},
       {0x4b3d6aea6fe3ff57ULL, 11, 0, 41, 253658, 34700, 129},
       {0x8f01430640e106d7ULL, 18, 0, 82, 277812, 162825, 387},
       {0x078be1ba85c24df7ULL, 1, 0, 1, 17928, 20316, 77}},
  };
  return cases;
}

using logcc::testing::ThreadInvariance;

TEST_F(ThreadInvariance, PaperAlgorithmsReproducePinnedOutputs) {
  for (const Pinned& p : pinned()) {
    const graph::EdgeList el = graph::make_family(p.family, p.n, p.seed);
    for (const bool off : {false, true}) {
      const std::string name = p.family + ":" + std::to_string(p.n) +
                               (off ? " PREPARE off" : "");
      for (int threads : {1, 4}) {
        util::set_parallelism(threads);

        core::Theorem1Params tp;
        tp.seed = p.seed;
        if (off) tp.prepare_max_phases = 0;
        const auto t1 = core::theorem1_cc(el, tp);
        EXPECT_EQ(counters(fingerprint(t1.labels), t1.stats),
                  off ? p.theorem1_off : p.theorem1)
            << name << " theorem1_cc, threads=" << threads;

        const auto sf = core::theorem2_sf(el, tp);
        EXPECT_EQ(counters(fingerprint(sf.forest_edges), sf.stats),
                  off ? p.theorem2_off : p.theorem2)
            << name << " theorem2_sf, threads=" << threads;

        core::FasterCcParams fp;
        fp.seed = p.seed;
        if (off) fp.prepare_max_phases = 0;
        const auto fc = core::faster_cc(el, fp);
        EXPECT_EQ(counters(fingerprint(fc.labels), fc.stats),
                  off ? p.faster_off : p.faster)
            << name << " faster_cc, threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace logcc
