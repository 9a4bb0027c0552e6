// CountMinSketch: fixed-seed frequency sketch with an overestimate-only
// guarantee — the heavy-hitter half of the approximate tier.
//
// depth x width counters; row r hashes a key with the counter-based
// mix64(mix64(seed, r + 1), key), so a (depth, width, seed) triple fully
// determines the sketch function — no global RNG, no per-process salt.
// For every key, estimate(key) >= true count always, and
// estimate(key) <= true + (e / width) * N with probability 1 - e^-depth
// (N = total mass added) — the bounds tests/test_sketch_accuracy.cpp
// verifies over seed sweeps.
//
// Two update modes, chosen per use site:
//
//   kStandard     — every row cell gets += count. Counter addition
//                   commutes, so standard sketches are insert-order
//                   invariant, merge exactly (cell-wise +: merged sketch
//                   == one sketch fed both streams), and bulk-insert in
//                   parallel via atomic fetch-add (add_parallel) with
//                   bit-identical counters at every thread count. The
//                   mode every parallel path uses.
//
//   kConservative — only cells at the current row minimum advance
//                   (conservative update): strictly tighter estimates,
//                   still overestimate-only, but inherently sequential —
//                   the update depends on the counters' current state, so
//                   it is neither insert-order invariant nor exactly
//                   mergeable. Used by the one-pass streaming consumers
//                   (sketch::StreamStats) that own their stream order.
//                   merge() still cell-wise-adds (the result keeps the
//                   overestimate-only guarantee: each side overestimates
//                   its substream, sums overestimate the union) and
//                   add_parallel LOGCC_CHECKs it is not called in this
//                   mode.
//
// The property suite (tests/test_sketch.cpp) pins the standard-mode
// algebra (merge commutativity/associativity, order invariance, serialize
// round trip) and that conservative estimates are pointwise <= standard
// ones on the same stream while never undershooting the truth.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace logcc::sketch {

enum class CmsUpdate : std::uint8_t {
  kStandard = 0,
  kConservative = 1,
};

class CountMinSketch {
 public:
  /// Empty sketch: depth() == 0, estimate() == 0. Exists so containers can
  /// hold sketches before configuration.
  CountMinSketch() = default;

  CountMinSketch(std::uint32_t depth, std::uint32_t width, std::uint64_t seed,
                 CmsUpdate update = CmsUpdate::kStandard);

  /// Adds `count` mass to `key` under the configured update mode.
  void add(std::uint64_t key, std::uint64_t count = 1);

  /// Bulk count-1 insertion via atomic fetch-add — order-invariant, hence
  /// bit-identical to the serial loop at every thread count.
  /// Standard mode only (LOGCC_CHECK): conservative updates are stateful
  /// and have no order-invariant parallel form. Accepts any integral key
  /// width (graph::VertexId spans widen to the same 64-bit keys).
  template <typename T>
  void add_parallel(std::span<const T> keys) {
    static_assert(std::is_integral_v<T> && sizeof(T) <= 8);
    LOGCC_CHECK_MSG(depth_ != 0, "add_parallel on an empty CountMinSketch");
    LOGCC_CHECK_MSG(update_ == CmsUpdate::kStandard,
                    "add_parallel requires standard update mode");
    util::parallel_for(0, keys.size(), [&](std::size_t i) {
      const std::uint64_t key = static_cast<std::uint64_t>(keys[i]);
      for (std::uint32_t r = 0; r < depth_; ++r) {
        std::uint64_t& cell = counters_[static_cast<std::uint64_t>(r) * width_ +
                                        cell_index(r, key)];
        std::atomic_ref<std::uint64_t>(cell).fetch_add(
            1, std::memory_order_relaxed);
      }
    });
    total_ += keys.size();
  }

  /// Min over the key's row cells: >= the true count always; the e/width
  /// overestimate bound holds per add semantics (see header comment).
  std::uint64_t estimate(std::uint64_t key) const;

  /// Cell-wise +. Both sides must have the same shape, seed, and mode
  /// (LOGCC_CHECK). Standard mode: exact — merged == both streams into one
  /// sketch. Conservative mode: overestimate-only is preserved, exactness
  /// is not (documented above).
  void merge(const CountMinSketch& other);

  /// Total mass added (the N in the e/width * N bound).
  std::uint64_t total() const { return total_; }

  /// The epsilon of the (epsilon, delta) guarantee: e / width.
  double epsilon() const;
  /// The delta: e^-depth (per-key failure probability of the bound).
  double delta() const;

  std::uint32_t depth() const { return depth_; }
  std::uint32_t width() const { return width_; }
  std::uint64_t seed() const { return seed_; }
  CmsUpdate update_mode() const { return update_; }
  const std::vector<std::uint64_t>& counters() const { return counters_; }
  std::uint64_t memory_bytes() const { return counters_.size() * 8; }

  /// Fixed little-endian layout (shape, seed, mode, total, counters);
  /// bit-identical round trip through deserialize.
  std::vector<std::uint8_t> serialize() const;
  /// Returns false (leaving *out untouched) on truncated or malformed
  /// input; never aborts on bad bytes.
  static bool deserialize(std::span<const std::uint8_t> bytes,
                          CountMinSketch* out);

  friend bool operator==(const CountMinSketch&,
                         const CountMinSketch&) = default;

 private:
  std::uint64_t cell_index(std::uint32_t row, std::uint64_t key) const {
    // Counter-based row hash; the multiply-shift range reduction keeps the
    // full 64 mixed bits in play (no modulo bias worth caring about here,
    // but mostly: no division on the hot path).
    const std::uint64_t h = util::mix64(row_seed(row), key);
    return static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(h) * width_) >> 64);
  }
  std::uint64_t row_seed(std::uint32_t row) const {
    return util::mix64(seed_, row + 1);
  }

  std::uint32_t depth_ = 0;
  std::uint32_t width_ = 0;
  std::uint64_t seed_ = 0;
  CmsUpdate update_ = CmsUpdate::kStandard;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> counters_;  // depth_ rows of width_ cells
};

}  // namespace logcc::sketch
