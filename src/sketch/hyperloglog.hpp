// HyperLogLog: fixed-seed, mergeable distinct-count sketch — the first
// citizen of the approximate tier (docs/ARCHITECTURE.md "Approximate
// tier").
//
// A sketch summarizes a multiset of 64-bit items in m = 2^precision
// one-byte registers: item -> h = mix64(seed, item); the top `precision`
// bits pick a register, the position of the first set bit in the rest is
// max-combined into it. estimate() is the classic bias-corrected harmonic
// mean with the linear-counting switch for small cardinalities; the
// standard error is 1.04 / sqrt(m) (what tests/test_sketch_accuracy.cpp
// verifies over seed sweeps).
//
// Determinism contract (same as the algorithm layer): all randomness is the
// counter-based mix64 of a caller-chosen seed — no global RNG, no
// per-process salt. Two sketches with the same (precision, seed) fed the
// same item *set* hold bit-identical registers regardless of insertion
// order, duplication, or threading: add() is a pure register max,
// so add_parallel realises bulk insertion with util::atomic_max and is
// bit-identical to the serial loop at every thread count.
//
// The algebra the property suite (tests/test_sketch.cpp) pins:
//   merge(a, b) == merge(b, a)            (register-wise max commutes)
//   merge(merge(a, b), c) == merge(a, merge(b, c))
//   merge(a, a) == a                      (idempotent)
//   deserialize(serialize(s)) == s        (bit-identical round trip)
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/scan.hpp"

namespace logcc::sketch {

class HyperLogLog {
 public:
  static constexpr int kMinPrecision = 4;
  static constexpr int kMaxPrecision = 18;

  /// Empty sketch: precision() == 0, estimate() == 0, mergeable only with
  /// itself. Exists so containers can hold sketches before configuration.
  HyperLogLog() = default;

  /// m = 2^precision registers, all randomness derived from `seed`.
  HyperLogLog(int precision, std::uint64_t seed);

  /// Inserts one item (hashes with mix64(seed, item)).
  void add(std::uint64_t item) { add_hashed(util::mix64(seed_, item)); }

  /// Inserts a pre-mixed 64-bit hash (the caller already ran mix64 or an
  /// equally well-distributed function over its key).
  void add_hashed(std::uint64_t h) {
    const std::uint32_t idx = static_cast<std::uint32_t>(h >> (64 - precision_));
    const std::uint8_t rank = rank_of(h);
    if (rank > registers_[idx]) registers_[idx] = rank;
  }

  /// Bulk insertion via atomic register max — order-invariant, hence
  /// bit-identical to the serial loop for every thread count.
  /// Accepts any integral key width (graph::VertexId spans widen to the
  /// same 64-bit keys add() would hash).
  template <typename T>
  void add_parallel(std::span<const T> items) {
    static_assert(std::is_integral_v<T> && sizeof(T) <= 8);
    LOGCC_CHECK_MSG(precision_ != 0, "add_parallel on an empty HyperLogLog");
    util::parallel_for(0, items.size(), [&](std::size_t i) {
      const std::uint64_t h =
          util::mix64(seed_, static_cast<std::uint64_t>(items[i]));
      const std::uint32_t idx =
          static_cast<std::uint32_t>(h >> (64 - precision_));
      util::atomic_max(registers_[idx], rank_of(h));
    });
  }

  /// Register-wise max. Both sides must have the same precision and seed
  /// (LOGCC_CHECK): sketches from different hash functions are not
  /// comparable, and silently merging them would estimate garbage.
  void merge(const HyperLogLog& other);

  /// Bias-corrected cardinality estimate (0 for the empty sketch).
  double estimate() const;

  /// The theoretical relative standard error 1.04/sqrt(m).
  double standard_error() const;

  int precision() const { return precision_; }
  std::uint64_t seed() const { return seed_; }
  std::uint64_t num_registers() const { return registers_.size(); }
  const std::vector<std::uint8_t>& registers() const { return registers_; }
  std::uint64_t memory_bytes() const { return registers_.size(); }

  /// Fixed little-endian layout (precision, seed, registers); bit-identical
  /// round trip through deserialize. See docs/FILE_FORMATS.md.
  std::vector<std::uint8_t> serialize() const;
  /// Returns false (leaving *out untouched) on truncated or malformed
  /// input; never aborts on bad bytes.
  static bool deserialize(std::span<const std::uint8_t> bytes,
                          HyperLogLog* out);

  friend bool operator==(const HyperLogLog&, const HyperLogLog&) = default;

 private:
  /// 1 + number of leading zeros of the suffix left after the register
  /// index, in [1, 64 - precision + 1].
  std::uint8_t rank_of(std::uint64_t h) const;

  int precision_ = 0;
  std::uint64_t seed_ = 0;
  std::vector<std::uint8_t> registers_;
};

}  // namespace logcc::sketch
