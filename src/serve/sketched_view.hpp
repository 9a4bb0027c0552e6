// SketchedView: the serving layer's approximate tier — per-epoch sketch
// summaries built next to the exact core::ComponentIndex so queries can
// opt into cheap estimates (docs/ARCHITECTURE.md "Approximate tier").
//
// An exact ComponentIndex carries an O(n) sizes array; a SketchedView
// answers the same "how many components / how big is v's component"
// questions from a few KB of sketch state: a HyperLogLog over the label
// array (distinct labels == components) and a standard-mode CountMinSketch
// over it (label multiplicity == component size, overestimate-only by
// at most epsilon * n with the usual count-min probability).
//
// Like the index it summarizes, a view is an immutable snapshot: build()
// runs once per epoch (order-invariant parallel sketch fills — the result
// is bit-identical for every thread count) and the engine
// swaps it behind an EpochPtr together with the exact snapshot it holds a
// reference to, so an approximate answer is always consistent with ONE
// epoch's labels, never a mix.
//
// Seed discipline: the two sketches derive their seeds from the same
// sub-seed streams as sketch::StreamStats::finish (kComponentHllStream /
// kSizeCmsStream), so the streaming one-pass path and the serving snapshot
// path produce bit-identical sketch state from identical labels — the
// cross-path differential check of tests/test_differential_sketch.cpp.
#pragma once

#include <cstdint>
#include <memory>

#include "core/component_index.hpp"
#include "sketch/count_min.hpp"
#include "sketch/hyperloglog.hpp"

namespace logcc::serve {

struct SketchedViewOptions {
  int hll_precision = 12;
  std::uint32_t cms_depth = 4;
  std::uint32_t cms_width = 1u << 14;
  std::uint64_t seed = 1;
};

class SketchedView {
 public:
  SketchedView() = default;

  /// Builds the sketch tier for one epoch's snapshot (non-null). The view
  /// keeps the shared_ptr, so its estimates always refer to exactly that
  /// epoch's labels.
  static SketchedView build(
      std::shared_ptr<const core::ComponentIndex> index,
      SketchedViewOptions options = {});

  /// HLL estimate of the component count; ±standard_error relative.
  double approx_component_count() const { return count_hll_.estimate(); }
  double count_standard_error() const { return count_hll_.standard_error(); }

  /// Count-min estimate of the size of v's component: never below the
  /// exact size, above by more than size_epsilon() * n only with
  /// probability e^-depth.
  std::uint64_t approx_component_size(graph::VertexId v) const {
    return size_cms_.estimate(index_->component_of(v));
  }
  double size_epsilon() const { return size_cms_.epsilon(); }

  /// The exact snapshot this view was built from (null only when default-
  /// constructed).
  const std::shared_ptr<const core::ComponentIndex>& index() const {
    return index_;
  }

  const sketch::HyperLogLog& count_hll() const { return count_hll_; }
  const sketch::CountMinSketch& size_cms() const { return size_cms_; }
  /// Sketch state only (the point: KBs against the index's O(n) arrays).
  std::uint64_t memory_bytes() const {
    return count_hll_.memory_bytes() + size_cms_.memory_bytes();
  }

 private:
  std::shared_ptr<const core::ComponentIndex> index_;
  sketch::HyperLogLog count_hll_;
  sketch::CountMinSketch size_cms_;
};

}  // namespace logcc::serve
