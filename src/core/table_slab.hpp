// Bucketized, cache-line-aligned store for every per-vertex hash table of
// EXPAND (§B.3), TREE-LINK's Q' (§C.3) and EXPAND-MAXLINK (§D.1).
//
// One semantics, the paper's "Hashing" (§2.2, §3.3): a vertex w is written
// into cell h(w); a *collision* is a cell already holding a different
// vertex. The first write wins and the loser is not stored. Re-inserting a
// vertex already present is not a collision (concurrent equal writes are
// harmless on a CRCW machine) — this is how hashing deduplicates
// neighbours. The table never resolves collisions: the algorithms react to
// them (mark dormant, raise level), so a table only records that one
// happened (Insert::{kNew, kPresent, kCollision}, collided()).
//
// Every table is a fixed-slot bucket inside one contiguous 64-byte-aligned
// slab, so a table-to-table hop of a doubling round is no pointer chase:
//
//   slab (64B-aligned) ───────────────────────────────────────────────
//   │ bucket 0          │ bucket 1          │ bucket 2          │ ...
//   │ slot slot .. pad  │ slot slot .. pad  │ slot slot .. pad  │
//   └──────────────────────────────────────────────────────────────────
//
// Each slot is one 64-bit word `(epoch << 32) | vertex`: a slot is live iff
// its top half equals the slab's current epoch. Bucket strides are chosen
// so a bucket never straddles a cache line — capacities <= 8 get a
// power-of-two stride (1/2/4/8 words, i.e. at most one 64B line probed per
// table), larger ones round up to whole lines — so probing a table touches
// the minimum number of lines and a doubling sweep walks the slab almost
// sequentially.
//
// The epoch stamp is what makes per-round reuse O(1): reset() bumps the
// epoch and every slot in the slab is logically empty again — no per-cell
// re-zeroing, no per-table vector churn. Only freshly grown slab memory is
// zeroed (in parallel, so the pages are first-touched under the same
// contiguous lane segmentation the fill loops use), and an epoch wrap
// (once per 2^32 resets) re-zeroes defensively.
//
// Synchronous rounds ("this round reads last round's tables") snapshot the
// slab with one flat word copy (snapshot_into) instead of materializing
// per-table item vectors; for_each_in iterates a table's items inside such
// a snapshot with the same cell order as for_each.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/check.hpp"

namespace logcc::core {

class TableSlab {
 public:
  enum class Insert { kNew, kPresent, kCollision };

  TableSlab() = default;
  TableSlab(const TableSlab&) = delete;
  TableSlab& operator=(const TableSlab&) = delete;

  /// Rebuilds the slab as `num` tables of identical `capacity` (>= 1) and
  /// marks every table empty / not-collided. O(num) + a slab grow on first
  /// use; steady state touches no heap.
  void reset_uniform(std::uint32_t num, std::uint32_t capacity);

  /// Rebuilds the slab as `caps.size()` tables with per-table capacities
  /// (0 = table absent: no slots, all queries empty). Buckets are padded to
  /// whole cache lines so mixed capacities stay line-aligned.
  void reset_variable(std::span<const std::uint32_t> caps);

  std::uint32_t capacity(std::uint32_t t) const {
    return uniform_ ? ucap_ : cap_[t];
  }
  std::uint32_t count(std::uint32_t t) const { return count_[t]; }
  bool collided(std::uint32_t t) const { return collided_[t] != 0; }

  /// Writes `w` into cell `cell` of table `t`; the caller computes
  /// cell = h(w, capacity(t)).
  Insert insert_at(std::uint32_t t, std::uint32_t cell, graph::VertexId w) {
    LOGCC_DCHECK(cell < capacity(t));
    std::uint64_t& word = words_[base(t) + cell];
    const std::uint64_t tagged = tag_ | w;
    if (word == tagged) return Insert::kPresent;
    if ((word >> 32) != epoch_) {
      word = tagged;
      ++count_[t];
      return Insert::kNew;
    }
    collided_[t] = 1;
    return Insert::kCollision;
  }

  /// Iterates occupied cells of table `t` in cell order.
  template <typename Fn>
  void for_each(std::uint32_t t, Fn&& fn) const {
    for_each_in({words_, words_size_}, t, fn);
  }

  /// One flat copy of the live slab words — the whole-generation snapshot a
  /// synchronous round reads while it rewrites the live tables.
  void snapshot_into(std::vector<std::uint64_t>& snap) const;

  /// for_each over table `t` as captured in a snapshot_into copy taken this
  /// epoch.
  template <typename Fn>
  void for_each_in(std::span<const std::uint64_t> words, std::uint32_t t,
                   Fn&& fn) const {
    const std::uint64_t* w = words.data() + base(t);
    const std::uint32_t cap = capacity(t);
    for (std::uint32_t c = 0; c < cap; ++c)
      if ((w[c] >> 32) == epoch_)
        fn(static_cast<graph::VertexId>(w[c]));
  }

  /// Raw cell image of table `t`: kInvalidVertex in empty cells.
  std::vector<graph::VertexId> cells(std::uint32_t t) const {
    std::vector<graph::VertexId> out(capacity(t), graph::kInvalidVertex);
    const std::uint64_t* w = words_ + base(t);
    for (std::uint32_t c = 0; c < out.size(); ++c)
      if ((w[c] >> 32) == epoch_) out[c] = static_cast<graph::VertexId>(w[c]);
    return out;
  }

  /// Heap allocations the slab itself ever made (stable in steady state).
  std::uint64_t slab_allocations() const { return slab_allocations_; }
  std::size_t slab_words() const { return words_size_; }

 private:
  std::size_t base(std::uint32_t t) const {
    return uniform_ ? static_cast<std::size_t>(t) * stride_ : offset_[t];
  }
  void ensure_words(std::size_t total);
  void bump_epoch();

  std::unique_ptr<std::uint64_t[]> storage_;  // words_ + alignment slack
  std::uint64_t* words_ = nullptr;            // 64B-aligned view of storage_
  std::size_t words_size_ = 0;                // words in use this generation
  std::size_t words_cap_ = 0;                 // words allocated
  std::uint32_t epoch_ = 1;
  std::uint64_t tag_ = std::uint64_t{1} << 32;  // epoch_ << 32
  bool uniform_ = true;
  std::uint32_t ucap_ = 0;      // uniform mode: capacity
  std::size_t stride_ = 0;      // uniform mode: words per bucket
  std::vector<std::uint32_t> cap_;       // variable mode
  std::vector<std::size_t> offset_;      // variable mode, tables + 1 entries
  std::vector<std::uint32_t> count_;
  std::vector<std::uint8_t> collided_;
  std::uint64_t slab_allocations_ = 0;
};

/// Lightweight const view of one slab table — what ExpandEngine::table()
/// hands to VOTE / LINK / tests, and how TREE-LINK reads a Q' table.
class TableView {
 public:
  TableView(const TableSlab* slab, std::uint32_t t) : slab_(slab), t_(t) {}

  std::uint32_t capacity() const { return slab_->capacity(t_); }
  std::uint32_t count() const { return slab_->count(t_); }
  bool collided() const { return slab_->collided(t_); }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    slab_->for_each(t_, fn);
  }
  std::vector<graph::VertexId> items() const {
    std::vector<graph::VertexId> out;
    out.reserve(count());
    for_each([&](graph::VertexId w) { out.push_back(w); });
    return out;
  }
  std::vector<graph::VertexId> cells() const { return slab_->cells(t_); }

 private:
  const TableSlab* slab_;
  std::uint32_t t_;
};

}  // namespace logcc::core
