// SnapshotPool: the serving engine's publish path (docs/ARCHITECTURE.md
// "Serving layer"). Each epoch is one immutable Snapshot: the exact
// core::ComponentIndex plus the epoch number and degraded flag that queries
// report with it. Snapshots live in recycled buffers, so a publish costs
// O(entries changed since the buffer was last filled), not O(n).
//
// Hand-off: a published buffer is never written while anyone holds it. Its
// shared_ptr deleter hands it back to a mutex-guarded bin that every
// outstanding deleter co-owns, so the bin outlives the engine and the
// reader-to-writer hand-off is an ordinary lock a race detector sees.
//
// Refill: the writer notes every label/size entry it changes in one
// journal, and each buffer remembers the journal position its contents
// match. fill() takes the free buffer with the newest position and patches
// only the entries journaled after it. A buffer more than
// n / kFullCopyFraction entries behind is filled by a full copy instead;
// when every buffer is pinned by readers the pool grows by one, also by a
// full copy. A fill frees every other free buffer, so with no reader
// holding an old epoch the pool settles at two buffers.
//
// Canonicity: every entry a fill writes is LOGCC_CHECKed against the
// min-id form (labels[v] <= v, labels[labels[v]] == labels[v], sizes[v]
// non-zero exactly at roots). The writer's arrays start canonical and every
// change reaches a check when a buffer is next filled, so the invariant
// holds inductively without an O(n) pass per publish.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/component_index.hpp"
#include "graph/graph.hpp"

namespace logcc::serve {

/// One published epoch. The index, the epoch that produced it and whether
/// the exact tier was frozen (degraded mode) travel in one object, so a
/// query's metadata always describes the index that answered it.
struct Snapshot {
  core::ComponentIndex index;
  std::uint64_t epoch = 0;
  bool degraded = false;
};

/// The index inside a published snapshot, sharing its ownership: holding
/// the result pins the snapshot's buffer.
inline std::shared_ptr<const core::ComponentIndex> index_of(
    std::shared_ptr<const Snapshot> s) {
  const core::ComponentIndex* index = &s->index;
  return {std::move(s), index};
}

class SnapshotPool {
 public:
  /// A buffer further behind than n / kFullCopyFraction journal entries
  /// is refilled by a full copy.
  static constexpr std::uint64_t kFullCopyFraction = 8;

  explicit SnapshotPool(std::uint64_t n);

  /// Entry v of the writer's labels or sizes changed.
  void note_changed(graph::VertexId v) {
    journal_.push_back(v);
    if (journal_.size() > 2 * keep_) trim_journal();
  }
  /// The writer's arrays were rebuilt wholesale: every existing buffer's
  /// next fill is a full copy.
  void note_rebuilt();

  /// A snapshot equal to the writer's (labels, sizes, count), tagged with
  /// (epoch, degraded). Single writer; readers may release earlier
  /// snapshots concurrently.
  std::shared_ptr<const Snapshot> fill(
      std::span<const graph::VertexId> labels,
      std::span<const std::uint64_t> sizes, std::uint64_t count,
      std::uint64_t epoch, bool degraded);

  /// Bytes held by the live buffers and the journal.
  std::uint64_t resident_bytes() const;

 private:
  struct Slot {
    Snapshot snap;
    std::uint64_t synced = 0;  // journal position snap's arrays match
  };
  struct Bin {
    std::mutex mu;
    std::vector<std::unique_ptr<Slot>> free;
  };

  /// Drops journal entries no buffer can patch from any more.
  void trim_journal();

  std::uint64_t n_;
  std::uint64_t keep_;  // n / kFullCopyFraction
  std::shared_ptr<Bin> bin_;
  std::vector<graph::VertexId> journal_;
  std::uint64_t journal_base_ = 0;  // position of journal_[0]
  std::uint64_t buffers_ = 0;  // alive, pinned by readers or free
};

}  // namespace logcc::serve
