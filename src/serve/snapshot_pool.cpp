#include "serve/snapshot_pool.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/scan.hpp"

namespace logcc::serve {

using graph::VertexId;

namespace {

bool canonical_at(std::span<const VertexId> labels,
                  std::span<const std::uint64_t> sizes, std::size_t v) {
  const VertexId l = labels[v];
  return l <= v && labels[l] == l && (sizes[v] != 0) == (l == v);
}

}  // namespace

SnapshotPool::SnapshotPool(std::uint64_t n)
    : n_(n), keep_(n / kFullCopyFraction), bin_(std::make_shared<Bin>()) {}

void SnapshotPool::note_rebuilt() {
  // Skip one position: every buffer's `synced` now lies before the base.
  journal_base_ += journal_.size() + 1;
  journal_.clear();
}

void SnapshotPool::trim_journal() {
  const std::size_t drop = journal_.size() - keep_;
  journal_.erase(journal_.begin(), journal_.begin() + drop);
  journal_base_ += drop;
}

std::shared_ptr<const Snapshot> SnapshotPool::fill(
    std::span<const VertexId> labels, std::span<const std::uint64_t> sizes,
    std::uint64_t count, std::uint64_t epoch, bool degraded) {
  std::unique_ptr<Slot> slot;
  std::vector<std::unique_ptr<Slot>> stale;  // freed outside the lock
  {
    std::lock_guard<std::mutex> lock(bin_->mu);
    auto& free = bin_->free;
    if (!free.empty()) {
      const auto newest = std::max_element(
          free.begin(), free.end(),
          [](const auto& a, const auto& b) { return a->synced < b->synced; });
      slot = std::move(*newest);
      free.erase(newest);
      stale.swap(free);
    }
  }
  buffers_ -= stale.size();

  const std::uint64_t end = journal_base_ + journal_.size();
  const bool patch = slot != nullptr && slot->synced >= journal_base_ &&
                     (end - slot->synced) * kFullCopyFraction <= n_;
  if (slot == nullptr) {
    slot = std::make_unique<Slot>();
    ++buffers_;
  }
  core::ComponentIndex& ix = slot->snap.index;
  if (patch) {
    const std::size_t first = slot->synced - journal_base_;
    for (std::size_t i = first; i < journal_.size(); ++i) {
      const VertexId v = journal_[i];
      const VertexId l = labels[v];
      LOGCC_CHECK_MSG(l <= v && labels[l] == l,
                      "snapshot publish: labels are not min-id canonical");
      // A size changes only at a root or at a root this batch absorbed, so
      // a member that was not a root in this buffer keeps its 0.
      const bool was_root = ix.labels_[v] == v;
      ix.labels_[v] = l;
      if (l == v || was_root) {
        LOGCC_CHECK_MSG((sizes[v] != 0) == (l == v),
                        "snapshot publish: sizes are not root-indexed");
        ix.sizes_[v] = sizes[v];
      }
    }
  } else {
    const bool canonical = util::parallel_reduce(
        std::size_t{0}, labels.size(), true,
        [&](std::size_t v) { return canonical_at(labels, sizes, v); },
        [](bool a, bool b) { return a && b; });
    LOGCC_CHECK_MSG(canonical,
                    "snapshot publish: labels are not min-id canonical");
    ix.labels_.assign(labels.begin(), labels.end());
    ix.sizes_.assign(sizes.begin(), sizes.end());
  }
  ix.num_components_ = count;
  slot->synced = end;
  slot->snap.epoch = epoch;
  slot->snap.degraded = degraded;

  Slot* raw = slot.release();
  return std::shared_ptr<const Snapshot>(
      &raw->snap, [bin = bin_, raw](const Snapshot*) {
        std::lock_guard<std::mutex> lock(bin->mu);
        bin->free.emplace_back(raw);
      });
}

std::uint64_t SnapshotPool::resident_bytes() const {
  const std::uint64_t per_buffer =
      sizeof(Slot) + n_ * (sizeof(VertexId) + sizeof(std::uint64_t));
  return buffers_ * per_buffer + journal_.capacity() * sizeof(VertexId);
}

}  // namespace logcc::serve
