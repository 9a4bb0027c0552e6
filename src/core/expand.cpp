#include "core/expand.hpp"

#include <algorithm>

#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/scan.hpp"

namespace logcc::core {

namespace {

/// Buckets for the occupancy partition: a pure function of the slot count
/// (at least 2, which keeps the key shift < 64).
std::size_t occupancy_bucket_count(std::size_t n) {
  std::size_t buckets = 2;
  while (buckets < 256 && buckets * util::kSerialGrain < n) buckets <<= 1;
  return buckets;
}

}  // namespace

void ExpandEngine::mark_dormant(std::uint32_t slot, std::uint32_t round) {
  if (dormant_round_[slot] == kNeverDormant) dormant_round_[slot] = round;
}

void ExpandEngine::flush_collisions() {
  const auto& coll = collisions_;
  stats_->hash_collisions += util::parallel_reduce(
      std::size_t{0}, coll.size(), std::uint64_t{0},
      [&](std::size_t s) { return coll[s]; },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

void ExpandEngine::assign_blocks() {
  // h_B maps each ongoing vertex to a block; owning = unique occupant
  // (detected CRCW-style: write your id, re-read, then a second pass where
  // losers invalidate the cell — host-side we count occupants per key).
  const std::uint32_t num = num_slots();
  const auto& vertex_of = vertex_of_;
  auto& owns_block = owns_block_;
  auto& dormant_round = dormant_round_;
  // Occupancy: stable bucket partition of (block key, slot) pairs by mixed
  // key bits, then a per-bucket sort + run scan. Every slot appears exactly
  // once, so the owner writes are disjoint.
  auto& keys = block_keys_;
  auto& scattered = block_keys_tmp_;
  keys.resize(num);
  util::parallel_for(0, num, [&](std::size_t s) {
    keys[s] = {hb_(vertex_of[s], params_.block_count),
               static_cast<std::uint32_t>(s)};
  });
  const std::size_t buckets = occupancy_bucket_count(num);
  const int shift = 64 - std::countr_zero(buckets);
  scattered.resize(keys.size());
  util::ScratchBuffer<std::size_t> begin(buckets + 1);
  util::parallel_bucket_partition_into(
      keys.data(), keys.size(), scattered.data(), begin.span(), buckets,
      [shift](const auto& kv) {
        return static_cast<std::size_t>(util::mix64(kv.first) >> shift);
      });
  util::parallel_for_blocks(buckets, [&](std::size_t k) {
    auto* lo = scattered.data() + begin[k];
    auto* hi = scattered.data() + begin[k + 1];
    std::sort(lo, hi);
    for (auto* p = lo; p != hi;) {
      auto* q = p + 1;
      while (q != hi && q->first == p->first) ++q;
      const bool owner = (q - p) == 1;
      for (; p != q; ++p) {
        owns_block[p->second] = owner;
        if (!owner) dormant_round[p->second] = 0;
      }
    }
  });
  stats_->pram_steps += 2;
}

void ExpandEngine::seed_tables() {
  // Step (3): every arc (v, w), both directions — directed index j covers
  // arc j/2, direction j%2. A live v hashes v and w into H(v); a v without
  // a block instead marks its neighbours dormant (idempotent store of
  // round 0).
  const std::size_t m2 = arcs_.size() * 2;
  const auto& slot_of = slot_of_;
  const auto& owns_block = owns_block_;
  auto& dormant_round = dormant_round_;
  util::parallel_for(0, m2, [&](std::size_t j) {
    const Arc& a = arcs_[j >> 1];
    const VertexId v = (j & 1) ? a.v : a.u;
    const VertexId w = (j & 1) ? a.u : a.v;
    const std::uint32_t sv = slot_of[v];
    const std::uint32_t sw = slot_of[w];
    if (sv == kNoSlot || sw == kNoSlot) return;
    if (!owns_block[sv]) util::relaxed_store(dormant_round[sw], 0u);
  });
  // Bucket-partitioned table fill: emit the (owner slot, vertex) items in
  // directed-arc order, group them by slot, then let every slot replay its
  // own inserts serially — same per-table insert order as the serial
  // sweep, but slots fill in parallel.
  auto& items = fill_items_;
  auto& grouped = fill_items_grouped_;
  util::parallel_emit(
      m2, items,
      [&](std::size_t j) -> std::size_t {
        const Arc& a = arcs_[j >> 1];
        const VertexId v = (j & 1) ? a.v : a.u;
        const VertexId w = (j & 1) ? a.u : a.v;
        const std::uint32_t sv = slot_of[v];
        const std::uint32_t sw = slot_of[w];
        return (sv != kNoSlot && sw != kNoSlot && owns_block[sv]) ? 2 : 0;
      },
      [&](std::size_t j, FillItem* dst) {
        const Arc& a = arcs_[j >> 1];
        const VertexId v = (j & 1) ? a.v : a.u;
        const VertexId w = (j & 1) ? a.u : a.v;
        const std::uint32_t sv = slot_of[v];
        dst[0] = {sv, v};
        dst[1] = {sv, w};
      });
  const std::uint32_t num = num_slots();
  util::ScratchBuffer<std::size_t> slot_begin(num + 1);
  util::parallel_group_by_into(items, grouped, num,
                               [](const FillItem& it) { return it.slot; },
                               slot_begin.span());
  auto& coll = collisions_;
  TableSlab& tables = tables_;
  const std::uint32_t cap = params_.table_capacity;
  util::parallel_for(0, num, [&](std::size_t s) {
    coll[s] = 0;
    if (!owns_block[s]) return;
    const auto t = static_cast<std::uint32_t>(s);
    for (std::size_t i = slot_begin[s]; i < slot_begin[s + 1]; ++i) {
      const VertexId w = grouped[i].w;
      if (tables.insert_at(t, static_cast<std::uint32_t>(hv_(w, cap)), w) ==
          TableSlab::Insert::kCollision)
        ++coll[s];
    }
    // Isolated block owner still holds itself.
    const VertexId v = vertex_of_[s];
    if (tables.insert_at(t, static_cast<std::uint32_t>(hv_(v, cap)), v) ==
        TableSlab::Insert::kCollision)
      ++coll[s];
  });
  flush_collisions();
  // Step (4): collisions observed in round 0.
  util::parallel_for(0, num, [&](std::size_t s) {
    if (tables.collided(static_cast<std::uint32_t>(s))) mark_dormant(s, 0);
  });
  stats_->pram_steps += 2;
}

void ExpandEngine::snapshot_history() {
  if (!params_.keep_history) return;
  history_.emplace_back();
  auto& snap = history_.back();
  const std::uint32_t num = num_slots();
  snap.resize(num);
  const TableSlab& tables = tables_;
  util::parallel_for(0, num, [&](std::size_t s) {
    auto& items = snap[s];
    items.clear();
    items.reserve(tables.count(static_cast<std::uint32_t>(s)));
    tables.for_each(static_cast<std::uint32_t>(s),
                    [&](VertexId w) { items.push_back(w); });
  });
}

void ExpandEngine::doubling_rounds() {
  const std::uint32_t num = num_slots();
  const auto& slot_of = slot_of_;
  auto& coll = collisions_;
  const auto& owns_block = owns_block_;
  const auto& dormant_round = dormant_round_;
  TableSlab& tables = tables_;
  const std::uint32_t cap = params_.table_capacity;

  auto& changed = changed_;  // table changed last round
  auto& went_dormant = went_dormant_;
  auto& dormant_in = dormant_in_;
  auto& changed_now = changed_now_;
  auto& dormant_now = dormant_now_;
  changed.resize(num);
  went_dormant.resize(num);
  dormant_in.resize(num);
  changed_now.resize(num);
  dormant_now.resize(num);
  util::parallel_for(0, num, [&](std::size_t s) {
    changed[s] = 1;
    went_dormant[s] = dormant_round[s] != kNeverDormant;
  });
  auto& snap = snapshot_words_;

  for (std::uint32_t round = 1; round <= params_.max_rounds; ++round) {
    // Safe here even when a phase loop above holds the arena: between
    // kernel calls nothing lives in it (the RoundArena rule).
    util::scratch_arena_round_reset();
    ++stats_->pram_steps;
    ++stats_->expand_rounds;

    // Snapshot table contents (synchronous semantics: this round reads the
    // previous round's tables) as ONE flat copy of the slab — no per-slot
    // item vectors — and dormancy entering this round.
    tables.snapshot_into(snap);
    util::parallel_for(0, num, [&](std::size_t s) {
      dormant_in[s] = dormant_round[s] != kNeverDormant;
      changed_now[s] = 0;
      dormant_now[s] = 0;
      coll[s] = 0;
    });

    // One doubling step, parallel over slots: slot s reads only the
    // snapshots and writes only its own table/flags/tally. Iteration is in
    // cell order, exactly the order the per-slot items() snapshots gave.
    util::parallel_for(0, num, [&](std::size_t s) {
      if (!owns_block[s]) return;
      const auto t = static_cast<std::uint32_t>(s);
      // Skip slots whose whole 2-neighbourhood in table space is stable.
      bool needs_work = changed[s] != 0;
      if (!needs_work) {
        tables.for_each_in(snap, t, [&](VertexId v) {
          std::uint32_t sv = slot_of[v];
          if (sv != kNoSlot && (changed[sv] || went_dormant[sv]))
            needs_work = true;
        });
      }
      if (!needs_work) return;

      tables.for_each_in(snap, t, [&](VertexId v) {
        std::uint32_t sv = slot_of[v];
        if (sv == kNoSlot) return;
        if (dormant_in[sv]) {
          if (dormant_round[s] == kNeverDormant) {
            mark_dormant(t, round);
            dormant_now[s] = 1;
          }
        }
        tables.for_each_in(snap, sv, [&](VertexId w) {
          auto r = tables.insert_at(
              t, static_cast<std::uint32_t>(hv_(w, cap)), w);
          if (r == TableSlab::Insert::kNew) {
            changed_now[s] = 1;
          } else if (r == TableSlab::Insert::kCollision) {
            ++coll[s];
            if (dormant_round[s] == kNeverDormant) {
              mark_dormant(t, round);
              dormant_now[s] = 1;
            }
          }
        });
      });
    });
    flush_collisions();
    const bool any_change = util::parallel_reduce(
        std::size_t{0}, static_cast<std::size_t>(num), false,
        [&](std::size_t s) { return (changed_now[s] | dormant_now[s]) != 0; },
        [](bool a, bool b) { return a || b; });

    rounds_ = round;
    snapshot_history();
    changed.swap(changed_now);
    went_dormant.swap(dormant_now);
    if (!any_change) break;
  }
}

void ExpandEngine::run(std::span<const std::uint8_t> ongoing,
                       std::span<const Arc> arcs, const ExpandParams& params,
                       RunStats& stats) {
  LOGCC_CHECK(params.block_count >= 1);
  LOGCC_CHECK(params.table_capacity >= 2);
  arcs_ = arcs;
  params_ = params;
  stats_ = &stats;
  hb_ = util::PairwiseHash::from_seed(params.seed, 0xb10c);
  hv_ = util::PairwiseHash::from_seed(params.seed, 0x7ab1e);
  history_.clear();
  rounds_ = 0;
  // Slots number the flagged vertices in ascending order — a
  // stable pack of the flags, then the inverse map rebuilt over all n
  // (SHORTCUT already costs O(n) per phase, so nothing is saved by patching
  // the previous run's map).
  const std::size_t n = ongoing.size();
  util::parallel_emit(
      n, vertex_of_,
      [&](std::size_t v) -> std::size_t { return ongoing[v] != 0; },
      [](std::size_t v, VertexId* dst) { *dst = static_cast<VertexId>(v); });
  slot_of_.resize(n);
  util::parallel_for(0, n, [&](std::size_t v) { slot_of_[v] = kNoSlot; });
  const std::uint32_t num = num_slots();
  util::parallel_for(0, num, [&](std::size_t s) {
    slot_of_[vertex_of_[s]] = static_cast<std::uint32_t>(s);
  });
  // Tables live in one contiguous slab: the reset is O(num) bookkeeping
  // (no per-cell zeroing, no per-table vectors), and across runs the slab
  // memory is reused outright.
  tables_.reset_uniform(num, params_.table_capacity);
  owns_block_.resize(num);
  dormant_round_.resize(num);
  util::parallel_for(0, num, [&](std::size_t s) {
    owns_block_[s] = 0;
    dormant_round_[s] = kNeverDormant;
  });
  collisions_.resize(num);

  assign_blocks();
  seed_tables();
  snapshot_history();  // H_0
  doubling_rounds();
}

const std::vector<VertexId>& ExpandEngine::history(std::uint32_t j,
                                                   std::uint32_t slot) const {
  LOGCC_CHECK_MSG(params_.keep_history, "history not retained");
  LOGCC_CHECK(j < history_.size());
  return history_[j][slot];
}

}  // namespace logcc::core
