#include "core/table_slab.hpp"

#include <bit>

#include "util/parallel.hpp"
#include "util/scan.hpp"

namespace logcc::core {

namespace {

constexpr std::size_t kLineWords = 8;  // 64B line / 8B slot words

/// Uniform-mode stride: power-of-two for sub-line tables (so consecutive
/// buckets pack a line without ever straddling it), whole lines above.
std::size_t uniform_stride(std::uint32_t cap) {
  if (cap <= kLineWords) return std::bit_ceil(std::max<std::uint32_t>(cap, 1));
  return (cap + kLineWords - 1) & ~(kLineWords - 1);
}

/// Variable-mode stride: whole lines (0 stays 0). Mixed capacities make
/// sub-line packing alignment-unsound, so every present table starts on its
/// own line.
std::size_t variable_stride(std::uint32_t cap) {
  return (static_cast<std::size_t>(cap) + kLineWords - 1) &
         ~(kLineWords - 1);
}

}  // namespace

void TableSlab::ensure_words(std::size_t total) {
  words_size_ = total;
  if (total <= words_cap_) return;
  // Grow geometrically; fresh memory is zeroed *in parallel* so (a) stale
  // bytes can never alias a live epoch tag and (b) the pages are first-
  // touched under the same contiguous lane segmentation the fill and sweep
  // loops use.
  const std::size_t cap = std::max(total, words_cap_ * 2);
  storage_.reset(new std::uint64_t[cap + kLineWords - 1]);
  ++slab_allocations_;
  auto addr = reinterpret_cast<std::uintptr_t>(storage_.get());
  const std::uintptr_t aligned = (addr + 63) & ~std::uintptr_t{63};
  words_ = storage_.get() + (aligned - addr) / sizeof(std::uint64_t);
  words_cap_ = cap;
  std::uint64_t* w = words_;
  util::parallel_for(0, cap, [w](std::size_t i) { w[i] = 0; });
  epoch_ = 1;
  tag_ = std::uint64_t{1} << 32;
}

void TableSlab::bump_epoch() {
  if (++epoch_ == 0) {
    // Wrap after 2^32 generations: stale stamps could alias again, so pay
    // one full re-zero and restart the epoch sequence.
    std::uint64_t* w = words_;
    util::parallel_for(0, words_cap_, [w](std::size_t i) { w[i] = 0; });
    epoch_ = 1;
  }
  tag_ = static_cast<std::uint64_t>(epoch_) << 32;
}

void TableSlab::reset_uniform(std::uint32_t num, std::uint32_t capacity) {
  uniform_ = true;
  ucap_ = capacity;
  stride_ = uniform_stride(capacity);
  ensure_words(static_cast<std::size_t>(num) * stride_);
  bump_epoch();
  count_.resize(num);
  collided_.resize(num);
  util::parallel_for(0, num, [&](std::size_t t) {
    count_[t] = 0;
    collided_[t] = 0;
  });
}

void TableSlab::reset_variable(std::span<const std::uint32_t> caps) {
  uniform_ = false;
  const std::size_t num = caps.size();
  cap_.resize(num);
  offset_.resize(num + 1);
  count_.resize(num);
  collided_.resize(num);
  util::parallel_for(0, num, [&](std::size_t t) {
    cap_[t] = caps[t];
    offset_[t] = variable_stride(caps[t]);
    count_[t] = 0;
    collided_[t] = 0;
  });
  const std::size_t total = util::parallel_prefix_sum(offset_.data(), num);
  offset_[num] = total;
  ensure_words(total);
  bump_epoch();
}

void TableSlab::snapshot_into(std::vector<std::uint64_t>& snap) const {
  snap.resize(words_size_);
  const std::uint64_t* src = words_;
  std::uint64_t* dst = snap.data();
  util::parallel_for(0, words_size_,
                     [src, dst](std::size_t i) { dst[i] = src[i]; });
}

}  // namespace logcc::core
