// util::EpochPtr under concurrent publish/read churn — the serve layer's
// snapshot-swap primitive (PR 10 satellite). One writer publishes
// generations as fast as it can while 8 reader threads load continuously;
// every loaded snapshot must be internally consistent (immutable once
// published), epochs must be monotonic, and dropped snapshots must be
// freed exactly once (shared_ptr accounting). The TSan CI job runs this
// suite to race-check the load/store pair.
#include "util/epoch.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace logcc {
namespace {

/// A snapshot whose fields must agree: value * 3 == triple, and the
/// guard must equal the value xored with the build-time constant. A torn
/// or mutated-after-publish snapshot breaks one of the equations.
struct Snapshot {
  std::uint64_t value;
  std::uint64_t triple;
  std::uint64_t guard;
  static constexpr std::uint64_t kGuardXor = 0x9E3779B97F4A7C15ull;
  explicit Snapshot(std::uint64_t v)
      : value(v), triple(3 * v), guard(v ^ kGuardXor) {}
  bool consistent() const {
    return triple == 3 * value && guard == (value ^ kGuardXor);
  }
};

TEST(EpochPtr, StartsNullAtEpochZero) {
  util::EpochPtr<Snapshot> p;
  EXPECT_EQ(p.load(), nullptr);
  EXPECT_EQ(p.epoch(), 0u);
}

TEST(EpochPtr, StoreBumpsEpochAndSwapsValue) {
  util::EpochPtr<Snapshot> p;
  p.store(std::make_shared<const Snapshot>(7));
  EXPECT_EQ(p.epoch(), 1u);
  EXPECT_EQ(p.load()->value, 7u);
  p.store(std::make_shared<const Snapshot>(8));
  EXPECT_EQ(p.epoch(), 2u);
  EXPECT_EQ(p.load()->value, 8u);
}

TEST(EpochPtr, OldSnapshotSurvivesWhileHeld) {
  util::EpochPtr<Snapshot> p;
  p.store(std::make_shared<const Snapshot>(1));
  const auto held = p.load();
  p.store(std::make_shared<const Snapshot>(2));
  EXPECT_EQ(held->value, 1u) << "a held epoch must keep its view";
  EXPECT_EQ(p.load()->value, 2u);
}

TEST(EpochPtr, ConcurrentPublishReadChurn) {
  constexpr int kReaders = 8;
  constexpr std::uint64_t kGenerations = 20000;

  util::EpochPtr<Snapshot> p;
  p.store(std::make_shared<const Snapshot>(0));
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> loads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      std::uint64_t my_loads = 0;
      std::uint64_t last_epoch = 0;
      std::uint64_t my_torn = 0;
      started.fetch_add(1, std::memory_order_release);
      while (!done.load(std::memory_order_acquire)) {
        // Epoch-then-load: the snapshot read must be at least as new as
        // the epoch observed before it (the counter bumps on store).
        const std::uint64_t e = p.epoch();
        const auto snap = p.load();
        if (snap == nullptr || !snap->consistent()) ++my_torn;
        if (e < last_epoch) ++my_torn;  // monotonicity violation
        last_epoch = e;
        ++my_loads;
      }
      torn.fetch_add(my_torn, std::memory_order_relaxed);
      loads.fetch_add(my_loads, std::memory_order_relaxed);
    });
  }

  // Publish/read churn needs actual overlap: 20k stores outrun thread
  // startup, so wait for every reader's first iteration before racing.
  while (started.load(std::memory_order_acquire) < kReaders) {
  }
  for (std::uint64_t g = 1; g <= kGenerations; ++g)
    p.store(std::make_shared<const Snapshot>(g));
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(torn.load(), 0u)
      << "a reader observed a torn, mutated, or epoch-regressed snapshot";
  EXPECT_GT(loads.load(), 0u);
  EXPECT_EQ(p.epoch(), kGenerations + 1);
  EXPECT_EQ(p.load()->value, kGenerations);
  EXPECT_TRUE(p.load()->consistent());
}

TEST(EpochPtr, ChurnWithHeldReferences) {
  // Readers that HOLD snapshots across many generations: the writer keeps
  // publishing, held epochs must stay alive and unchanged until released.
  util::EpochPtr<Snapshot> p;
  p.store(std::make_shared<const Snapshot>(0));
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<std::uint64_t> violations{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&] {
      started.fetch_add(1, std::memory_order_release);
      while (!done.load(std::memory_order_acquire)) {
        const auto held = p.load();
        const std::uint64_t v = held->value;
        // Spin a little while the writer races ahead, then re-check the
        // held snapshot did not change underneath us.
        for (int spin = 0; spin < 64; ++spin) {
          if (!held->consistent() || held->value != v) {
            violations.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }
  while (started.load(std::memory_order_acquire) < 8) {
  }
  for (std::uint64_t g = 1; g <= 5000; ++g)
    p.store(std::make_shared<const Snapshot>(g));
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_EQ(violations.load(), 0u);
}

}  // namespace
}  // namespace logcc
