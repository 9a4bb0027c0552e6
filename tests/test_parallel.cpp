#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "util/timer.hpp"

namespace logcc::util {
namespace {

TEST(ParallelFor, CoversRangeExactlyOnce) {
  constexpr std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyAndReversedRanges) {
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  parallel_for(7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SmallRangeRunsSerially) {
  // Below the grain the loop must run inline (observable: order preserved).
  std::vector<std::size_t> order;
  parallel_for(0, 16, [&](std::size_t i) { order.push_back(i); });
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, OffsetRange) {
  std::vector<std::atomic<int>> hits(10);
  parallel_for(3, 7, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(hits[i].load(), (i >= 3 && i < 7) ? 1 : 0);
}

TEST(ParallelFor, SumMatchesSerial) {
  constexpr std::size_t n = 50000;
  std::vector<std::uint64_t> data(n);
  std::iota(data.begin(), data.end(), 1);
  std::atomic<std::uint64_t> total{0};
  parallel_for(0, n, [&](std::size_t i) {
    total.fetch_add(data[i], std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), n * (n + 1) / 2);
}

TEST(HardwareParallelism, AtLeastOne) {
  EXPECT_GE(hardware_parallelism(), 1);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i;
  double s = t.seconds();
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 60.0);
  EXPECT_NEAR(t.millis(), t.seconds() * 1e3, t.seconds() * 20);
  t.reset();
  EXPECT_LT(t.seconds(), s + 1.0);
}

}  // namespace
}  // namespace logcc::util
