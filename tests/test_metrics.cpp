#include "core/metrics.hpp"

#include <gtest/gtest.h>

namespace logcc::core {
namespace {

TEST(RunStats, DefaultsAreZero) {
  RunStats s;
  EXPECT_EQ(s.rounds, 0u);
  EXPECT_EQ(s.phases, 0u);
  EXPECT_EQ(s.prepare_phases, 0u);
  EXPECT_EQ(s.pram_steps, 0u);
  EXPECT_EQ(s.max_level, 0u);
  EXPECT_FALSE(s.finisher_used);
  EXPECT_FALSE(s.prepare_used);
  EXPECT_TRUE(s.level_histogram.empty());
}

TEST(RunStats, AbsorbSumsAndMaxes) {
  RunStats a, b;
  a.rounds = 1;
  a.prepare_phases = 2;
  a.peak_space_words = 100;
  a.total_block_words = 10;
  b.rounds = 3;
  b.prepare_phases = 4;
  b.peak_space_words = 50;
  b.total_block_words = 20;
  b.prepare_used = true;
  a.absorb(b);
  EXPECT_EQ(a.rounds, 4u);
  EXPECT_EQ(a.prepare_phases, 6u);
  EXPECT_EQ(a.peak_space_words, 100u);  // max, not sum
  EXPECT_EQ(a.total_block_words, 30u);  // sum
  EXPECT_TRUE(a.prepare_used);
  EXPECT_FALSE(a.finisher_used);
}

TEST(RunStats, AbsorbMergesHistograms) {
  RunStats a, b;
  a.level_histogram = {1, 2};
  b.level_histogram = {0, 5, 7};
  a.absorb(b);
  ASSERT_EQ(a.level_histogram.size(), 3u);
  EXPECT_EQ(a.level_histogram[0], 1u);
  EXPECT_EQ(a.level_histogram[1], 7u);
  EXPECT_EQ(a.level_histogram[2], 7u);
}

TEST(RunStats, AbsorbEmptyIsIdentity) {
  RunStats a;
  a.rounds = 5;
  a.max_level = 3;
  RunStats before = a;
  a.absorb(RunStats{});
  EXPECT_EQ(a.rounds, before.rounds);
  EXPECT_EQ(a.max_level, before.max_level);
}

}  // namespace
}  // namespace logcc::core
