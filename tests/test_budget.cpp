#include "core/budget.hpp"

#include <gtest/gtest.h>

namespace logcc::core {
namespace {

TEST(ParamPolicy, PracticalBasics) {
  ParamPolicy p = ParamPolicy::practical(1000, 4000);
  EXPECT_EQ(p.kind, ParamPolicy::Kind::kPractical);
  EXPECT_GE(p.b1, 4u);
  EXPECT_GT(p.budget_cap, 1000u);
  EXPECT_EQ(p.budget_for_level(0), 0u);
  EXPECT_EQ(p.budget_for_level(1), p.b1);
}

TEST(ParamPolicy, BudgetsGrowDoubleExponentially) {
  ParamPolicy p = ParamPolicy::practical(1 << 20, 1 << 23);
  // b_{l+1} = b_l^growth until the cap: log-budgets grow geometrically.
  std::uint64_t prev = p.budget_for_level(1);
  for (std::uint32_t l = 2; l <= p.saturation_level(); ++l) {
    std::uint64_t cur = p.budget_for_level(l);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  EXPECT_EQ(p.budget_for_level(p.saturation_level()), p.budget_cap);
}

TEST(ParamPolicy, BudgetMonotoneAndCapped) {
  ParamPolicy p = ParamPolicy::practical(100, 500);
  for (std::uint32_t l = 1; l < 60; ++l) {
    EXPECT_LE(p.budget_for_level(l), p.budget_cap);
    EXPECT_LE(p.budget_for_level(l), p.budget_for_level(l + 1));
  }
}

TEST(ParamPolicy, SaturationLevelIsLogLogLike) {
  // growth 1.5, b1 >= 4: levels to reach cap ~ log_{1.5}(log_4 cap) — tiny.
  ParamPolicy p = ParamPolicy::practical(1 << 22, 1 << 24);
  EXPECT_LE(p.saturation_level(), 16u);
  EXPECT_GE(p.saturation_level(), 2u);
}

TEST(ParamPolicy, RaiseProbabilityDecreasesWithBudget) {
  ParamPolicy p = ParamPolicy::practical(1 << 16, 1 << 18);
  double prev = 1.1;
  for (std::uint64_t b : {4ULL, 16ULL, 256ULL, 65536ULL}) {
    double prob = p.raise_probability(b);
    EXPECT_LE(prob, prev);
    EXPECT_GE(prob, 0.0);
    prev = prob;
  }
}

TEST(ParamPolicy, RaiseProbabilityPositiveEvenAtCap) {
  // The random raise must stay available at the cap: it is the only
  // mechanism that desynchronises equal-level saturated clusters
  // (Lemma 3.8/D.11). Break-condition reachability is handled by the driver
  // (only active roots flip the coin), not by zeroing the probability.
  ParamPolicy p = ParamPolicy::practical(1000, 2000);
  EXPECT_GT(p.raise_probability(p.budget_cap), 0.0);
  EXPECT_LT(p.raise_probability(p.budget_cap), 0.5);
  EXPECT_GT(p.raise_probability(p.b1), p.raise_probability(p.budget_cap));
}

TEST(ParamPolicy, TableCapacityModes) {
  ParamPolicy practical = ParamPolicy::practical(1000, 4000);
  EXPECT_EQ(practical.table_capacity(64), 64u);
  ParamPolicy paper = ParamPolicy::paper(1000, 4000);
  EXPECT_EQ(paper.table_capacity(64), 8u);  // sqrt(b)
  EXPECT_EQ(practical.table_capacity(0), 0u);
  EXPECT_GE(practical.table_capacity(1), 2u);  // floor
}

TEST(ParamPolicy, PaperModeSaturatesImmediatelyAtFeasibleN) {
  // log^200 n dwarfs any feasible m/n: b1 hits the cap, as the header of
  // core/budget.hpp says.
  ParamPolicy p = ParamPolicy::paper(1 << 20, 1 << 22);
  EXPECT_EQ(p.b1, p.budget_cap);
  EXPECT_EQ(p.saturation_level(), 1u);
}

TEST(ParamPolicy, PaperGrowthConstant) {
  ParamPolicy p = ParamPolicy::paper(1 << 20, 1 << 22);
  EXPECT_DOUBLE_EQ(p.growth, 1.01);
  EXPECT_TRUE(p.table_is_sqrt);
}

}  // namespace
}  // namespace logcc::core
