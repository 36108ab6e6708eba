#include "xai/core/combinatorics.h"

#include <gtest/gtest.h>

#include <cmath>

namespace xai {
namespace {

TEST(CombinatoricsTest, Factorial) {
  EXPECT_DOUBLE_EQ(Factorial(0), 1);
  EXPECT_DOUBLE_EQ(Factorial(5), 120);
  EXPECT_DOUBLE_EQ(Factorial(10), 3628800);
}

TEST(CombinatoricsTest, Binomial) {
  EXPECT_DOUBLE_EQ(BinomialCoefficient(5, 2), 10);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(10, 0), 1);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(10, 10), 1);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(4, 7), 0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(52, 5), 2598960);
}

TEST(CombinatoricsTest, ShapleyWeightsSumToOne) {
  // sum over subset sizes s of C(n-1, s) * w(n, s) = 1.
  for (int n = 1; n <= 12; ++n) {
    double total = 0.0;
    for (int s = 0; s < n; ++s)
      total += BinomialCoefficient(n - 1, s) * ShapleyWeight(n, s);
    EXPECT_NEAR(total, 1.0, 1e-12) << "n=" << n;
  }
}

TEST(CombinatoricsTest, MaskConversions) {
  std::vector<int> idx = {0, 2, 5};
  uint64_t mask = IndicesToMask(idx);
  EXPECT_EQ(mask, 0b100101u);
  EXPECT_EQ(MaskToIndices(mask), idx);
  EXPECT_EQ(PopCount(mask), 3);
}

TEST(ShapleySetFunctionTest, AdditiveGameGivesIndividualValues) {
  // v(S) = sum of per-player values: Shapley = those values.
  std::vector<double> vals = {1.0, -2.0, 0.5, 3.0};
  auto v = [&](uint64_t mask) {
    double acc = 0.0;
    for (int i = 0; i < 4; ++i)
      if (mask & (1ULL << i)) acc += vals[i];
    return acc;
  };
  std::vector<double> phi = ShapleyOfSetFunction(4, v);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(phi[i], vals[i], 1e-12);
}

TEST(ShapleySetFunctionTest, GloveGame) {
  // Players 0,1 hold left gloves, player 2 the right glove;
  // v(S) = 1 iff S contains a left and the right glove.
  auto v = [](uint64_t mask) {
    bool left = (mask & 1) || (mask & 2);
    bool right = mask & 4;
    return left && right ? 1.0 : 0.0;
  };
  std::vector<double> phi = ShapleyOfSetFunction(3, v);
  EXPECT_NEAR(phi[0], 1.0 / 6, 1e-12);
  EXPECT_NEAR(phi[1], 1.0 / 6, 1e-12);
  EXPECT_NEAR(phi[2], 4.0 / 6, 1e-12);
}

TEST(ShapleySetFunctionTest, EfficiencyHoldsForRandomGame) {
  // Random game: Shapley values must sum to v(N) - v(empty).
  auto v = [](uint64_t mask) {
    // A fixed arbitrary but deterministic function.
    return std::sin(static_cast<double>(mask) * 1.7) +
           0.3 * PopCount(mask);
  };
  std::vector<double> phi = ShapleyOfSetFunction(6, v);
  double sum = 0.0;
  for (double p : phi) sum += p;
  EXPECT_NEAR(sum, v((1ULL << 6) - 1) - v(0), 1e-9);
}

TEST(ShapleySetFunctionTest, DummyPlayerGetsZero) {
  // Player 2 never changes the value.
  auto v = [](uint64_t mask) {
    return ((mask & 1) ? 2.0 : 0.0) + ((mask & 2) ? 1.0 : 0.0);
  };
  std::vector<double> phi = ShapleyOfSetFunction(3, v);
  EXPECT_NEAR(phi[2], 0.0, 1e-12);
}

TEST(ShapleySetFunctionTest, SymmetricPlayersGetEqualShares) {
  // v(S) = |S|^2: all players symmetric.
  auto v = [](uint64_t mask) {
    double s = PopCount(mask);
    return s * s;
  };
  std::vector<double> phi = ShapleyOfSetFunction(5, v);
  for (int i = 1; i < 5; ++i) EXPECT_NEAR(phi[i], phi[0], 1e-12);
  EXPECT_NEAR(phi[0], 5.0, 1e-12);  // Sum = 25, split 5 ways.
}

}  // namespace
}  // namespace xai
