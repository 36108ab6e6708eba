#include "xai/core/linalg.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "support/explain_reference.h"
#include "xai/core/rng.h"

namespace xai {
namespace {

// The materialized solve CwlsAccumulator is checked against.
using reference::ConstrainedWeightedLeastSquares;

// Generates y = X w + b exactly (no noise).
void MakeExactLinear(int n, int d, uint64_t seed, Matrix* x, Vector* y,
                     Vector* w, double* b) {
  Rng rng(seed);
  *x = Matrix(n, d);
  w->resize(d);
  for (int j = 0; j < d; ++j) (*w)[j] = rng.Uniform(-2, 2);
  *b = rng.Uniform(-1, 1);
  y->resize(n);
  for (int i = 0; i < n; ++i) {
    double acc = *b;
    for (int j = 0; j < d; ++j) {
      (*x)(i, j) = rng.Normal();
      acc += (*w)[j] * (*x)(i, j);
    }
    (*y)[i] = acc;
  }
}

TEST(RidgeTest, RecoversExactCoefficientsWithIntercept) {
  Matrix x;
  Vector y, w;
  double b;
  MakeExactLinear(200, 4, 3, &x, &y, &w, &b);
  Vector coef = RidgeRegression(x, y, 1e-10, true).ValueOrDie();
  ASSERT_EQ(coef.size(), 5u);
  for (int j = 0; j < 4; ++j) EXPECT_NEAR(coef[j], w[j], 1e-6);
  EXPECT_NEAR(coef[4], b, 1e-6);
}

TEST(RidgeTest, NoInterceptFitsThroughOrigin) {
  Matrix x = {{1}, {2}, {3}};
  Vector y = {2, 4, 6};
  Vector coef = RidgeRegression(x, y, 1e-12, false).ValueOrDie();
  ASSERT_EQ(coef.size(), 1u);
  EXPECT_NEAR(coef[0], 2.0, 1e-8);
}

TEST(RidgeTest, PenaltyShrinksCoefficients) {
  Matrix x;
  Vector y, w;
  double b;
  MakeExactLinear(100, 3, 5, &x, &y, &w, &b);
  Vector small = RidgeRegression(x, y, 1e-8, true).ValueOrDie();
  Vector large = RidgeRegression(x, y, 1e4, true).ValueOrDie();
  double norm_small = 0, norm_large = 0;
  for (int j = 0; j < 3; ++j) {
    norm_small += small[j] * small[j];
    norm_large += large[j] * large[j];
  }
  EXPECT_LT(norm_large, norm_small * 0.1);
}

TEST(RidgeTest, DimensionMismatchRejected) {
  Matrix x(3, 2);
  EXPECT_FALSE(RidgeRegression(x, {1, 2}, 0.1).ok());
}

TEST(WeightedRidgeTest, ZeroWeightIgnoresRow) {
  // Two clean points plus an outlier with weight 0.
  Matrix x = {{1}, {2}, {3}};
  Vector y = {2, 4, 100};
  Vector w = {1, 1, 0};
  Vector coef = WeightedRidgeRegression(x, y, w, 1e-10, false).ValueOrDie();
  EXPECT_NEAR(coef[0], 2.0, 1e-6);
}

TEST(WeightedRidgeTest, MatchesUnweightedWhenUniform) {
  Matrix x;
  Vector y, w;
  double b;
  MakeExactLinear(60, 3, 9, &x, &y, &w, &b);
  Vector ones(60, 1.0);
  Vector a = RidgeRegression(x, y, 0.5, true).ValueOrDie();
  Vector c = WeightedRidgeRegression(x, y, ones, 0.5, true).ValueOrDie();
  for (size_t j = 0; j < a.size(); ++j) EXPECT_NEAR(a[j], c[j], 1e-10);
}

TEST(ConstrainedWlsTest, ConstraintHolds) {
  Rng rng(17);
  Matrix x(40, 4);
  Vector y(40), w(40, 1.0);
  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 4; ++j) x(i, j) = rng.Normal();
    y[i] = rng.Normal();
  }
  Vector c = {1, 1, 1, 1};
  double d = 3.7;
  Vector sol = ConstrainedWeightedLeastSquares(x, y, w, c, d).ValueOrDie();
  EXPECT_NEAR(Dot(c, sol), d, 1e-8);
}

TEST(ConstrainedWlsTest, MatchesUnconstrainedWhenConstraintInactive) {
  // If the unconstrained optimum already satisfies c.w = d, the constrained
  // solution equals it.
  Matrix x;
  Vector y, w_true;
  double b;
  MakeExactLinear(300, 3, 21, &x, &y, &w_true, &b);
  // Remove intercept effect so the optimum is w_true exactly.
  for (int i = 0; i < x.rows(); ++i) y[i] -= b;
  Vector ones(x.rows(), 1.0);
  Vector c = {1, 1, 1};
  double d = w_true[0] + w_true[1] + w_true[2];
  Vector sol =
      ConstrainedWeightedLeastSquares(x, y, ones, c, d).ValueOrDie();
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(sol[j], w_true[j], 1e-6);
}

TEST(ConstrainedWlsTest, AllZeroSampleWeightsStillSatisfiesConstraint) {
  // With every sample weight zero the data term vanishes; the reduced ridge
  // problem returns the zero vector and the eliminated coefficient absorbs
  // the whole constraint: w = (0, d / c_k).
  Matrix x = {{1, 2}, {3, 4}, {5, 6}};
  Vector y = {1, 2, 3};
  Vector w(3, 0.0);
  Vector sol =
      ConstrainedWeightedLeastSquares(x, y, w, {1, 1}, 2.0).ValueOrDie();
  ASSERT_EQ(sol.size(), 2u);
  EXPECT_NEAR(sol[0], 0.0, 1e-9);
  EXPECT_NEAR(sol[1], 2.0, 1e-9);
}

TEST(ConstrainedWlsTest, RankDeficientDuplicateColumns) {
  // Duplicate columns with the constraint w0 - w1 = 0 pin the split: the
  // model (w0 + w1) x = y with y = x has the unique constrained solution
  // w0 = w1 = 0.5 even though X^T X is singular.
  Rng rng(31);
  Matrix x(50, 2);
  Vector y(50), sw(50, 1.0);
  for (int i = 0; i < 50; ++i) {
    double v = rng.Normal();
    x(i, 0) = x(i, 1) = v;
    y[i] = v;
  }
  Vector sol =
      ConstrainedWeightedLeastSquares(x, y, sw, {1, -1}, 0.0).ValueOrDie();
  ASSERT_EQ(sol.size(), 2u);
  EXPECT_NEAR(sol[0], 0.5, 1e-6);
  EXPECT_NEAR(sol[1], 0.5, 1e-6);
}

TEST(ConstrainedWlsTest, SingleColumnSolvesZeroDimensionalReduction) {
  // dim == 1 eliminates the only variable: the reduced design has zero
  // columns and the answer is exactly d / c_0 independent of the data.
  Matrix x = {{1}, {2}, {3}};
  Vector y = {5, -1, 4};
  Vector sw(3, 1.0);
  Vector sol =
      ConstrainedWeightedLeastSquares(x, y, sw, {2}, 3.0).ValueOrDie();
  ASSERT_EQ(sol.size(), 1u);
  EXPECT_DOUBLE_EQ(sol[0], 1.5);
}

TEST(ConstrainedWlsTest, RejectsZeroConstraint) {
  Matrix x(4, 2);
  Vector y(4), w(4, 1.0);
  EXPECT_FALSE(
      ConstrainedWeightedLeastSquares(x, y, w, {0, 0}, 1.0).ok());
}

TEST(ConjugateGradientTest, MatchesCholeskyOnSpd) {
  Rng rng(23);
  int n = 12;
  Matrix x(30, n);
  for (int i = 0; i < 30; ++i)
    for (int j = 0; j < n; ++j) x(i, j) = rng.Normal();
  Matrix a = x.Gram();
  a.AddScaledIdentity(1.0);
  Vector b(n);
  for (int j = 0; j < n; ++j) b[j] = rng.Normal();
  Vector direct = CholeskySolve(a, b).ValueOrDie();
  Vector cg =
      ConjugateGradient([&a](const Vector& v) { return a.MatVec(v); }, b)
          .ValueOrDie();
  for (int j = 0; j < n; ++j) EXPECT_NEAR(cg[j], direct[j], 1e-7);
}

TEST(ConjugateGradientTest, ZeroRhsGivesZero) {
  Matrix a = Matrix::Identity(3);
  Vector cg =
      ConjugateGradient([&a](const Vector& v) { return a.MatVec(v); },
                        {0, 0, 0})
          .ValueOrDie();
  EXPECT_EQ(cg, (Vector{0, 0, 0}));
}

TEST(ConjugateGradientTest, ZeroRhsNeverCallsOperator) {
  // Regression: with ||b|| == 0 the relative stopping rule degenerates; the
  // solver must fall back to the absolute residual, return x = 0 exactly,
  // and never touch the operator (which could otherwise divide by zero).
  int calls = 0;
  Vector cg = ConjugateGradient(
                  [&calls](const Vector& v) {
                    ++calls;
                    return v;
                  },
                  {0, 0, 0, 0})
                  .ValueOrDie();
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(cg, (Vector{0, 0, 0, 0}));
}

// --- Streaming accumulators: the fused-pipeline building blocks must be
// bit-identical to the materialized solvers they replace, for any split of
// the rows into blocks (chains concatenate in ascending row order). ---

::testing::AssertionResult BitEqualVec(const Vector& a, const Vector& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "size mismatch";
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// Random weighted problem with a sprinkling of exactly-zero weights (the
// accumulator compacts those out of the Gram operands but must keep them in
// the rhs chain, exactly like the materialized path).
void MakeWeightedProblem(int n, int d, uint64_t seed, Matrix* x, Vector* y,
                         Vector* w) {
  Rng rng(seed);
  *x = Matrix(n, d);
  y->resize(n);
  w->resize(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) (*x)(i, j) = rng.Normal();
    (*y)[i] = rng.Normal();
    (*w)[i] = i % 7 == 0 ? 0.0 : rng.Uniform(0.0, 2.0);
  }
}

const std::vector<std::vector<int>> kBlockSplits = {
    {150}, {64, 64, 22}, {1, 149}, {37, 50, 37, 26}};

TEST(WlsAccumulatorTest, BitIdenticalToWeightedRidgeAcrossBlockSplits) {
  const int n = 150, d = 6;
  Matrix x;
  Vector y, w;
  MakeWeightedProblem(n, d, 101, &x, &y, &w);
  Vector ref = WeightedRidgeRegression(x, y, w, 0.5, true).ValueOrDie();

  // The accumulator takes caller-augmented rows; append the intercept
  // column exactly as AppendOnesColumn does.
  std::vector<double> aug(static_cast<size_t>(n) * (d + 1));
  for (int i = 0; i < n; ++i) {
    std::memcpy(&aug[static_cast<size_t>(i) * (d + 1)], x.RowPtr(i),
                sizeof(double) * d);
    aug[static_cast<size_t>(i) * (d + 1) + d] = 1.0;
  }
  for (const std::vector<int>& split : kBlockSplits) {
    WlsAccumulator acc(d + 1, /*fit_intercept=*/true);
    int base = 0;
    for (int bn : split) {
      acc.AddBlock(&aug[static_cast<size_t>(base) * (d + 1)], y.data() + base,
                   w.data() + base, bn);
      base += bn;
    }
    ASSERT_EQ(base, n);
    EXPECT_EQ(acc.rows_seen(), n);
    Vector got = acc.Solve(0.5).ValueOrDie();
    EXPECT_TRUE(BitEqualVec(ref, got)) << "split[0]=" << split[0];
  }
}

TEST(WlsAccumulatorTest, NoInterceptBitIdenticalToWeightedRidge) {
  const int n = 90, d = 4;
  Matrix x;
  Vector y, w;
  MakeWeightedProblem(n, d, 102, &x, &y, &w);
  Vector ref = WeightedRidgeRegression(x, y, w, 0.01, false).ValueOrDie();
  WlsAccumulator acc(d, /*fit_intercept=*/false);
  acc.AddBlock(x.RowPtr(0), y.data(), w.data(), n);
  Vector got = acc.Solve(0.01).ValueOrDie();
  EXPECT_TRUE(BitEqualVec(ref, got));
}

TEST(WlsAccumulatorTest, ResidualSumOfSquaresMatchesDirectEvaluation) {
  const int n = 120, d = 5;
  Matrix x;
  Vector y, w;
  MakeWeightedProblem(n, d, 103, &x, &y, &w);
  WlsAccumulator acc(d, /*fit_intercept=*/false);
  acc.AddBlock(x.RowPtr(0), y.data(), w.data(), n);
  Vector coef = acc.Solve(0.1).ValueOrDie();
  double direct = 0.0, wsum = 0.0, wysum = 0.0;
  for (int i = 0; i < n; ++i) {
    double pred = 0.0;
    for (int j = 0; j < d; ++j) pred += coef[j] * x(i, j);
    direct += w[i] * (y[i] - pred) * (y[i] - pred);
    wsum += w[i];
    wysum += w[i] * y[i];
  }
  double got = acc.ResidualSumOfSquares(coef);
  EXPECT_NEAR(got, direct, 1e-8 * std::max(1.0, direct));
  EXPECT_NEAR(acc.weight_sum(), wsum, 1e-12);
  EXPECT_NEAR(acc.weighted_y_sum(), wysum, 1e-10);
}

TEST(CwlsAccumulatorTest, BitIdenticalToConstrainedWlsAcrossBlockSplits) {
  const int n = 150, d = 5;
  Matrix x;
  Vector y, w;
  MakeWeightedProblem(n, d, 104, &x, &y, &w);
  // Mixed constraint with a zero coefficient: the pivot is the LAST
  // non-zero entry, matching the materialized elimination.
  Vector c = {2.0, 0.0, 1.0, -1.0, 3.0};
  const double dval = 2.5, l2 = 1e-9;
  Vector ref =
      ConstrainedWeightedLeastSquares(x, y, w, c, dval, l2).ValueOrDie();
  for (const std::vector<int>& split : kBlockSplits) {
    CwlsAccumulator acc(d, c, dval);
    int base = 0;
    for (int bn : split) {
      acc.AddBlock(x.RowPtr(base), y.data() + base, w.data() + base, bn);
      base += bn;
    }
    ASSERT_EQ(base, n);
    Vector got = acc.Solve(l2).ValueOrDie();
    EXPECT_TRUE(BitEqualVec(ref, got)) << "split[0]=" << split[0];
    EXPECT_NEAR(Dot(c, got), dval, 1e-8);
  }
}

TEST(CwlsAccumulatorTest, AllZeroWeightsMatchMaterialized) {
  Matrix x = {{1, 2}, {3, 4}, {5, 6}};
  Vector y = {1, 2, 3};
  Vector w(3, 0.0);
  Vector ones = {1.0, 1.0};
  Vector ref =
      ConstrainedWeightedLeastSquares(x, y, w, ones, 2.0).ValueOrDie();
  CwlsAccumulator acc(2, ones, 2.0);
  acc.AddBlock(x.RowPtr(0), y.data(), w.data(), 3);
  Vector got = acc.Solve(1e-9).ValueOrDie();
  EXPECT_TRUE(BitEqualVec(ref, got));
}

TEST(CwlsAccumulatorTest, RejectsZeroConstraint) {
  Vector zeros(3, 0.0);
  CwlsAccumulator acc(3, zeros, 1.0);
  EXPECT_FALSE(acc.Solve(1e-9).ok());
}

TEST(ConjugateGradientTest, RejectsIndefiniteOperator) {
  Matrix a = {{1, 0}, {0, -1}};
  auto result = ConjugateGradient(
      [&a](const Vector& v) { return a.MatVec(v); }, {1, 1});
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace xai
