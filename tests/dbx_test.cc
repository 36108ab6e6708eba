#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <string>

#include "xai/core/rng.h"
#include "xai/dbx/responsibility.h"
#include "xai/dbx/shared_scan.h"
#include "xai/dbx/tuple_shapley.h"
#include "xai/relational/provenance.h"

namespace xai {
namespace {

using rel::ProvExpr;
using rel::ProvExprPtr;

// Lineage t1*t2 + t3: the textbook example with known Shapley values
// phi(t1) = phi(t2) = 1/6, phi(t3) = 2/3.
ProvExprPtr AndOrLineage() {
  return ProvExpr::Plus(
      ProvExpr::Times(ProvExpr::Base(1), ProvExpr::Base(2)),
      ProvExpr::Base(3));
}

TEST(TupleShapleyTest, KnownAndOrValues) {
  auto result =
      BooleanQueryTupleShapley(AndOrLineage(), {1, 2, 3}).ValueOrDie();
  EXPECT_TRUE(result.exact);
  EXPECT_NEAR(result.values[1], 1.0 / 6, 1e-12);
  EXPECT_NEAR(result.values[2], 1.0 / 6, 1e-12);
  EXPECT_NEAR(result.values[3], 2.0 / 3, 1e-12);
}

TEST(TupleShapleyTest, EfficiencySumsToOneWhenAnswerHolds) {
  auto result =
      BooleanQueryTupleShapley(AndOrLineage(), {1, 2, 3}).ValueOrDie();
  double sum = 0;
  for (const auto& [id, v] : result.values) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(TupleShapleyTest, ExogenousTuplesAlwaysPresent) {
  // Endogenous only t1; t2 exogenous: lineage t1*t2 behaves like t1.
  auto lineage = ProvExpr::Times(ProvExpr::Base(1), ProvExpr::Base(2));
  auto result = BooleanQueryTupleShapley(lineage, {1}).ValueOrDie();
  EXPECT_NEAR(result.values[1], 1.0, 1e-12);
}

TEST(TupleShapleyTest, IrrelevantTupleGetsZero) {
  auto lineage = ProvExpr::Base(1);
  auto result = BooleanQueryTupleShapley(lineage, {1, 2}).ValueOrDie();
  EXPECT_NEAR(result.values[1], 1.0, 1e-12);
  EXPECT_NEAR(result.values[2], 0.0, 1e-12);
}

TEST(TupleShapleyTest, SamplingMatchesExact) {
  // Force sampling with a low exact limit.
  TupleShapleyConfig config;
  config.exact_limit = 2;
  config.permutations = 20000;
  auto sampled =
      BooleanQueryTupleShapley(AndOrLineage(), {1, 2, 3}, config)
          .ValueOrDie();
  EXPECT_FALSE(sampled.exact);
  EXPECT_NEAR(sampled.values[1], 1.0 / 6, 0.02);
  EXPECT_NEAR(sampled.values[3], 2.0 / 3, 0.02);
}

TEST(TupleShapleyTest, RejectsEmptyPlayers) {
  EXPECT_FALSE(BooleanQueryTupleShapley(AndOrLineage(), {}).ok());
}

// Sampling divides by the permutation count, so a non-positive count has
// no estimate to return; the exact path never reads it.
TEST(TupleShapleyTest, SamplingRejectsNonPositivePermutations) {
  auto count = [](const std::vector<int>& present) {
    return static_cast<double>(present.size());
  };
  for (int permutations : {0, -5}) {
    SCOPED_TRACE("permutations " + std::to_string(permutations));
    TupleShapleyConfig config;
    config.permutations = permutations;
    config.exact_limit = 0;
    const auto boolean =
        BooleanQueryTupleShapley(AndOrLineage(), {1, 2, 3}, config);
    EXPECT_EQ(boolean.status().code(), StatusCode::kInvalidArgument);
    const auto numeric = NumericQueryTupleShapley(count, {1, 2, 3}, config);
    EXPECT_EQ(numeric.status().code(), StatusCode::kInvalidArgument);

    config.exact_limit = 20;
    const auto exact_boolean =
        BooleanQueryTupleShapley(AndOrLineage(), {1, 2, 3}, config);
    ASSERT_TRUE(exact_boolean.ok());
    EXPECT_TRUE(exact_boolean.ValueUnsafe().exact);
    EXPECT_NEAR(exact_boolean.ValueUnsafe().values.at(3), 2.0 / 3, 1e-12);
    const auto exact_numeric =
        NumericQueryTupleShapley(count, {1, 2, 3}, config);
    ASSERT_TRUE(exact_numeric.ok());
    EXPECT_NEAR(exact_numeric.ValueUnsafe().values.at(2), 1.0, 1e-12);
  }
}

TEST(TupleShapleyTest, CompileRefusesMoreThan64Players) {
  // Coalitions are 64-bit masks; a 65th player would have no bit.
  std::vector<int> endo(65);
  std::iota(endo.begin(), endo.end(), 0);
  EXPECT_DEATH(CompiledLineage::Compile(ProvExpr::Base(0), endo),
               "64 bits wide");
  endo.pop_back();
  EXPECT_EQ(CompiledLineage::Compile(ProvExpr::Base(63), endo).num_ops(), 1);
}

TEST(NumericTupleShapleyTest, CountQuery) {
  // Query = number of derivable answers among two answers with lineages
  // a1 = t1, a2 = t2*t3. phi(t1) = 1; phi(t2) = phi(t3) = 1/2.
  auto a1 = ProvExpr::Base(1);
  auto a2 = ProvExpr::Times(ProvExpr::Base(2), ProvExpr::Base(3));
  auto count_query = [&](const std::vector<int>& present) {
    auto has = [&](int id) {
      return std::find(present.begin(), present.end(), id) !=
             present.end();
    };
    double count = 0;
    if (a1->EvalBool(has)) count += 1;
    if (a2->EvalBool(has)) count += 1;
    return count;
  };
  auto result =
      NumericQueryTupleShapley(count_query, {1, 2, 3}).ValueOrDie();
  EXPECT_NEAR(result.values[1], 1.0, 1e-12);
  EXPECT_NEAR(result.values[2], 0.5, 1e-12);
  EXPECT_NEAR(result.values[3], 0.5, 1e-12);
}

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Permutation sampling as it ran before coalition values were memoized:
// the same RNG stream and accumulation chain, every visit evaluated.
std::map<int, double> UnmemoizedSampling(
    const std::function<double(const std::vector<int>&)>& query_value,
    const std::vector<int>& endogenous, const TupleShapleyConfig& config) {
  const int n = static_cast<int>(endogenous.size());
  auto value_of_mask = [&](uint64_t mask) {
    std::vector<int> present;
    for (int i = 0; i < n; ++i)
      if (mask & (1ULL << i)) present.push_back(endogenous[i]);
    return query_value(present);
  };
  Rng rng(config.seed);
  std::vector<double> acc(n, 0.0);
  for (int p = 0; p < config.permutations; ++p) {
    std::vector<int> perm = rng.Permutation(n);
    uint64_t mask = 0;
    double prev = value_of_mask(0);
    for (int i : perm) {
      mask |= 1ULL << i;
      double cur = value_of_mask(mask);
      acc[i] += cur - prev;
      prev = cur;
    }
  }
  std::map<int, double> values;
  for (int i = 0; i < n; ++i)
    values[endogenous[i]] = acc[i] / config.permutations;
  return values;
}

TEST(NumericTupleShapleyTest, SamplingEvaluatesEachCoalitionOnce) {
  // A non-additive game, so the accumulation order shows in the bits.
  auto game = [](const std::vector<int>& present) {
    double v = 0.0;
    for (int id : present) v += std::sqrt(static_cast<double>(id)) * 0.37;
    return v * v / (1.0 + static_cast<double>(present.size()));
  };
  std::map<std::vector<int>, int> calls;
  auto counting_game = [&](const std::vector<int>& present) {
    ++calls[present];
    return game(present);
  };
  const std::vector<int> endo = {3, 8, 5, 21, 13, 2};
  TupleShapleyConfig config;
  config.exact_limit = 0;
  config.permutations = 300;
  config.seed = 77;
  auto result =
      NumericQueryTupleShapley(counting_game, endo, config).ValueOrDie();
  EXPECT_FALSE(result.exact);
  for (const auto& [present, count] : calls)
    EXPECT_EQ(count, 1) << "coalition of " << present.size() << " tuples";
  EXPECT_EQ(result.game_evaluations, static_cast<int>(calls.size()));
  EXPECT_LT(result.game_evaluations, 300 * 7);

  const std::map<int, double> reference =
      UnmemoizedSampling(game, endo, config);
  ASSERT_EQ(result.values.size(), reference.size());
  for (const auto& [id, value] : reference)
    EXPECT_EQ(Bits(result.values.at(id)), Bits(value)) << "tuple " << id;
}

TEST(ResponsibilityTest, CounterfactualCauseHasFullResponsibility) {
  // Lineage t1 * t2: each tuple is a counterfactual cause.
  auto lineage = ProvExpr::Times(ProvExpr::Base(1), ProvExpr::Base(2));
  auto result = TupleResponsibility(lineage, {1, 2}).ValueOrDie();
  EXPECT_DOUBLE_EQ(result.responsibility[1], 1.0);
  EXPECT_DOUBLE_EQ(result.responsibility[2], 1.0);
  EXPECT_TRUE(result.contingency[1].empty());
}

TEST(ResponsibilityTest, DisjunctionNeedsContingency) {
  // Lineage t1 + t2: removing t1 alone keeps the answer (t2 covers it);
  // with contingency {t2}, removing t1 kills it: responsibility 1/2.
  auto lineage = ProvExpr::Plus(ProvExpr::Base(1), ProvExpr::Base(2));
  auto result = TupleResponsibility(lineage, {1, 2}).ValueOrDie();
  EXPECT_DOUBLE_EQ(result.responsibility[1], 0.5);
  EXPECT_DOUBLE_EQ(result.responsibility[2], 0.5);
  EXPECT_EQ(result.contingency[1], (std::vector<int>{2}));
}

TEST(ResponsibilityTest, AndOrMixedCase) {
  // t1*t2 + t3: t3 has responsibility 1/2 (contingency {t1} or {t2});
  // t1 needs contingency {t3}: responsibility 1/2... but removing t3 alone
  // doesn't kill the answer unless t1,t2 both present. Check consistency.
  auto result =
      TupleResponsibility(AndOrLineage(), {1, 2, 3}).ValueOrDie();
  EXPECT_DOUBLE_EQ(result.responsibility[3], 0.5);
  EXPECT_DOUBLE_EQ(result.responsibility[1], 0.5);
  EXPECT_DOUBLE_EQ(result.responsibility[2], 0.5);
}

TEST(ResponsibilityTest, IrrelevantTupleNotACause) {
  auto lineage = ProvExpr::Base(1);
  auto result = TupleResponsibility(lineage, {1, 2}).ValueOrDie();
  EXPECT_DOUBLE_EQ(result.responsibility[1], 1.0);
  EXPECT_DOUBLE_EQ(result.responsibility[2], 0.0);
}

TEST(ResponsibilityTest, AnswerDoesNotHold) {
  // Lineage over an absent tuple id set: treat as answer not derivable
  // when all endogenous removed... here lineage = t9 & endo = {1}: t9 is
  // exogenous so the answer always holds and t1 is irrelevant.
  auto lineage = ProvExpr::Base(9);
  auto result = TupleResponsibility(lineage, {1}).ValueOrDie();
  EXPECT_DOUBLE_EQ(result.responsibility[1], 0.0);
}

TEST(ResponsibilityTest, ResponsibilityDecreasesWithRedundancy) {
  // t1 + t2 + t3 (three redundant derivations): responsibility 1/3 each.
  auto lineage = ProvExpr::Plus(
      ProvExpr::Plus(ProvExpr::Base(1), ProvExpr::Base(2)),
      ProvExpr::Base(3));
  auto result = TupleResponsibility(lineage, {1, 2, 3}).ValueOrDie();
  EXPECT_DOUBLE_EQ(result.responsibility[1], 1.0 / 3);
}

}  // namespace
}  // namespace xai
