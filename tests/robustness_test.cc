// Failure-injection and scale robustness: malformed inputs must produce
// Status errors (never crashes), and data-dependent recursion must survive
// realistic scale.

#include <gtest/gtest.h>

#include <string>

#include "xai/core/rng.h"
#include "xai/data/csv.h"
#include "xai/relational/columnar.h"
#include "xai/relational/columnar_ops.h"
#include "xai/relational/provenance.h"
#include "xai/relational/relation.h"

namespace xai {
namespace {

TEST(CsvFuzzTest, RandomGarbageNeverCrashes) {
  Rng rng(1);
  const std::string alphabet = "abc,\"\n\r0123 .-\t;|";
  for (int trial = 0; trial < 300; ++trial) {
    int len = rng.UniformInt(0, 200);
    std::string text;
    for (int i = 0; i < len; ++i)
      text += alphabet[rng.UniformInt(static_cast<int>(alphabet.size()))];
    // Must either parse or fail cleanly — never crash.
    auto result = ReadCsvString(text);
    if (result.ok()) {
      EXPECT_GE(result->num_features(), 1);
    } else {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST(CsvFuzzTest, StructuredMutationsNeverCrash) {
  // Mutate a valid CSV by deleting/duplicating random characters.
  std::string base =
      "age,city,label\n30,nyc,1\n40,\"sf, ca\",0\n50,boston,1\n";
  Rng rng(2);
  for (int trial = 0; trial < 300; ++trial) {
    std::string text = base;
    int edits = rng.UniformInt(1, 6);
    for (int e = 0; e < edits && !text.empty(); ++e) {
      int pos = rng.UniformInt(static_cast<int>(text.size()));
      if (rng.Bernoulli(0.5)) {
        text.erase(pos, 1);
      } else {
        text.insert(pos, 1, text[pos]);
      }
    }
    auto result = ReadCsvString(text);  // Any Status is fine; no crash.
    (void)result;
  }
}

TEST(CsvTest, HugeFieldHandled) {
  std::string big(100000, 'x');
  std::string text = "a,b\n" + big + ",1\n";
  auto result = ReadCsvString(text);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema().features[0].categories[0].size(), big.size());
}

TEST(ProvenanceScaleTest, MillionTupleAggregateDoesNotOverflowStack) {
  // A group-by over 1M tuples sums 1M terms; PlusAll builds one n-ary
  // node of depth 1, so evaluation recursion cannot overflow the stack.
  std::vector<rel::ProvExprPtr> terms;
  const int kN = 1000000;
  terms.reserve(kN);
  for (int i = 0; i < kN; ++i) terms.push_back(rel::ProvExpr::Base(i));
  rel::ProvExprPtr sum = rel::ProvExpr::PlusAll(std::move(terms));
  // Counting semiring: 1M derivations.
  EXPECT_EQ(sum->EvalCount([](int) { return 1; }), kN);
  // Boolean: derivable iff any tuple present.
  EXPECT_TRUE(sum->EvalBool([](int id) { return id == 999999; }));
  EXPECT_FALSE(sum->EvalBool([](int) { return false; }));
}

TEST(ProvenanceScaleTest, GroupByOverLargeRelation) {
  rel::Relation r("big", {"k", "v"});
  const int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(r.AppendBase({rel::Value::Int(i % 3),
                              rel::Value::Double(1.0)},
                             i)
                    .ok());
  }
  auto agg = rel::GroupByAggregate(
                 rel::ColumnarRelation::FromRows(r).ValueOrDie(), {0},
                 rel::AggFn::kCount, -1, "cnt")
                 .ValueOrDie();
  ASSERT_EQ(agg.num_rows(), 3);
  // Evaluating the counting semiring over the ~67k-term annotation must
  // not overflow the stack.
  EXPECT_GT(agg.annotation(0)->EvalCount([](int) { return 1; }), 60000);
}

TEST(PlusAllTest, SmallCasesMatchPlus) {
  using rel::ProvExpr;
  EXPECT_EQ(ProvExpr::PlusAll({})->kind(), ProvExpr::Kind::kZero);
  auto single = ProvExpr::PlusAll({ProvExpr::Base(3)});
  EXPECT_EQ(single->base_id(), 3);
  auto pair = ProvExpr::PlusAll({ProvExpr::Base(1), ProvExpr::Base(2)});
  EXPECT_EQ(pair->EvalCount([](int) { return 1; }), 2);
}

// Random-expression property: ProbabilityExact with deterministic 0/1
// probabilities agrees with EvalBool under the corresponding world.
TEST(ProvenancePropertyTest, DegenerateProbabilityMatchesBool) {
  Rng rng(3);
  for (int trial = 0; trial < 60; ++trial) {
    // Random expression over 6 variables.
    std::function<rel::ProvExprPtr(int)> build = [&](int depth) {
      if (depth == 0 || rng.Bernoulli(0.35))
        return rel::ProvExpr::Base(rng.UniformInt(6));
      auto a = build(depth - 1);
      auto b = build(depth - 1);
      return rng.Bernoulli(0.5) ? rel::ProvExpr::Plus(a, b)
                                : rel::ProvExpr::Times(a, b);
    };
    rel::ProvExprPtr expr = build(4);
    // A random deterministic world.
    bool world[6];
    for (bool& w : world) w = rng.Bernoulli(0.5);
    double p = expr->ProbabilityExact(
        [&](int id) { return world[id] ? 1.0 : 0.0; });
    bool b = expr->EvalBool([&](int id) { return world[id]; });
    EXPECT_DOUBLE_EQ(p, b ? 1.0 : 0.0);
  }
}

// Random-expression property: Monte-Carlo probability converges to exact.
TEST(ProvenancePropertyTest, MonteCarloTracksExactOnRandomExpressions) {
  Rng rng(4);
  for (int trial = 0; trial < 8; ++trial) {
    std::function<rel::ProvExprPtr(int)> build = [&](int depth) {
      if (depth == 0 || rng.Bernoulli(0.3))
        return rel::ProvExpr::Base(rng.UniformInt(5));
      auto a = build(depth - 1);
      auto b = build(depth - 1);
      return rng.Bernoulli(0.5) ? rel::ProvExpr::Plus(a, b)
                                : rel::ProvExpr::Times(a, b);
    };
    rel::ProvExprPtr expr = build(3);
    auto prob = [](int id) { return 0.2 + 0.1 * id; };
    double exact = expr->ProbabilityExact(prob);
    double mc = expr->ProbabilityMonteCarlo(prob, 60000, 99 + trial);
    EXPECT_NEAR(mc, exact, 0.02);
  }
}

}  // namespace
}  // namespace xai
