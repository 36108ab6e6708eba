#include "xai/dbx/query_explanations.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "xai/relational/relation.h"

namespace xai {
namespace {

using rel::Relation;
using rel::Value;

// Sales(region, product, amount): the "west" region dominates the total.
Relation SalesRelation() {
  Relation r("sales", {"region", "product", "amount"});
  struct Row {
    const char* region;
    const char* product;
    int64_t amount;
  };
  Row rows[] = {
      {"west", "widget", 100}, {"west", "widget", 120},
      {"west", "gadget", 80},  {"east", "widget", 10},
      {"east", "gadget", 15},  {"north", "widget", 5},
  };
  for (int i = 0; i < 6; ++i)
    EXPECT_TRUE(r.AppendBase({Value::Str(rows[i].region),
                              Value::Str(rows[i].product),
                              Value::Int(rows[i].amount)},
                             i)
                    .ok());
  return r;
}

double TotalAmount(const Relation& r) {
  double acc = 0;
  for (int i = 0; i < r.num_tuples(); ++i)
    acc += r.tuple(i)[2].AsDouble();
  return acc;
}

TEST(QueryExplanationTest, TopExplanationIsTheDominantRegion) {
  Relation sales = SalesRelation();
  auto explanations =
      ExplainAggregateAnswer(sales, TotalAmount, {0, 1}).ValueOrDie();
  ASSERT_FALSE(explanations.empty());
  const auto& top = explanations[0];
  ASSERT_EQ(top.predicate.size(), 1u);
  EXPECT_EQ(top.predicate[0].first, 0);
  EXPECT_EQ(top.predicate[0].second.AsString(), "west");
  EXPECT_DOUBLE_EQ(top.original, 330);
  EXPECT_DOUBLE_EQ(top.after_intervention, 30);
  EXPECT_DOUBLE_EQ(top.effect, 300);
  EXPECT_EQ(top.support, 3);
}

TEST(QueryExplanationTest, SortedByAbsoluteEffect) {
  Relation sales = SalesRelation();
  auto explanations =
      ExplainAggregateAnswer(sales, TotalAmount, {0, 1}).ValueOrDie();
  for (size_t i = 1; i < explanations.size(); ++i)
    EXPECT_GE(std::fabs(explanations[i - 1].effect),
              std::fabs(explanations[i].effect));
}

TEST(QueryExplanationTest, PairsFindConjunctions) {
  Relation sales = SalesRelation();
  QueryExplanationConfig config;
  config.include_pairs = true;
  config.top_k = 0;
  auto explanations =
      ExplainAggregateAnswer(sales, TotalAmount, {0, 1}, config)
          .ValueOrDie();
  bool found = false;
  for (const auto& exp : explanations) {
    if (exp.predicate.size() == 2 &&
        exp.predicate[0].second.AsString() == "west" &&
        exp.predicate[1].second.AsString() == "widget") {
      EXPECT_DOUBLE_EQ(exp.effect, 220);
      EXPECT_EQ(exp.support, 2);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(QueryExplanationTest, MinSupportFilters) {
  Relation sales = SalesRelation();
  QueryExplanationConfig config;
  config.min_support = 2;
  auto explanations =
      ExplainAggregateAnswer(sales, TotalAmount, {0}, config).ValueOrDie();
  for (const auto& exp : explanations) EXPECT_GE(exp.support, 2);
  // "north" matches only one tuple: filtered out.
  for (const auto& exp : explanations)
    EXPECT_NE(exp.predicate[0].second.AsString(), "north");
}

TEST(QueryExplanationTest, WorksForNonMonotoneQueries) {
  // Query = MAX(amount): removing the west tuples drops the max to 15.
  Relation sales = SalesRelation();
  auto max_amount = [](const Relation& r) {
    double best = 0;
    for (int i = 0; i < r.num_tuples(); ++i)
      best = std::max(best, r.tuple(i)[2].AsDouble());
    return best;
  };
  auto explanations =
      ExplainAggregateAnswer(sales, max_amount, {0}).ValueOrDie();
  ASSERT_FALSE(explanations.empty());
  EXPECT_EQ(explanations[0].predicate[0].second.AsString(), "west");
  EXPECT_DOUBLE_EQ(explanations[0].effect, 120 - 15);
}

TEST(QueryExplanationTest, TopKLimitsOutput) {
  Relation sales = SalesRelation();
  QueryExplanationConfig config;
  config.top_k = 2;
  auto explanations =
      ExplainAggregateAnswer(sales, TotalAmount, {0, 1}, config)
          .ValueOrDie();
  EXPECT_EQ(explanations.size(), 2u);
}

TEST(QueryExplanationTest, ToStringReadable) {
  Relation sales = SalesRelation();
  auto explanations =
      ExplainAggregateAnswer(sales, TotalAmount, {0}).ValueOrDie();
  std::string text = explanations[0].ToString(sales);
  EXPECT_NE(text.find("region = west"), std::string::npos);
  EXPECT_NE(text.find("effect"), std::string::npos);
}

TEST(QueryExplanationTest, CandidatesAreDistinctUnderTheKeyRule) {
  // 1.0000001 and 1.0000002 both print "1", and NULL prints like the
  // string 'NULL', yet each is a candidate of its own that removes
  // exactly the tuples holding it.
  Relation t("t", {"x", "tag", "amount"});
  const struct {
    Value x, tag;
    int64_t amount;
  } rows[] = {
      {Value::Double(1.0000001), Value::Str("NULL"), 1},
      {Value::Double(1.0000002), Value::Null(), 2},
      {Value::Double(1.0000001), Value::Str("b"), 4},
      {Value::Double(2.0), Value::Str("b"), 8},
  };
  int id = 0;
  for (const auto& row : rows) {
    ASSERT_TRUE(
        t.AppendBase({row.x, row.tag, Value::Int(row.amount)}, id++).ok());
  }
  QueryExplanationConfig config;
  config.top_k = 0;
  const auto explanations =
      ExplainAggregateAnswer(t, TotalAmount, {0, 1}, config).ValueOrDie();
  // (column, value, support, effect) of every single-column predicate.
  struct Want {
    int column;
    Value value;
    int support;
    double effect;
  };
  const std::vector<Want> want = {
      {1, Value::Str("b"), 2, 12},          {0, Value::Double(2.0), 1, 8},
      {0, Value::Double(1.0000001), 2, 5}, {0, Value::Double(1.0000002), 1, 2},
      {1, Value::Null(), 1, 2},            {1, Value::Str("NULL"), 1, 1},
  };
  ASSERT_EQ(explanations.size(), want.size());
  for (const Want& w : want) {
    SCOPED_TRACE(w.value.ToString());
    int found = 0;
    for (const auto& exp : explanations) {
      ASSERT_EQ(exp.predicate.size(), 1u);
      const auto& [column, value] = exp.predicate[0];
      if (column != w.column || value.type() != w.value.type() ||
          value != w.value)
        continue;
      ++found;
      EXPECT_EQ(exp.support, w.support);
      EXPECT_DOUBLE_EQ(exp.effect, w.effect);
    }
    EXPECT_EQ(found, 1);
  }
}

TEST(QueryExplanationTest, RejectsBadInput) {
  Relation sales = SalesRelation();
  Relation empty("empty", {"a"});
  EXPECT_FALSE(ExplainAggregateAnswer(empty, TotalAmount, {0}).ok());
  EXPECT_FALSE(ExplainAggregateAnswer(sales, TotalAmount, {}).ok());
  EXPECT_FALSE(ExplainAggregateAnswer(sales, TotalAmount, {9}).ok());
}

}  // namespace
}  // namespace xai
