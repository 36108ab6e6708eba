#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <latch>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "support/relational_reference.h"
#include "xai/core/combinatorics.h"
#include "xai/core/parallel.h"
#include "xai/core/rng.h"
#include "xai/core/telemetry.h"
#include "xai/dbx/responsibility.h"
#include "xai/dbx/shared_scan.h"
#include "xai/dbx/tuple_shapley.h"
#include "xai/relational/agg_kernels.h"
#include "xai/relational/columnar.h"
#include "xai/relational/columnar_ops.h"

namespace xai::rel {
namespace {

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Exact equality: same names, same value *types and bits* per cell, same
// provenance structure. Stricter than Value::operator== (which merges
// INT 2 with DOUBLE 2.0 and never distinguishes double bit patterns).
void ExpectSameRelation(const Relation& a, const Relation& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.columns(), b.columns());
  ASSERT_EQ(a.num_tuples(), b.num_tuples());
  for (int i = 0; i < a.num_tuples(); ++i) {
    for (int c = 0; c < a.num_columns(); ++c) {
      const Value& va = a.tuple(i)[c];
      const Value& vb = b.tuple(i)[c];
      ASSERT_EQ(static_cast<int>(va.type()), static_cast<int>(vb.type()))
          << "row " << i << " col " << c;
      switch (va.type()) {
        case Value::Type::kNull:
          break;
        case Value::Type::kInt:
          ASSERT_EQ(va.AsInt(), vb.AsInt()) << "row " << i << " col " << c;
          break;
        case Value::Type::kDouble:
          ASSERT_EQ(Bits(va.AsDouble()), Bits(vb.AsDouble()))
              << "row " << i << " col " << c;
          break;
        case Value::Type::kString:
          ASSERT_EQ(va.AsString(), vb.AsString())
              << "row " << i << " col " << c;
          break;
      }
    }
    ASSERT_EQ(a.annotation(i)->ToString(), b.annotation(i)->ToString())
        << "row " << i;
  }
}

// Mixed-type relation with NULLs in every column and plenty of duplicate
// keys: k (int64, ~10% NULL), v (double, ~10% NULL), cat (string,
// ~10% NULL), d (double, never NULL — exercises the branch-free kernels).
Relation RandomRelation(int n, uint64_t seed, const std::string& name = "t",
                        int first_id = 0) {
  Relation r(name, {"k", "v", "cat", "d"});
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    Tuple t;
    t.push_back(rng.Uniform() < 0.1 ? Value::Null()
                                    : Value::Int(rng.UniformInt(8)));
    t.push_back(rng.Uniform() < 0.1 ? Value::Null()
                                    : Value::Double(rng.Uniform(-2.0, 2.0)));
    t.push_back(rng.Uniform() < 0.1
                    ? Value::Null()
                    : Value::Str("c" + std::to_string(rng.UniformInt(3))));
    t.push_back(Value::Double(rng.Uniform(-1.0, 1.0)));
    EXPECT_TRUE(r.AppendBase(std::move(t), first_id + i).ok());
  }
  return r;
}

ColumnarRelation Columnar(const Relation& rows) {
  auto result = ColumnarRelation::FromRows(rows);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

TEST(ColumnarRelationTest, RoundTripIsExact) {
  Relation rows = RandomRelation(500, 11);
  ExpectSameRelation(Columnar(rows).ToRows(), rows);
}

TEST(ColumnarRelationTest, RoundTripPreservesIntOriginInDoubleColumn) {
  Relation r("m", {"x"});
  ASSERT_TRUE(r.AppendBase({Value::Int(2)}, 0).ok());
  ASSERT_TRUE(r.AppendBase({Value::Double(2.5)}, 1).ok());
  ASSERT_TRUE(r.AppendBase({Value::Null()}, 2).ok());
  Relation back = Columnar(r).ToRows();
  EXPECT_EQ(back.tuple(0)[0].type(), Value::Type::kInt);
  EXPECT_EQ(back.tuple(1)[0].type(), Value::Type::kDouble);
  EXPECT_TRUE(back.tuple(2)[0].is_null());
}

TEST(ColumnarRelationTest, AppendAfterShareLeavesSharersIntact) {
  // The side array is shared by copies and pinned by operator outputs;
  // appending to one relation must not show up in any of them.
  ColumnarRelation r = Columnar(RandomRelation(20, 19));
  ColumnarRelation copy = r;
  const ExprPtr pred =
      Expr::Gt(Expr::Column(3), Expr::Const(Value::Double(-2.0)));
  auto selected = Select(r, pred).ValueOrDie();
  ASSERT_EQ(selected.num_rows(), 20);
  const ProvExprPtr first = r.annotation(0);
  ASSERT_TRUE(r.AppendBaseRow({Value::Int(1), Value::Double(0.5),
                               Value::Str("c1"), Value::Double(0.25)},
                              99)
                  .ok());
  ASSERT_TRUE(copy.AppendRow({Value::Null(), Value::Null(), Value::Null(),
                              Value::Double(0.0)},
                             ProvExpr::One())
                  .ok());
  EXPECT_EQ(r.num_rows(), 21);
  EXPECT_EQ(copy.num_rows(), 21);
  EXPECT_EQ(r.annotation(20)->ToString(), "t99");
  EXPECT_EQ(copy.annotation(20)->ToString(), "1");
  EXPECT_EQ(r.annotation_node(0), first.get());
  EXPECT_EQ(copy.annotation_node(0), first.get());
  ExpectSameRelation(
      selected.ToRows(),
      reference::Select(RandomRelation(20, 19), pred).ValueOrDie());
}

TEST(ColumnarRelationTest, RejectsStringNumberMix) {
  Relation r("m", {"x"});
  ASSERT_TRUE(r.AppendBase({Value::Int(1)}, 0).ok());
  ASSERT_TRUE(r.AppendBase({Value::Str("one")}, 1).ok());
  EXPECT_FALSE(ColumnarRelation::FromRows(r).ok());
}

// Runs `op` on the row reference and, at 1, 4 and 8 threads, on the
// columnar engine, and requires every columnar result to be exactly the
// reference result (hence bit-identical across thread counts).
template <typename RowOp, typename ColOp>
void ExpectEngineAgreement(const Relation& rows, const RowOp& row_op,
                           const ColOp& col_op) {
  auto row_result = row_op(rows);
  ASSERT_TRUE(row_result.ok()) << row_result.status().ToString();
  ColumnarRelation cols = Columnar(rows);
  const int saved = GetNumThreads();
  for (int threads : {1, 4, 8}) {
    SetNumThreads(threads);
    auto col_result = col_op(cols);
    ASSERT_TRUE(col_result.ok()) << col_result.status().ToString();
    ExpectSameRelation(col_result.ValueOrDie().ToRows(),
                       row_result.ValueOrDie());
  }
  SetNumThreads(saved);
}

TEST(ColumnarOpsTest, SelectNumericPredicateMatchesRowEngine) {
  Relation rows = RandomRelation(5000, 23);
  // d > 0.25 AND NOT k == 3 — branch-free double kernel plus a nullable
  // int64 column (NULL == 3 is false, so NOT yields true: NULLs pass).
  ExprPtr pred = Expr::And(
      Expr::Gt(Expr::Column(3), Expr::Const(Value::Double(0.25))),
      Expr::Not(Expr::Eq(Expr::Column(0), Expr::Const(Value::Int(3)))));
  ExpectEngineAgreement(
      rows, [&](const Relation& r) { return reference::Select(r, pred); },
      [&](const ColumnarRelation& c) { return Select(c, pred); });
}

TEST(ColumnarOpsTest, SelectStringAndArithmeticPredicateMatchesRowEngine) {
  Relation rows = RandomRelation(3000, 29);
  // cat == "c1" OR (v + d) * 2 >= 1.5 — string equality against a
  // dictionary column plus arithmetic over a NULL-able double column
  // (NULL coerces to 0.0 inside arithmetic, like Value::AsDouble).
  ExprPtr pred = Expr::Or(
      Expr::Eq(Expr::Column(2), Expr::Const(Value::Str("c1"))),
      Expr::Ge(Expr::Mul(Expr::Add(Expr::Column(1), Expr::Column(3)),
                         Expr::Const(Value::Double(2.0))),
               Expr::Const(Value::Double(1.5))));
  ExpectEngineAgreement(
      rows, [&](const Relation& r) { return reference::Select(r, pred); },
      [&](const ColumnarRelation& c) { return Select(c, pred); });
}

TEST(ColumnarOpsTest, SelectNullComparisonSemanticsMatchRowEngine) {
  Relation rows = RandomRelation(2000, 31);
  // NULL < non-NULL and numeric-sorts-before-string edges: k < v, and
  // cat > "c1" (NULL cat is less than any string).
  for (ExprPtr pred :
       {Expr::Lt(Expr::Column(0), Expr::Column(1)),
        Expr::Gt(Expr::Column(2), Expr::Const(Value::Str("c1"))),
        Expr::Le(Expr::Column(1), Expr::Column(0)),
        Expr::Ne(Expr::Column(0), Expr::Column(0))}) {
    ExpectEngineAgreement(
        rows, [&](const Relation& r) { return reference::Select(r, pred); },
        [&](const ColumnarRelation& c) { return Select(c, pred); });
  }
}

TEST(ColumnarOpsTest, ProjectBagAndDistinctMatchRowEngine) {
  Relation rows = RandomRelation(2000, 37);
  for (bool distinct : {false, true}) {
    ExpectEngineAgreement(
        rows,
        [&](const Relation& r) {
          return reference::Project(r, {2, 0}, distinct);
        },
        [&](const ColumnarRelation& c) {
          return Project(c, {2, 0}, distinct);
        });
  }
}

TEST(ColumnarOpsTest, EquiJoinIntKeysMatchesRowEngine) {
  Relation a = RandomRelation(800, 41, "a");
  Relation b = RandomRelation(600, 43, "b");
  ExpectEngineAgreement(
      a, [&](const Relation& r) { return reference::EquiJoin(r, b, 0, 0); },
      [&](const ColumnarRelation& c) {
        return EquiJoin(c, Columnar(b), 0, 0);
      });
}

TEST(ColumnarOpsTest, EquiJoinStringKeysMatchesRowEngine) {
  Relation a = RandomRelation(500, 47, "a");
  Relation b = RandomRelation(400, 53, "b");
  ExpectEngineAgreement(
      a, [&](const Relation& r) { return reference::EquiJoin(r, b, 2, 2); },
      [&](const ColumnarRelation& c) {
        return EquiJoin(c, Columnar(b), 2, 2);
      });
}

TEST(ColumnarOpsTest, EquiJoinMixedIntDoubleKeysMatchesRowEngine) {
  // Int keys on one side, int-valued doubles on the other: under the key
  // rule an INT and a DOUBLE compare as doubles, so INT 1000000 joins
  // DOUBLE 1e6, and both engines must pair exactly the same rows.
  Relation a("a", {"k"});
  Relation b("b", {"k"});
  int id = 0;
  for (int64_t k : {1, 2, 1000000, 3}) {
    ASSERT_TRUE(a.AppendBase({Value::Int(k)}, id++).ok());
  }
  for (double k : {1.0, 1e6, 2.0, 2.0}) {
    ASSERT_TRUE(b.AppendBase({Value::Double(k)}, id++).ok());
  }
  ExpectEngineAgreement(
      a, [&](const Relation& r) { return reference::EquiJoin(r, b, 0, 0); },
      [&](const ColumnarRelation& c) {
        return EquiJoin(c, Columnar(b), 0, 0);
      });
}

TEST(ColumnarOpsTest, UnionMatchesRowEngine) {
  Relation a = RandomRelation(700, 59, "a");
  Relation b = RandomRelation(300, 61, "b");
  ExpectEngineAgreement(
      a, [&](const Relation& r) { return reference::Union(r, b); },
      [&](const ColumnarRelation& c) { return Union(c, Columnar(b)); });
}

TEST(ColumnarOpsTest, GroupByAllFunctionsMatchRowEngine) {
  Relation rows = RandomRelation(4000, 67);
  for (AggFn fn : {AggFn::kCount, AggFn::kSum, AggFn::kAvg, AggFn::kMin,
                   AggFn::kMax}) {
    for (const std::vector<int>& group : {std::vector<int>{0},
                                          std::vector<int>{2, 0},
                                          std::vector<int>{}}) {
      ExpectEngineAgreement(
          rows,
          [&](const Relation& r) {
            return reference::GroupByAggregate(r, group, fn, 1, "agg");
          },
          [&](const ColumnarRelation& c) {
            return GroupByAggregate(c, group, fn, 1, "agg");
          });
    }
  }
}

TEST(ColumnarOpsTest, GroupByDoubleKeysMergeOnRenderings) {
  // Int 2 and Double 2.0 land in one kDouble column and must merge into
  // one group: the key rule compares them as doubles, in both engines.
  Relation r("m", {"g", "v"});
  ASSERT_TRUE(r.AppendBase({Value::Int(2), Value::Double(1.5)}, 0).ok());
  ASSERT_TRUE(r.AppendBase({Value::Double(2.0), Value::Double(2.5)}, 1).ok());
  ASSERT_TRUE(r.AppendBase({Value::Null(), Value::Double(4.0)}, 2).ok());
  ExpectEngineAgreement(
      r,
      [&](const Relation& rows) {
        return reference::GroupByAggregate(rows, {0}, AggFn::kSum, 1, "s");
      },
      [&](const ColumnarRelation& c) {
        return GroupByAggregate(c, {0}, AggFn::kSum, 1, "s");
      });
}

TEST(ColumnarOpsTest, ComposedPipelineMatchesRowEngine) {
  // join -> select -> distinct project, provenance polynomials included.
  Relation a = RandomRelation(400, 71, "a");
  Relation b = RandomRelation(300, 73, "b");
  auto row_final = [&]() {
    auto j = reference::EquiJoin(a, b, 0, 0).ValueOrDie();
    auto s = reference::Select(j, Expr::Gt(Expr::Column(3),
                                           Expr::Const(Value::Double(0.0))))
                 .ValueOrDie();
    return reference::Project(s, {2, 4}, /*distinct=*/true).ValueOrDie();
  }();
  ColumnarRelation ca = Columnar(a), cb = Columnar(b);
  for (int threads : {1, 4, 8}) {
    SetNumThreads(threads);
    auto j = EquiJoin(ca, cb, 0, 0).ValueOrDie();
    auto s =
        Select(j, Expr::Gt(Expr::Column(3), Expr::Const(Value::Double(0.0))))
            .ValueOrDie();
    auto p = Project(s, {2, 4}, /*distinct=*/true).ValueOrDie();
    ExpectSameRelation(p.ToRows(), row_final);
  }
  SetNumThreads(1);
}

TEST(CompiledLineageTest, MatchesEvalBoolOnAllMasks) {
  // t2*t5 + t7*(t2 + t11) + t99, endogenous {2, 5, 7, 11}; t99 is
  // exogenous so the whole lineage folds to constant-true... except it
  // participates in a Plus, which is exactly the point: the partial
  // evaluator must fold it to TRUE and short-circuit the OR.
  auto lineage = ProvExpr::Plus(
      ProvExpr::Plus(
          ProvExpr::Times(ProvExpr::Base(2), ProvExpr::Base(5)),
          ProvExpr::Times(ProvExpr::Base(7),
                          ProvExpr::Plus(ProvExpr::Base(2),
                                         ProvExpr::Base(11)))),
      ProvExpr::Base(99));
  std::vector<int> endo = {2, 5, 7, 11};
  CompiledLineage compiled = CompiledLineage::Compile(lineage, endo);
  bool cval = false;
  EXPECT_TRUE(compiled.IsConst(&cval));
  EXPECT_TRUE(cval);

  // Without the exogenous escape hatch the program is nontrivial; check
  // every coalition against the interpreted evaluation.
  auto hard = ProvExpr::Plus(
      ProvExpr::Times(ProvExpr::Base(2), ProvExpr::Base(5)),
      ProvExpr::Times(ProvExpr::Base(7),
                      ProvExpr::Plus(ProvExpr::Base(2), ProvExpr::Base(11))));
  CompiledLineage hard_compiled = CompiledLineage::Compile(hard, endo);
  CompiledLineage::Scratch scratch;
  std::set<int> endo_set(endo.begin(), endo.end());
  for (uint64_t mask = 0; mask < 16; ++mask) {
    bool expected = hard->EvalBool([&](int id) {
      if (!endo_set.count(id)) return true;
      for (size_t i = 0; i < endo.size(); ++i)
        if (endo[i] == id) return ((mask >> i) & 1) != 0;
      return false;
    });
    EXPECT_EQ(hard_compiled.Eval(mask, &scratch), expected) << mask;
  }
}

TEST(CompiledLineageTest, Eval64LanesMatchScalarEval) {
  // Eight endogenous variables so the block evaluator exercises both lane
  // kinds: fixed patterns for mask bits 0-5 and per-block broadcasts for
  // bits 6-7. Lineage mixes AND/OR depth with a shared subterm.
  std::vector<int> endo = {10, 11, 12, 13, 14, 15, 16, 17};
  auto shared = ProvExpr::Plus(ProvExpr::Base(12), ProvExpr::Base(16));
  std::vector<rel::ProvExprPtr> terms;
  terms.push_back(ProvExpr::Times(ProvExpr::Base(10), ProvExpr::Base(11)));
  terms.push_back(ProvExpr::Times(ProvExpr::Base(13), shared));
  terms.push_back(ProvExpr::Times(
      ProvExpr::Base(17), ProvExpr::Times(ProvExpr::Base(14), shared)));
  terms.push_back(ProvExpr::Times(ProvExpr::Base(15), ProvExpr::Base(200)));
  auto lineage = ProvExpr::PlusAll(std::move(terms));
  CompiledLineage compiled = CompiledLineage::Compile(lineage, endo);
  CompiledLineage::Scratch scratch;
  for (uint64_t base = 0; base < 256; base += 64) {
    const uint64_t lanes = compiled.Eval64(base, &scratch);
    for (uint64_t j = 0; j < 64; ++j) {
      EXPECT_EQ((lanes >> j) & 1,
                compiled.Eval(base + j, &scratch) ? 1u : 0u)
          << "mask " << base + j;
    }
  }

  // Degenerate programs: constants broadcast, single vars follow the bit.
  CompiledLineage zero = CompiledLineage::Compile(ProvExpr::Zero(), endo);
  CompiledLineage one = CompiledLineage::Compile(ProvExpr::Base(99), endo);
  EXPECT_EQ(zero.Eval64(0, &scratch), 0u);
  EXPECT_EQ(one.Eval64(0, &scratch), ~uint64_t{0});
  CompiledLineage var =
      CompiledLineage::Compile(ProvExpr::Base(12), endo);  // bit 2
  EXPECT_EQ(var.Eval64(0, &scratch), 0xF0F0F0F0F0F0F0F0ULL);
  CompiledLineage hi =
      CompiledLineage::Compile(ProvExpr::Base(17), endo);  // bit 7
  EXPECT_EQ(hi.Eval64(0, &scratch), 0u);
  EXPECT_EQ(hi.Eval64(1ULL << 7, &scratch), ~uint64_t{0});
}

TEST(CompiledLineageTest, SingleVarAndConstantClassification) {
  std::vector<int> endo = {4, 6};
  uint64_t bits = 0;
  bool cval = true;
  CompiledLineage var = CompiledLineage::Compile(
      ProvExpr::Times(ProvExpr::Base(4), ProvExpr::Base(80)), endo);
  EXPECT_TRUE(var.IsConjunction(&bits));
  EXPECT_EQ(bits, uint64_t{1} << 0);
  CompiledLineage both = CompiledLineage::Compile(
      ProvExpr::Times(ProvExpr::Base(6),
                      ProvExpr::Times(ProvExpr::Base(80), ProvExpr::Base(4))),
      endo);
  EXPECT_TRUE(both.IsConjunction(&bits));
  EXPECT_EQ(bits, uint64_t{3});
  CompiledLineage either = CompiledLineage::Compile(
      ProvExpr::Plus(ProvExpr::Base(4), ProvExpr::Base(6)), endo);
  EXPECT_FALSE(either.IsConjunction(&bits));
  CompiledLineage zero = CompiledLineage::Compile(ProvExpr::Zero(), endo);
  EXPECT_TRUE(zero.IsConst(&cval));
  EXPECT_FALSE(cval);
}

TEST(SharedScanAggregateTest, MatchesRebuildPerCoalitionBitwise) {
  // Four endogenous rows with non-trivially-summing double salaries: the
  // shared-scan value must equal re-running select+aggregate on each
  // sub-instance, bit for bit.
  Relation emp("emp", {"name", "salary"});
  const double salaries[] = {80.33, 120.1, 95.7, 100.25};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(emp.AppendBase({Value::Str("e" + std::to_string(i)),
                                Value::Double(salaries[i])},
                               i)
                    .ok());
  }
  ExprPtr pred =
      Expr::Gt(Expr::Column(1), Expr::Const(Value::Double(85.0)));
  std::vector<int> endo = {0, 1, 2, 3};
  auto all_rows = reference::Select(emp, pred).ValueOrDie();

  for (AggFn fn : {AggFn::kCount, AggFn::kSum, AggFn::kAvg, AggFn::kMin,
                   AggFn::kMax}) {
    auto shared = SharedScanAggregate::Build(all_rows, fn, 1, endo);
    ASSERT_TRUE(shared.ok());
    for (uint64_t mask = 0; mask < 16; ++mask) {
      Relation sub("emp", emp.columns());
      for (int i = 0; i < emp.num_tuples(); ++i) {
        if ((mask >> i) & 1) {
          ASSERT_TRUE(sub.Append(emp.tuple(i), emp.annotation(i)).ok());
        }
      }
      auto rows = reference::Select(sub, pred).ValueOrDie();
      auto agg =
          reference::GroupByAggregate(rows, {}, fn, 1, "a").ValueOrDie();
      double naive =
          agg.num_tuples() ? agg.tuple(0)[0].AsDouble() : 0.0;
      EXPECT_EQ(Bits(shared->Eval(mask)), Bits(naive))
          << "fn " << static_cast<int>(fn) << " mask " << mask;
    }
  }
}

TEST(SharedScanAggregateTest, DrivesNumericShapleyViaAdapter) {
  Relation emp("emp", {"name", "salary"});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(emp.AppendBase({Value::Str("e" + std::to_string(i)),
                                Value::Double(90.0 + 7.3 * i)},
                               i)
                    .ok());
  }
  ExprPtr pred =
      Expr::Gt(Expr::Column(1), Expr::Const(Value::Double(95.0)));
  std::vector<int> endo = {0, 1, 2, 3, 4};
  auto rows = reference::Select(emp, pred).ValueOrDie();
  auto shared =
      SharedScanAggregate::Build(rows, AggFn::kSum, 1, endo).ValueOrDie();

  auto naive_value = [&](const std::vector<int>& present) {
    std::set<int> p(present.begin(), present.end());
    Relation sub("emp", emp.columns());
    for (int i = 0; i < emp.num_tuples(); ++i) {
      if (p.count(i)) {
        EXPECT_TRUE(sub.Append(emp.tuple(i), emp.annotation(i)).ok());
      }
    }
    auto selected = reference::Select(sub, pred).ValueOrDie();
    auto agg = reference::GroupByAggregate(selected, {}, AggFn::kSum, 1, "a")
                   .ValueOrDie();
    return agg.num_tuples() ? agg.tuple(0)[0].AsDouble() : 0.0;
  };

  auto fast =
      NumericQueryTupleShapley(shared.AsQueryValue(), endo).ValueOrDie();
  auto slow = NumericQueryTupleShapley(naive_value, endo).ValueOrDie();
  EXPECT_EQ(fast.exact, slow.exact);
  EXPECT_EQ(fast.game_evaluations, slow.game_evaluations);
  ASSERT_EQ(fast.values.size(), slow.values.size());
  for (const auto& [id, value] : fast.values)
    EXPECT_EQ(Bits(value), Bits(slow.values.at(id))) << "tuple " << id;
}

TEST(SharedScanAggregateTest, AdapterMapsIdsInAnyOrder) {
  // Player 7 repeats (its bit is its first position, 1); id 99 is not a
  // player and is ignored.
  Relation rows("r", {"v"});
  const std::vector<int> endo = {4, 7, 2, 7, 5};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(rows.Append({Value::Double(1.5 + i)},
                            ProvExpr::Times(ProvExpr::Base(endo[i]),
                                            ProvExpr::Base(100 + i)))
                    .ok());
  }
  auto scan =
      SharedScanAggregate::Build(rows, AggFn::kSum, 0, endo).ValueOrDie();
  auto value = scan.AsQueryValue();
  const std::vector<std::pair<std::vector<int>, uint64_t>> cases = {
      {{}, 0},
      {{4, 7, 2, 5}, 0b10111},
      {{5, 2, 7, 4}, 0b10111},
      {{7, 99, 4}, 0b00011},
      {{2, 2, 5, 7}, 0b10110},
      {{99}, 0}};
  for (const auto& [present, mask] : cases) {
    EXPECT_EQ(Bits(value(present)), Bits(scan.Eval(mask)))
        << "mask " << mask;
  }
}

TEST(SharedScanAggregateTest, LongAndSharedProductsMatchTheirLineage) {
  // Products on both sides of the walk's 64-node bound (a product of k
  // tuples has 2k - 1 nodes) and a product DAG whose tree has 2^30 leaves
  // all keep their need words, walked or compiled; none keeps a program.
  const std::vector<int> endo = {0, 1, 2, 3};
  std::vector<ProvExprPtr> lineages;
  for (int len : {1, 2, 31, 32, 33, 80}) {
    ProvExprPtr product = ProvExpr::Base(100);
    for (int k = 0; k < len; ++k) {
      const int id = k % 5 == 4 ? 100 + k : k % 4;
      product = ProvExpr::Times(std::move(product), ProvExpr::Base(id));
    }
    lineages.push_back(product);
  }
  ProvExprPtr doubled = ProvExpr::Times(ProvExpr::Base(2), ProvExpr::Base(7));
  for (int level = 0; level < 30; ++level)
    doubled = ProvExpr::Times(doubled, doubled);
  lineages.push_back(doubled);
  lineages.push_back(ProvExpr::Times(doubled, ProvExpr::Zero()));

  Relation rows("r", {"v"});
  for (size_t i = 0; i < lineages.size(); ++i)
    ASSERT_TRUE(rows.Append({Value::Double(0.75 * i)}, lineages[i]).ok());
  telemetry::Counter* program_rows = telemetry::Registry::Global().GetCounter(
      "dbx/shared_scan_program_rows");
  const int64_t programs_before = program_rows->Get();
  auto scan =
      SharedScanAggregate::Build(rows, AggFn::kCount, 0, endo).ValueOrDie();
  EXPECT_EQ(program_rows->Get(), programs_before);
  CompiledLineage::Scratch scratch;
  for (uint64_t mask = 0; mask < 16; ++mask) {
    double want = 0.0;
    for (const ProvExprPtr& lineage : lineages)
      want += CompiledLineage::Compile(lineage, endo).Eval(mask, &scratch);
    EXPECT_EQ(scan.Eval(mask), want) << "mask " << mask;
  }
}

TEST(SharedScanAggregateTest, RejectsMoreThan63Players) {
  // Bit 63 marks underivable rows and coalitions are 64-bit masks, so a
  // 64th player has no bit of its own.
  Relation rows("r", {"v"});
  ASSERT_TRUE(rows.AppendBase({Value::Double(1.0)}, 0).ok());
  std::vector<int> endo(64);
  for (int i = 0; i < 64; ++i) endo[i] = i;
  EXPECT_FALSE(SharedScanAggregate::Build(rows, AggFn::kSum, 0, endo).ok());
  endo.pop_back();
  EXPECT_TRUE(SharedScanAggregate::Build(rows, AggFn::kSum, 0, endo).ok());
}

TEST(SharedScanDecisionRecordTest, CountsRowClassesAndMemoHits) {
  // Under XAI_TELEMETRY=0 the counters compile away and stay put.
  constexpr bool kCompiled = XAI_TELEMETRY != 0;
  telemetry::Registry& registry = telemetry::Registry::Global();
  telemetry::Counter* rows_seen = registry.GetCounter("dbx/shared_scan_rows");
  telemetry::Counter* program_rows =
      registry.GetCounter("dbx/shared_scan_program_rows");
  telemetry::Counter* memo_hits =
      registry.GetCounter("dbx/coalition_memo_hits");
  telemetry::Counter* collapsed =
      registry.GetCounter("dbx/shared_scan_collapsed");

  // One row of each class: one variable, a conjunction with an exogenous
  // factor, always (exogenous), never (Zero), and one OR program.
  Relation r("r", {"v"});
  const std::vector<ProvExprPtr> lineages = {
      ProvExpr::Base(0),
      ProvExpr::Times(ProvExpr::Base(1),
                      ProvExpr::Times(ProvExpr::Base(2), ProvExpr::Base(9))),
      ProvExpr::Base(9), ProvExpr::Zero(),
      ProvExpr::Plus(ProvExpr::Base(1), ProvExpr::Base(3))};
  for (size_t i = 0; i < lineages.size(); ++i)
    ASSERT_TRUE(r.Append({Value::Double(1.25 * i)}, lineages[i]).ok());
  const std::vector<int> endo = {0, 1, 2, 3};

  const int64_t rows_before = rows_seen->Get();
  const int64_t programs_before = program_rows->Get();
  const int64_t hits_before = memo_hits->Get();
  const int64_t collapsed_before = collapsed->Get();
  auto scan = SharedScanAggregate::Build(r, AggFn::kSum, 0, endo).ValueOrDie();
  EXPECT_EQ(rows_seen->Get() - rows_before, kCompiled ? 5 : 0);
  EXPECT_EQ(program_rows->Get() - programs_before, kCompiled ? 1 : 0);

  TupleShapleyConfig config;
  config.exact_limit = 0;
  config.permutations = 40;
  auto result =
      NumericQueryTupleShapley(scan.AsQueryValue(), endo, config).ValueOrDie();
  // Every permutation visits 5 coalitions; each revisit is a hit. Forty
  // permutations visit all 16.
  const int64_t visits = 40 * 5;
  EXPECT_EQ(result.game_evaluations, 16);
  EXPECT_EQ(memo_hits->Get() - hits_before,
            kCompiled ? visits - result.game_evaluations : 0);
  // The plain rows need bit 0 or bits 1 and 2; the program reads bits 1
  // and 3. Bit 2 therefore matters only with bit 1, and the 4 masks with
  // bit 2 but not bit 1 share their key with the mask without bit 2: the
  // sampler's one block of 16 coalitions takes 12 evaluations.
  EXPECT_EQ(collapsed->Get() - collapsed_before, kCompiled ? 4 : 0);
  // A block with a repeated mask collapses it too.
  const std::vector<uint64_t> masks = {0b0100, 0b0000, 0b0110, 0b0100};
  std::vector<double> out(masks.size());
  scan.Values(masks, out);
  EXPECT_EQ(collapsed->Get() - collapsed_before, kCompiled ? 6 : 0);
  EXPECT_EQ(out, (std::vector<double>{2.5, 2.5, 1.25 + 2.5 + 5.0, 2.5}));
}

// ---- Provenance lifetime: handles outlive their pipeline ----

int64_t Multiplicity(int id) { return 1 + id % 3; }

// Coalition outcomes of `lineage` over its first (up to) six variables,
// one bit per mask, through a freshly compiled program.
uint64_t CompiledOutcomes(const ProvExprPtr& lineage) {
  const std::set<int> vars = lineage->Lineage();
  std::vector<int> endo(vars.begin(), vars.end());
  if (endo.size() > 6) endo.resize(6);
  CompiledLineage compiled = CompiledLineage::Compile(lineage, endo);
  CompiledLineage::Scratch scratch;
  uint64_t outcomes = 0;
  for (uint64_t mask = 0; mask < 64; ++mask)
    outcomes |= uint64_t{compiled.Eval(mask, &scratch)} << mask;
  return outcomes;
}

struct LineageFacts {
  std::string text;
  int64_t count = 0;
  uint64_t outcomes = 0;
};

LineageFacts FactsOf(const ProvExprPtr& lineage) {
  return {lineage->ToString(), lineage->EvalCount(Multiplicity),
          CompiledOutcomes(lineage)};
}

TEST(ProvenanceLifetimeTest, HandlesOutliveEveryRelationOfTheirPipeline) {
  ProvExprPtr group_lineage, join_lineage;
  LineageFacts group_facts, join_facts;
  {
    Relation a = RandomRelation(300, 81, "a");
    Relation b = RandomRelation(200, 83, "b", /*first_id=*/1000);
    ColumnarRelation ca = Columnar(a), cb = Columnar(b);
    auto joined = EquiJoin(ca, cb, 0, 0).ValueOrDie();
    auto selected =
        Select(joined,
               Expr::Gt(Expr::Column(3), Expr::Const(Value::Double(0.0))))
            .ValueOrDie();
    auto grouped =
        GroupByAggregate(selected, {2}, AggFn::kSum, 1, "s").ValueOrDie();
    ASSERT_GT(joined.num_rows(), 0);
    ASSERT_GT(grouped.num_rows(), 0);
    join_lineage = joined.annotation(joined.num_rows() / 2);
    group_lineage = grouped.annotation(0);
    ASSERT_EQ(join_lineage->kind(), ProvExpr::Kind::kTimes);
    ASSERT_EQ(group_lineage->kind(), ProvExpr::Kind::kPlus);
    join_facts = FactsOf(join_lineage);
    group_facts = FactsOf(group_lineage);
  }
  // Every relation above — base rows, columnar copies, operator outputs —
  // is gone; the handles alone keep their arenas and inputs alive.
  const LineageFacts join_after = FactsOf(join_lineage);
  const LineageFacts group_after = FactsOf(group_lineage);
  EXPECT_EQ(join_after.text, join_facts.text);
  EXPECT_EQ(join_after.count, join_facts.count);
  EXPECT_EQ(join_after.outcomes, join_facts.outcomes);
  EXPECT_EQ(group_after.text, group_facts.text);
  EXPECT_EQ(group_after.count, group_facts.count);
  EXPECT_EQ(group_after.outcomes, group_facts.outcomes);
  // Dropping one handle leaves the other intact.
  join_lineage.reset();
  EXPECT_EQ(FactsOf(group_lineage).text, group_facts.text);
}

TEST(ProvenanceLifetimeTest, HandlesOfOneArenaCopiedAndDroppedInParallel) {
  const int saved = GetNumThreads();
  SetNumThreads(8);
  ColumnarRelation joined =
      EquiJoin(Columnar(RandomRelation(400, 87, "a")),
               Columnar(RandomRelation(300, 89, "b", /*first_id=*/1000)), 0,
               0)
          .ValueOrDie();
  const int64_t n = joined.num_rows();
  ASSERT_GT(n, 0);
  std::vector<int64_t> expected(n);
  for (int64_t i = 0; i < n; ++i)
    expected[i] = joined.annotation(i)->EvalCount(Multiplicity);

  // Every handle of the join aliases one arena: copies from concurrent
  // bodies share its counter, and the relation is dropped while they live.
  std::vector<ProvExprPtr> kept(n);
  ParallelFor(n, 16, [&](int64_t begin, int64_t end, int64_t) {
    for (int64_t i = begin; i < end; ++i) {
      ProvExprPtr handle = joined.annotation(i);
      ProvExprPtr copy = handle;
      kept[i] = std::move(copy);
    }
  });
  joined = ColumnarRelation();
  std::vector<int64_t> counts(n);
  ParallelFor(n, 16, [&](int64_t begin, int64_t end, int64_t) {
    for (int64_t i = begin; i < end; ++i) {
      counts[i] = kept[i]->EvalCount(Multiplicity);
      kept[i].reset();  // Whichever body drops last frees the arena.
    }
  });
  EXPECT_EQ(counts, expected);
  SetNumThreads(saved);
}

// ---- Generated differential test: row vs columnar engine ----

// kSpecial (a double column with NaN, ±inf, −0.0 and INT cells) is drawn
// only by the in-place kernel test, so the older tests draw as before.
enum class GenKind { kInt, kDouble, kStr, kSpecial };

struct GenColumn {
  GenKind kind;
  double null_rate;
  int domain;   // Distinct non-NULL values; small means duplicate keys.
  int offset;   // Shifts the value domain (disjoint join keys).
};

// A kSpecial cell: NaN, ±inf, −0.0 and 0.0 beside ordinary values near
// `v`, and now and then the INT v (so the column keeps int origins).
Value SpecialDouble(Rng& rng, int v) {
  switch (rng.UniformInt(10)) {
    case 0:
      return Value::Double(std::numeric_limits<double>::quiet_NaN());
    case 1:
      return Value::Double(std::numeric_limits<double>::infinity());
    case 2:
      return Value::Double(-std::numeric_limits<double>::infinity());
    case 3:
      return Value::Double(-0.0);
    case 4:
      return Value::Double(0.0);
    case 5:
      return Value::Int(v);
    default:
      return Value::Double(v + rng.Uniform(-0.5, 0.5));
  }
}

Value GenValue(Rng& rng, const GenColumn& c) {
  if (rng.Uniform() < c.null_rate) return Value::Null();
  const int v = c.offset + rng.UniformInt(c.domain);
  switch (c.kind) {
    case GenKind::kInt:
      return Value::Int(v);
    case GenKind::kDouble:
      // Half the doubles are integral, so they equal int keys.
      return rng.Bernoulli(0.5) ? Value::Double(v)
                                : Value::Double(v + rng.Uniform(-0.5, 0.5));
    case GenKind::kStr:
      return Value::Str("s" + std::to_string(v));
    case GenKind::kSpecial:
      return SpecialDouble(rng, v);
  }
  return Value::Null();
}

GenColumn RandomPayload(Rng& rng) {
  const GenKind kind = static_cast<GenKind>(rng.UniformInt(3));
  return {kind, rng.Uniform(0.0, 0.3), 1 + rng.UniformInt(8), 0};
}

// Column 0 is the join key; base ids start at `*next_id`. About a tenth
// of the rows carry One() and a tenth Zero() instead of a base variable.
Relation GenRelation(Rng& rng, const std::string& name, const GenColumn& key,
                     int* next_id) {
  std::vector<GenColumn> cols = {key};
  const int payload = 1 + rng.UniformInt(3);
  for (int c = 0; c < payload; ++c) cols.push_back(RandomPayload(rng));
  std::vector<std::string> names;
  for (size_t c = 0; c < cols.size(); ++c)
    names.push_back(name + std::to_string(c));
  Relation r(name, names);
  const int rows = rng.Bernoulli(0.05) ? 0 : rng.UniformInt(1, 40);
  for (int i = 0; i < rows; ++i) {
    Tuple t;
    for (const GenColumn& c : cols) t.push_back(GenValue(rng, c));
    const double u = rng.Uniform();
    if (u < 0.1) {
      EXPECT_TRUE(r.Append(std::move(t), ProvExpr::One()).ok());
    } else if (u < 0.2) {
      EXPECT_TRUE(r.Append(std::move(t), ProvExpr::Zero()).ok());
    } else {
      EXPECT_TRUE(r.AppendBase(std::move(t), (*next_id)++).ok());
    }
  }
  return r;
}

ExprPtr RandomPredicate(Rng& rng, const Relation& rel) {
  const int c = rng.UniformInt(rel.num_columns());
  Value probe = Value::Null();
  for (const Tuple& t : rel.tuples()) {
    if (!t[c].is_null()) probe = t[c];
  }
  if (probe.type() == Value::Type::kString) {
    ExprPtr eq = Expr::Eq(Expr::Column(c), Expr::Const(probe));
    return rng.Bernoulli(0.5) ? eq : Expr::Not(eq);
  }
  const Value bound = Value::Double(rng.Uniform(-2.0, 6.0));
  return rng.Bernoulli(0.5) ? Expr::Gt(Expr::Column(c), Expr::Const(bound))
                            : Expr::Le(Expr::Column(c), Expr::Const(bound));
}

void ExpectSameCounts(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.num_tuples(), b.num_tuples());
  for (int i = 0; i < a.num_tuples(); ++i) {
    EXPECT_EQ(a.annotation(i)->EvalCount(Multiplicity),
              b.annotation(i)->EvalCount(Multiplicity))
        << "row " << i;
  }
}

struct EdgeCases {
  int empty_joins = 0;      // Both inputs non-empty, no match.
  int null_key_joins = 0;   // Join outputs holding a NULL-key match.
  int one_term_sums = 0;    // Groups whose sum is a single term.
  int zero_dropped = 0;     // ... of which some Zero terms dropped out.
  int unit_products = 0;    // Join rows whose product was simplified.
};

TEST(GeneratedDifferentialTest, RowAndColumnarPipelinesAgree) {
  const int saved = GetNumThreads();
  EdgeCases seen;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919);
    // Join keys: int/int, string/string or int/double (INTs against
    // integral DOUBLEs), with NULLs and duplicates; a few cases shift one
    // side's domain and drop its NULLs so nothing can match.
    const int pair = rng.UniformInt(3);
    const GenKind ka = pair == 1 ? GenKind::kStr : GenKind::kInt;
    const GenKind kb = pair == 0   ? GenKind::kInt
                       : pair == 1 ? GenKind::kStr
                                   : GenKind::kDouble;
    const bool disjoint = rng.Bernoulli(0.15);
    const int domain = 1 + rng.UniformInt(6);
    const GenColumn key_a{ka, disjoint ? 0.0 : rng.Uniform(0.0, 0.3), domain,
                          0};
    const GenColumn key_b{kb, disjoint ? 0.0 : rng.Uniform(0.0, 0.3), domain,
                          disjoint ? 100 : 0};
    int next_id = 0;
    const Relation a = GenRelation(rng, "a", key_a, &next_id);
    const Relation b = GenRelation(rng, "b", key_b, &next_id);

    const Relation row_join = reference::EquiJoin(a, b, 0, 0).ValueOrDie();
    const ExprPtr pred = RandomPredicate(rng, row_join);
    const Relation row_sel = reference::Select(row_join, pred).ValueOrDie();
    const bool group_by = rng.Bernoulli(0.5);
    std::vector<int> cols;
    for (int c = 0; c < row_sel.num_columns(); ++c) {
      if (rng.Bernoulli(0.3)) cols.push_back(c);
    }
    if (!group_by && cols.empty()) cols.push_back(0);
    const AggFn fn = static_cast<AggFn>(rng.UniformInt(5));
    int agg_col = -1;
    for (int c = row_sel.num_columns() - 1; c >= 0 && fn != AggFn::kCount;
         --c) {
      bool numeric = true;
      for (const Tuple& t : row_sel.tuples())
        numeric &= t[c].type() != Value::Type::kString;
      if (numeric) agg_col = c;
    }
    const AggFn used = agg_col < 0 ? AggFn::kCount : fn;
    auto run_row = [&](const Relation& in) {
      return group_by
                 ? reference::GroupByAggregate(in, cols, used, agg_col, "agg")
                 : reference::Project(in, cols, /*distinct=*/true);
    };
    const Relation row_out = run_row(row_sel).ValueOrDie();

    if (a.num_tuples() > 0 && b.num_tuples() > 0 &&
        row_join.num_tuples() == 0)
      ++seen.empty_joins;
    for (int i = 0; i < row_join.num_tuples(); ++i) {
      if (row_join.tuple(i)[0].is_null()) {
        ++seen.null_key_joins;
        break;
      }
    }

    const ColumnarRelation ca = Columnar(a), cb = Columnar(b);
    for (int threads : {1, 4, 8}) {
      SetNumThreads(threads);
      auto col_join = EquiJoin(ca, cb, 0, 0).ValueOrDie();
      auto col_sel = Select(col_join, pred).ValueOrDie();
      auto col_out = (group_by ? GroupByAggregate(col_sel, cols, used,
                                                  agg_col, "agg")
                               : Project(col_sel, cols, true))
                         .ValueOrDie();
      for (const auto& [row, col] :
           {std::pair{&row_join, &col_join}, std::pair{&row_sel, &col_sel},
            std::pair{&row_out, &col_out}}) {
        const Relation back = col->ToRows();
        ExpectSameRelation(back, *row);
        ExpectSameCounts(back, *row);
      }
      // A product with a One or Zero factor is that factor's partner or
      // Zero itself, not a new node, in both engines.
      for (int64_t i = 0; i < col_join.num_rows(); ++i) {
        if (col_join.annotation_node(i)->kind() != ProvExpr::Kind::kTimes) {
          if (threads == 1) ++seen.unit_products;
        }
      }
      // A group whose sum keeps one term is that term's node in both
      // engines: same pointer, no new node.
      const auto groups = reference::GroupRows(row_sel, cols);
      ASSERT_EQ(static_cast<int64_t>(groups.size()), col_out.num_rows());
      for (size_t g = 0; g < groups.size(); ++g) {
        int kept = 0, last = -1;
        for (int r : groups[g]) {
          if (row_sel.annotation(r)->kind() != ProvExpr::Kind::kZero) {
            ++kept;
            last = r;
          }
        }
        if (kept != 1) continue;
        EXPECT_EQ(col_out.annotation_node(static_cast<int64_t>(g)),
                  col_sel.annotation_node(last));
        EXPECT_EQ(row_out.annotation(static_cast<int>(g)).get(),
                  row_sel.annotation(last).get());
        if (threads == 1) {
          ++seen.one_term_sums;
          if (groups[g].size() > 1) ++seen.zero_dropped;
        }
      }
    }
  }
  SetNumThreads(saved);
  EXPECT_GT(seen.empty_joins, 0);
  EXPECT_GT(seen.null_key_joins, 0);
  EXPECT_GT(seen.one_term_sums, 0);
  EXPECT_GT(seen.zero_dropped, 0);
  EXPECT_GT(seen.unit_products, 0);
}

// ---- Late materialization: views, pending products, first reads ----

// The last column of `rel` that holds no string (or -1 when there is
// none), for an aggregate over it.
int NumericColumn(const Relation& rel) {
  for (int c = rel.num_columns() - 1; c >= 0; --c) {
    bool numeric = true;
    for (const Tuple& t : rel.tuples())
      numeric &= t[c].type() != Value::Type::kString;
    if (numeric) return c;
  }
  return -1;
}

// A non-empty random subset of the column indexes, ascending.
std::vector<int> RandomColumns(Rng& rng, int num_columns) {
  std::vector<int> cols;
  for (int c = 0; c < num_columns; ++c) {
    if (rng.Bernoulli(0.4)) cols.push_back(c);
  }
  if (cols.empty()) cols.push_back(rng.UniformInt(num_columns));
  return cols;
}

TEST(GeneratedDifferentialTest, ViewsOfViewsAgreeWithReference) {
  // Shapes the benchmark pipeline lacks: a select of a select, joins of
  // joins (left-deep and bushy), a join over a select, and group-by,
  // distinct, bag projection and union over views, each checked through
  // ToRows at every stage. Some stages are read before their consumers
  // run and some after, so a consumer meets both built and unbuilt
  // products and both gathered and ungathered columns.
  const int saved = GetNumThreads();
  int built_first = 0, unbuilt_first = 0, nonempty_select2 = 0,
      nonempty_bushy = 0, nonempty_select_join = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 104729);
    const GenKind kind = rng.Bernoulli(0.3) ? GenKind::kStr : GenKind::kInt;
    // Wide enough a key domain that the bushy join stays small.
    const GenColumn key{kind, rng.Uniform(0.0, 0.2), 4 + rng.UniformInt(8),
                        0};
    int next_id = 0;
    const Relation a = GenRelation(rng, "a", key, &next_id);
    const Relation b = GenRelation(rng, "b", key, &next_id);
    const Relation c = GenRelation(rng, "c", key, &next_id);
    const Relation d = GenRelation(rng, "d", key, &next_id);

    const Relation r_join = reference::EquiJoin(a, b, 0, 0).ValueOrDie();
    const ExprPtr p1 = RandomPredicate(rng, r_join);
    const Relation r_sel = reference::Select(r_join, p1).ValueOrDie();
    const ExprPtr p2 = RandomPredicate(rng, r_sel);
    const Relation r_sel2 = reference::Select(r_sel, p2).ValueOrDie();
    const Relation r_deep = reference::EquiJoin(r_join, c, 0, 0).ValueOrDie();
    const Relation r_cd = reference::EquiJoin(c, d, 0, 0).ValueOrDie();
    const Relation r_bushy =
        reference::EquiJoin(r_join, r_cd, 0, 0).ValueOrDie();
    const Relation r_sel_join =
        reference::EquiJoin(r_sel, c, 0, 0).ValueOrDie();
    const std::vector<int> group = RandomColumns(rng, r_sel2.num_columns());
    const int agg_col = NumericColumn(r_sel2);
    const AggFn fn =
        agg_col < 0 ? AggFn::kCount : static_cast<AggFn>(rng.UniformInt(5));
    const Relation r_group =
        reference::GroupByAggregate(r_sel2, group, fn, agg_col, "agg")
            .ValueOrDie();
    const std::vector<int> proj = RandomColumns(rng, r_sel.num_columns());
    const Relation r_distinct =
        reference::Project(r_sel, proj, /*distinct=*/true).ValueOrDie();
    const Relation r_bag =
        reference::Project(r_sel2, proj, /*distinct=*/false).ValueOrDie();
    const Relation r_union = reference::Union(r_sel, r_sel2).ValueOrDie();
    const uint64_t early = rng.NextU64();

    const ColumnarRelation ca = Columnar(a), cb = Columnar(b),
                           cc = Columnar(c), cd = Columnar(d);
    for (int threads : {1, 4, 8}) {
      SetNumThreads(threads);
      auto join = EquiJoin(ca, cb, 0, 0).ValueOrDie();
      if (early & 1) join.annotation_block();
      auto sel = Select(join, p1).ValueOrDie();
      if (early & 2) sel.ToRows();
      auto sel2 = Select(sel, p2).ValueOrDie();
      if ((early & 4) && sel2.num_rows() > 0) sel2.annotation_node(0);
      auto deep = EquiJoin(join, cc, 0, 0).ValueOrDie();
      auto cjoin = EquiJoin(cc, cd, 0, 0).ValueOrDie();
      auto bushy = EquiJoin(join, cjoin, 0, 0).ValueOrDie();
      auto sel_join = EquiJoin(sel, cc, 0, 0).ValueOrDie();
      auto grouped =
          GroupByAggregate(sel2, group, fn, agg_col, "agg").ValueOrDie();
      auto distinct = Project(sel, proj, /*distinct=*/true).ValueOrDie();
      auto bag = Project(sel2, proj, /*distinct=*/false).ValueOrDie();
      auto both = Union(sel, sel2).ValueOrDie();
      if (threads == 1) {
        ++((early & 1) ? built_first : unbuilt_first);
        nonempty_select2 += sel2.num_rows() > 0;
        nonempty_bushy += bushy.num_rows() > 0;
        nonempty_select_join += sel_join.num_rows() > 0;
      }
      for (const auto& [row, col] :
           {std::pair{&r_join, &join}, std::pair{&r_sel, &sel},
            std::pair{&r_sel2, &sel2}, std::pair{&r_deep, &deep},
            std::pair{&r_bushy, &bushy}, std::pair{&r_sel_join, &sel_join},
            std::pair{&r_group, &grouped}, std::pair{&r_distinct, &distinct},
            std::pair{&r_bag, &bag}, std::pair{&r_union, &both}}) {
        const Relation back = col->ToRows();
        ExpectSameRelation(back, *row);
        ExpectSameCounts(back, *row);
      }
    }
  }
  SetNumThreads(saved);
  EXPECT_GT(built_first, 0);
  EXPECT_GT(unbuilt_first, 0);
  EXPECT_GT(nonempty_select2, 10);
  EXPECT_GT(nonempty_bushy, 10);
  EXPECT_GT(nonempty_select_join, 10);
}

// ---- In-place kernels: views read through their row maps ----

// Column 0 is the join key, of `key` kind; 1–4 payload columns of any
// kind, doubles drawn as kSpecial. Every cell may be NULL.
Relation SpecialRelation(Rng& rng, const std::string& name, GenKind key,
                         int key_domain, int rows, int* next_id) {
  std::vector<GenColumn> cols = {{key, 0.0, key_domain, 0}};
  const int payload = 1 + rng.UniformInt(4);
  for (int c = 0; c < payload; ++c) {
    const GenKind kind = static_cast<GenKind>(rng.UniformInt(3));
    cols.push_back({kind == GenKind::kDouble ? GenKind::kSpecial : kind, 0.0,
                    1 + rng.UniformInt(6), 0});
  }
  for (GenColumn& c : cols)
    c.null_rate = rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(0.0, 0.3);
  std::vector<std::string> names;
  for (size_t c = 0; c < cols.size(); ++c)
    names.push_back(name + std::to_string(c));
  Relation r(name, names);
  for (int i = 0; i < rows; ++i) {
    Tuple t;
    for (const GenColumn& c : cols) t.push_back(GenValue(rng, c));
    EXPECT_TRUE(r.AppendBase(std::move(t), (*next_id)++).ok());
  }
  return r;
}

// One of the six comparisons: a column (or, now and then, arithmetic over
// two columns) against a constant drawn from the data or against another
// column.
ExprPtr RandomComparison(Rng& rng, const Relation& rel) {
  const int nc = rel.num_columns();
  ExprPtr lhs = Expr::Column(rng.UniformInt(nc));
  if (rng.Bernoulli(0.15)) {
    ExprPtr other = Expr::Column(rng.UniformInt(nc));
    lhs = rng.Bernoulli(0.5) ? Expr::Add(lhs, other) : Expr::Mul(lhs, other);
  }
  ExprPtr rhs;
  if (rng.Bernoulli(0.4)) {
    rhs = Expr::Column(rng.UniformInt(nc));
  } else if (rel.num_tuples() > 0 && rng.Bernoulli(0.7)) {
    const int c = rng.UniformInt(nc);
    rhs = Expr::Const(rel.tuple(rng.UniformInt(rel.num_tuples()))[c]);
  } else {
    rhs = Expr::Const(SpecialDouble(rng, rng.UniformInt(6)));
  }
  switch (rng.UniformInt(6)) {
    case 0:
      return Expr::Eq(lhs, rhs);
    case 1:
      return Expr::Ne(lhs, rhs);
    case 2:
      return Expr::Lt(lhs, rhs);
    case 3:
      return Expr::Le(lhs, rhs);
    case 4:
      return Expr::Gt(lhs, rhs);
    default:
      return Expr::Ge(lhs, rhs);
  }
}

ExprPtr RandomCondition(Rng& rng, const Relation& rel, int depth) {
  if (depth == 0 || rng.Bernoulli(0.35)) return RandomComparison(rng, rel);
  const int op = rng.UniformInt(3);
  // Operands drawn in sequence: argument evaluation order is unspecified.
  ExprPtr a = RandomCondition(rng, rel, depth - 1);
  if (op == 2) return Expr::Not(a);
  ExprPtr b = RandomCondition(rng, rel, depth - 1);
  return op == 0 ? Expr::And(a, b) : Expr::Or(a, b);
}

// Which columns of a stage's output a test reads (gathers) before the
// next operator runs, and whether it builds the output's annotations.
struct EarlyReads {
  std::vector<int> columns;
  bool annotations = false;

  void Apply(const ColumnarRelation& rel) const {
    for (int c : columns) rel.column(c);
    if (annotations) rel.annotation_block();
  }
};

EarlyReads RandomEarlyReads(Rng& rng, int num_columns) {
  EarlyReads reads;
  if (rng.Bernoulli(0.5)) return reads;  // Nothing read early.
  const bool all = rng.Bernoulli(0.3);
  for (int c = 0; c < num_columns; ++c) {
    if (all || rng.Bernoulli(0.4)) reads.columns.push_back(c);
  }
  reads.annotations = rng.Bernoulli(0.5);
  return reads;
}

TEST(GeneratedDifferentialTest, InPlaceKernelsAgreeWithReference) {
  // join -> select -> select -> group-by or distinct, plus a join over the
  // second select, on columns holding NaN, ±inf, −0.0, INT-origin doubles
  // and NULLs, against predicates built from all six comparisons under
  // AND/OR/NOT. Before each consumer runs, a random part of its input is
  // read (gathered) or nothing is, so every kernel meets views it reads
  // through their maps, gathered views and storage, in one relation; half
  // of the seeds draw a large fact side, so batches start mid-map.
  const int saved = GetNumThreads();
  int large = 0, nonempty_select2 = 0, read_early = 0, not_read = 0,
      nan_groups = 0, view_joins = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 130363);
    // Large seeds key on ints or strings, which match often; the small
    // ones key on doubles too.
    const bool big = seed % 2 == 0;
    const GenKind key =
        big ? (rng.Bernoulli(0.5) ? GenKind::kInt : GenKind::kStr)
            : static_cast<GenKind>(rng.UniformInt(4));
    const int domain = big ? 2 + rng.UniformInt(5) : 1 + rng.UniformInt(6);
    int next_id = 0;
    const Relation a = SpecialRelation(
        rng, "a", key, domain, big ? rng.UniformInt(1200, 2600)
                                   : rng.UniformInt(0, 60),
        &next_id);
    const Relation b = SpecialRelation(rng, "b", key, domain,
                                       rng.UniformInt(2, 12), &next_id);
    const Relation c = SpecialRelation(rng, "c", key, domain,
                                       rng.UniformInt(1, 8), &next_id);

    const Relation r_join = reference::EquiJoin(a, b, 0, 0).ValueOrDie();
    const ExprPtr p1 = RandomCondition(rng, r_join, 3);
    const Relation r_sel = reference::Select(r_join, p1).ValueOrDie();
    const ExprPtr p2 = RandomCondition(rng, r_sel, 2);
    const Relation r_sel2 = reference::Select(r_sel, p2).ValueOrDie();
    const int join_col =
        rng.Bernoulli(0.5) ? 0 : rng.UniformInt(r_sel2.num_columns());
    const Relation r_view_join =
        reference::EquiJoin(r_sel2, c, join_col, 0).ValueOrDie();
    const bool group_by = rng.Bernoulli(0.6);
    std::vector<int> cols;
    for (int k = 0; k < r_sel2.num_columns(); ++k) {
      if (rng.Bernoulli(0.3)) cols.push_back(k);
    }
    if (!group_by && cols.empty()) cols.push_back(0);
    // Any column, strings included (they aggregate as 0.0).
    const int agg_col = rng.UniformInt(r_sel2.num_columns());
    const AggFn fn = static_cast<AggFn>(rng.UniformInt(5));
    const Relation r_out =
        (group_by ? reference::GroupByAggregate(r_sel2, cols, fn, agg_col,
                                                "agg")
                  : reference::Project(r_sel2, cols, /*distinct=*/true))
            .ValueOrDie();
    const EarlyReads join_reads =
        RandomEarlyReads(rng, r_join.num_columns());
    const EarlyReads sel_reads = RandomEarlyReads(rng, r_sel.num_columns());
    const EarlyReads sel2_reads =
        RandomEarlyReads(rng, r_sel2.num_columns());

    large += r_join.num_tuples() > kBatchRows;
    nonempty_select2 += r_sel2.num_tuples() > 0;
    view_joins += r_view_join.num_tuples() > 0;
    for (const EarlyReads* reads : {&join_reads, &sel_reads, &sel2_reads})
      ++(reads->columns.empty() ? not_read : read_early);
    if (group_by) {
      for (const Tuple& t : r_out.tuples()) {
        nan_groups += std::isnan(t.back().AsDouble());
      }
    }

    const ColumnarRelation ca = Columnar(a), cb = Columnar(b),
                           cc = Columnar(c);
    for (int threads : {1, 4, 8}) {
      SetNumThreads(threads);
      auto join = EquiJoin(ca, cb, 0, 0).ValueOrDie();
      join_reads.Apply(join);
      auto sel = Select(join, p1).ValueOrDie();
      sel_reads.Apply(sel);
      auto sel2 = Select(sel, p2).ValueOrDie();
      sel2_reads.Apply(sel2);
      auto out = (group_by ? GroupByAggregate(sel2, cols, fn, agg_col, "agg")
                           : Project(sel2, cols, /*distinct=*/true))
                     .ValueOrDie();
      auto view_join = EquiJoin(sel2, cc, join_col, 0).ValueOrDie();
      for (const auto& [row, col] :
           {std::pair{&r_join, &join}, std::pair{&r_sel, &sel},
            std::pair{&r_sel2, &sel2}, std::pair{&r_out, &out},
            std::pair{&r_view_join, &view_join}}) {
        const Relation back = col->ToRows();
        ExpectSameRelation(back, *row);
        ExpectSameCounts(back, *row);
      }
    }
  }
  SetNumThreads(saved);
  EXPECT_GE(large, 20);
  EXPECT_GE(nonempty_select2, 20);
  EXPECT_GE(read_early, 60);
  EXPECT_GE(not_read, 60);
  EXPECT_GT(nan_groups, 0);
  EXPECT_GE(view_joins, 10);
}

// ---- Key collisions: one key rule in both engines ----

enum class PoolKind { kInt, kDouble, kStr };

// A key cell from a pool of near-collisions, NULL one time in ten. DOUBLE
// columns hold nextafter neighbours, pairs equal at %.6g, ±0.0, NaNs of
// both signs and two payloads, ±inf and INTs beside their int-origin
// DOUBLEs; INT columns hold int64 values at and around ±2^53; STRING
// columns hold "NULL", "nan", "1" and "".
Value CollisionValue(Rng& rng, PoolKind kind) {
  if (rng.Bernoulli(0.1)) return Value::Null();
  constexpr int64_t p53 = int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  switch (kind) {
    case PoolKind::kInt: {
      const int64_t pool[] = {0,       1,   1000000,     p53 - 1, p53,
                              p53 + 1, -p53 - 1, -p53, -p53 + 1};
      return Value::Int(pool[rng.UniformInt(9)]);
    }
    case PoolKind::kDouble: {
      const Value pool[] = {
          Value::Double(1.0),
          Value::Double(std::nextafter(1.0, 2.0)),
          Value::Double(std::nextafter(1.0, 0.0)),
          Value::Double(1.0000001),
          Value::Double(1.0000002),
          Value::Double(1e6),
          Value::Double(1000000.4),
          Value::Double(0.0),
          Value::Double(-0.0),
          Value::Double(nan),
          Value::Double(std::copysign(nan, -1.0)),
          Value::Double(std::bit_cast<double>(uint64_t{0x7ff8000000000001})),
          Value::Double(inf),
          Value::Double(-inf),
          Value::Double(static_cast<double>(p53)),
          Value::Int(0),
          Value::Int(1),
          Value::Int(1000000),
      };
      return pool[rng.UniformInt(18)];
    }
    case PoolKind::kStr: {
      const char* pool[] = {"NULL", "nan", "1", ""};
      return Value::Str(pool[rng.UniformInt(4)]);
    }
  }
  return Value::Null();
}

// Column 0 is the join key of `key` kind, then `extra` key columns of any
// pool kind and a DOUBLE measure (NULL one time in ten).
Relation CollisionRelation(Rng& rng, const std::string& name, PoolKind key,
                           int extra, int rows, int* next_id) {
  std::vector<PoolKind> kinds = {key};
  for (int c = 0; c < extra; ++c)
    kinds.push_back(static_cast<PoolKind>(rng.UniformInt(3)));
  std::vector<std::string> names;
  for (size_t c = 0; c <= kinds.size(); ++c)
    names.push_back(name + std::to_string(c));
  Relation r(name, names);
  for (int i = 0; i < rows; ++i) {
    Tuple t;
    for (PoolKind kind : kinds) t.push_back(CollisionValue(rng, kind));
    t.push_back(rng.Bernoulli(0.1) ? Value::Null()
                                   : Value::Double(rng.Uniform(-1.0, 1.0)));
    EXPECT_TRUE(r.AppendBase(std::move(t), (*next_id)++).ok());
  }
  return r;
}

// Same type and, for doubles, the same bits.
bool SameCell(const Value& x, const Value& y) {
  if (x.type() != y.type()) return false;
  if (x.type() == Value::Type::kDouble)
    return Bits(x.AsDouble()) == Bits(y.AsDouble());
  return x == y;
}

TEST(GeneratedDifferentialTest, KeyCollisionsAgreeWithReference) {
  // Group-by on 0–3 key columns and distinct, over storage and over a
  // selection's views (gathered first or read in place), and joins of
  // int–int, int–double, double–double, string–string and string–int
  // keys, storage and view probe sides, on cells that collide under other
  // readings of key equality; every output at 1/4/8 threads against
  // reference::.
  constexpr PoolKind kJoins[][2] = {{PoolKind::kInt, PoolKind::kInt},
                                    {PoolKind::kInt, PoolKind::kDouble},
                                    {PoolKind::kDouble, PoolKind::kDouble},
                                    {PoolKind::kStr, PoolKind::kStr},
                                    {PoolKind::kStr, PoolKind::kInt}};
  const int saved = GetNumThreads();
  int merged_bits = 0, split_renderings = 0, cross_pairs = 0,
      multi_column = 0, no_column = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 15485863);
    const PoolKind* join = kJoins[seed % 5];
    int next_id = 0;
    const Relation a =
        CollisionRelation(rng, "a", join[0], 3, rng.UniformInt(0, 60),
                          &next_id);
    const Relation b =
        CollisionRelation(rng, "b", join[1], 1, rng.UniformInt(1, 20),
                          &next_id);
    std::vector<int> order = {0, 1, 2, 3};
    rng.Shuffle(&order);
    const std::vector<int> group(order.begin(),
                                 order.begin() + rng.UniformInt(4));
    const std::vector<int> distinct(order.begin(),
                                    order.begin() + rng.UniformInt(1, 4));
    const AggFn fn = static_cast<AggFn>(rng.UniformInt(5));
    const ExprPtr keep =
        Expr::Gt(Expr::Column(4), Expr::Const(Value::Double(0.0)));
    const bool gather_first = rng.Bernoulli(0.5);

    const Relation r_sel = reference::Select(a, keep).ValueOrDie();
    std::vector<Relation> expected;
    for (const Relation* in : {&a, &r_sel}) {
      expected.push_back(
          reference::GroupByAggregate(*in, group, fn, 4, "agg").ValueOrDie());
      expected.push_back(
          reference::Project(*in, distinct, /*distinct=*/true).ValueOrDie());
      expected.push_back(reference::EquiJoin(*in, b, 0, 0).ValueOrDie());
      expected.push_back(reference::EquiJoin(b, *in, 0, 0).ValueOrDie());
    }

    // The cases the pools exist for: groups that merge cells of other
    // types or bits, groups apart whose keys render alike, and join pairs
    // of cells of other types or bits.
    const auto groups = reference::GroupRows(a, group);
    for (const std::vector<int>& rows : groups) {
      for (int r : rows) {
        bool same = true;
        for (int c : group)
          same &= SameCell(a.tuple(r)[c], a.tuple(rows[0])[c]);
        merged_bits += !same;
      }
    }
    std::set<std::string> renderings;
    for (const std::vector<int>& rows : groups) {
      std::string key;
      for (int c : group) key += a.tuple(rows[0])[c].ToString() + "|";
      split_renderings += !renderings.insert(key).second;
    }
    for (const Tuple& t : expected[2].tuples())
      cross_pairs += !SameCell(t[0], t[a.num_columns()]);
    multi_column += group.size() >= 2;
    no_column += group.empty() && a.num_tuples() > 0;

    const ColumnarRelation ca = Columnar(a), cb = Columnar(b);
    for (int threads : {1, 4, 8}) {
      SetNumThreads(threads);
      const ColumnarRelation sel = Select(ca, keep).ValueOrDie();
      if (gather_first) {
        for (int c = 0; c < sel.num_columns(); ++c) sel.column(c);
      }
      std::vector<ColumnarRelation> got;
      for (const ColumnarRelation* in : {&ca, &sel}) {
        got.push_back(GroupByAggregate(*in, group, fn, 4, "agg").ValueOrDie());
        got.push_back(Project(*in, distinct, /*distinct=*/true).ValueOrDie());
        got.push_back(EquiJoin(*in, cb, 0, 0).ValueOrDie());
        got.push_back(EquiJoin(cb, *in, 0, 0).ValueOrDie());
      }
      ASSERT_EQ(got.size(), expected.size());
      for (size_t k = 0; k < got.size(); ++k) {
        SCOPED_TRACE("output " + std::to_string(k));
        const Relation back = got[k].ToRows();
        ExpectSameRelation(back, expected[k]);
        ExpectSameCounts(back, expected[k]);
      }
    }
  }
  SetNumThreads(saved);
  EXPECT_GT(merged_bits, 10);
  EXPECT_GT(split_renderings, 10);
  EXPECT_GT(cross_pairs, 10);
  EXPECT_GT(multi_column, 10);
  EXPECT_GT(no_column, 5);
}

TEST(ColumnarOpsTest, JoinPairOrderIsThreadCountFree) {
  // 5 000 probe rows in five kBatchRows chunks: duplicate build keys fan
  // out, NULL keys join NULL keys, and no row of the third chunk matches,
  // so that chunk contributes no pairs. Int keys probe by value and
  // string keys by b's dictionary codes; both must keep the a-major,
  // ascending-b order at every thread count.
  for (bool strings : {false, true}) {
    SCOPED_TRACE(strings ? "string keys" : "int keys");
    auto key = [&](int64_t k) {
      return strings ? Value::Str("s" + std::to_string(k)) : Value::Int(k);
    };
    Relation a("a", {"k", "id"});
    Relation b("b", {"k", "id"});
    for (int i = 0; i < 5000; ++i) {
      const Value k = i / kBatchRows == 2 ? key(100 + i)
                      : i % 7 == 0        ? Value::Null()
                                          : key(i % 5);
      ASSERT_TRUE(a.AppendBase({k, Value::Int(i)}, i).ok());
    }
    for (int j = 0; j < 40; ++j) {
      const Value k = j % 9 == 0 ? Value::Null() : key(j % 5);
      ASSERT_TRUE(b.AppendBase({k, Value::Int(j)}, 10000 + j).ok());
    }
    const Relation expected = reference::EquiJoin(a, b, 0, 0).ValueOrDie();
    ASSERT_GT(expected.num_tuples(), 5000);
    for (const Tuple& t : expected.tuples())
      ASSERT_NE(t[1].AsInt() / kBatchRows, 2);
    ExpectEngineAgreement(
        a, [&](const Relation& r) { return reference::EquiJoin(r, b, 0, 0); },
        [&](const ColumnarRelation& c) {
          return EquiJoin(c, Columnar(b), 0, 0);
        });
  }
}

TEST(LateMaterializationTest, ConcurrentFirstReadsSeeOneGatherAndOneBuild) {
  // Eight threads make the first reads of one fresh view at once, each
  // in its own order: every thread must see the same column storage and
  // the same annotation nodes, and the same rows.
  const Relation a = RandomRelation(1200, 91, "a");
  const Relation b = RandomRelation(120, 93, "b", /*first_id=*/10000);
  const ExprPtr pred =
      Expr::Gt(Expr::Column(3), Expr::Const(Value::Double(0.0)));
  const Relation r_join = reference::EquiJoin(a, b, 0, 0).ValueOrDie();
  const Relation r_sel = reference::Select(r_join, pred).ValueOrDie();
  const ColumnarRelation ca = Columnar(a), cb = Columnar(b);
  for (bool select : {false, true}) {
    SCOPED_TRACE(select ? "select of a join" : "join");
    const ColumnarRelation join = EquiJoin(ca, cb, 0, 0).ValueOrDie();
    const ColumnarRelation view =
        select ? Select(join, pred).ValueOrDie() : join;
    const int nc = view.num_columns();
    const int64_t n = view.num_rows();
    ASSERT_GT(n, 1000);
    constexpr int kThreads = 8;
    std::vector<std::vector<const Column*>> cols(
        kThreads, std::vector<const Column*>(nc));
    std::vector<std::vector<const ProvExpr*>> nodes(
        kThreads, std::vector<const ProvExpr*>(n));
    std::vector<Relation> rows(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        if (t % 3 == 2) rows[t] = view.ToRows();
        for (int k = 0; k < nc; ++k) {
          const int c = (k + t) % nc;
          cols[t][c] = &view.column(c);
        }
        for (int64_t k = 0; k < n; ++k) {
          const int64_t i = t % 2 ? n - 1 - k : k;
          nodes[t][i] = t % 4 < 2 ? view.annotation(i).get()
                                  : view.annotation_node(i);
        }
        if (t % 3 != 2) rows[t] = view.ToRows();
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(cols[t], cols[0]) << "thread " << t;
      EXPECT_EQ(nodes[t], nodes[0]) << "thread " << t;
      ExpectSameRelation(rows[t], rows[0]);
    }
    for (int c = 0; c < nc; ++c) EXPECT_EQ(&view.column(c), cols[0][c]);
    ExpectSameRelation(rows[0], select ? r_sel : r_join);
  }
}

TEST(LateMaterializationTest, SelectRacesFirstReadsOfItsInput) {
  // Four threads Select from a fresh join, reading its columns in place,
  // while four others make the first column(c) reads of the same join:
  // each column is gathered once, every reader sees the same storage, and
  // every Select returns the same rows.
  constexpr bool kCompiled = XAI_TELEMETRY != 0;
  telemetry::Counter* gathered =
      telemetry::Registry::Global().GetCounter("relational/gathered_rows");
  const Relation a = RandomRelation(3000, 109, "a");
  const Relation b = RandomRelation(120, 111, "b", /*first_id=*/10000);
  const ExprPtr pred = Expr::Or(
      Expr::Gt(Expr::Column(3), Expr::Column(7)),
      Expr::And(Expr::Le(Expr::Column(1), Expr::Const(Value::Double(0.5))),
                Expr::Ne(Expr::Column(6), Expr::Const(Value::Str("c1")))));
  const Relation expected =
      reference::Select(reference::EquiJoin(a, b, 0, 0).ValueOrDie(), pred)
          .ValueOrDie();
  ASSERT_GT(expected.num_tuples(), 2 * kBatchRows);
  const ColumnarRelation ca = Columnar(a), cb = Columnar(b);
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const ColumnarRelation join = EquiJoin(ca, cb, 0, 0).ValueOrDie();
    const int nc = join.num_columns();
    const int64_t gathered0 = gathered->Get();
    constexpr int kThreads = 8;
    std::vector<std::vector<const Column*>> cols(
        kThreads, std::vector<const Column*>(nc));
    std::vector<ColumnarRelation> selected(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        if (t % 2 == 0) {
          selected[t] = Select(join, pred).ValueOrDie();
          return;
        }
        for (int k = 0; k < nc; ++k) {
          const int c = t % 4 == 1 ? (k + t + round) % nc
                                   : nc - 1 - (k + round) % nc;
          cols[t][c] = &join.column(c);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(gathered->Get() - gathered0,
              kCompiled ? nc * join.num_rows() : 0);
    for (int t = 3; t < kThreads; t += 2) EXPECT_EQ(cols[t], cols[1]);
    for (int t = 0; t < kThreads; t += 2)
      ExpectSameRelation(selected[t].ToRows(), expected);
  }
}

TEST(LateMaterializationTest, MutatingAViewLeavesSharersIntact) {
  // Appending to a view, or taking one of its columns for writing, gives
  // it storage of its own: its copies and the storage it read keep their
  // rows.
  const Relation a = RandomRelation(200, 99, "a");
  const Relation b = RandomRelation(100, 101, "b", /*first_id=*/1000);
  const ExprPtr pred =
      Expr::Gt(Expr::Column(3), Expr::Const(Value::Double(0.0)));
  const Relation expected =
      reference::Select(reference::EquiJoin(a, b, 0, 0).ValueOrDie(), pred)
          .ValueOrDie();
  const ColumnarRelation ca = Columnar(a), cb = Columnar(b);
  ColumnarRelation view =
      Select(EquiJoin(ca, cb, 0, 0).ValueOrDie(), pred).ValueOrDie();
  const ColumnarRelation copy = view;
  ASSERT_TRUE(view.AppendRow(Tuple(view.num_columns(), Value::Null()),
                             ProvExpr::One())
                  .ok());
  ASSERT_EQ(view.num_rows(), expected.num_tuples() + 1);
  const Relation grown = view.ToRows();
  EXPECT_EQ(grown.annotation(expected.num_tuples())->ToString(), "1");
  for (int i = 0; i < expected.num_tuples(); ++i) {
    ASSERT_EQ(grown.annotation(i)->ToString(),
              expected.annotation(i)->ToString());
    for (int c = 0; c < expected.num_columns(); ++c)
      ASSERT_EQ(grown.tuple(i)[c], expected.tuple(i)[c]);
  }
  ExpectSameRelation(copy.ToRows(), expected);
  ExpectSameRelation(ca.ToRows(), a);

  // A view nothing else shares keeps its gathered rows as its storage.
  ColumnarRelation fresh =
      Select(EquiJoin(ca, cb, 0, 0).ValueOrDie(), pred).ValueOrDie();
  Column* col = fresh.mutable_column(2);
  EXPECT_EQ(col->size(), fresh.num_rows());
  EXPECT_EQ(&fresh.column(2), col);
  ExpectSameRelation(fresh.ToRows(), expected);
}

TEST(RelationalDecisionRecordTest, CountsFirstReadGathersAndProducts) {
  // join -> select -> group-by -> select -> ToRows on a star schema, the
  // shape of the query_shapley benchmark. Under XAI_TELEMETRY=0 the
  // counters compile away and stay put.
  constexpr bool kCompiled = XAI_TELEMETRY != 0;
  telemetry::Registry& registry = telemetry::Registry::Global();
  telemetry::Counter* gathered =
      registry.GetCounter("relational/gathered_rows");
  telemetry::Counter* products =
      registry.GetCounter("relational/product_nodes");
  Relation fact("fact", {"id", "k", "amount", "f"});
  Relation dim("dim", {"k", "region", "w"});
  Rng rng(103);
  for (int k = 0; k < 16; ++k) {
    ASSERT_TRUE(dim.AppendBase({Value::Int(k), Value::Int(k % 4),
                                Value::Double(rng.Uniform(0.5, 1.5))},
                               1000 + k)
                    .ok());
  }
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(fact.AppendBase({Value::Int(i), Value::Int(rng.UniformInt(16)),
                                 Value::Double(rng.Uniform(1.0, 100.0)),
                                 Value::Double(rng.Uniform(-1.0, 1.0))},
                                i)
                    .ok());
  }
  const ColumnarRelation cf = Columnar(fact), cd = Columnar(dim);
  const int64_t gathered0 = gathered->Get(), products0 = products->Get();
  auto expect_counts = [&](int64_t rows, int64_t nodes) {
    EXPECT_EQ(gathered->Get() - gathered0, kCompiled ? rows : 0);
    EXPECT_EQ(products->Get() - products0, kCompiled ? nodes : 0);
  };

  // The join writes no column and no product.
  const ColumnarRelation joined = EquiJoin(cf, cd, 1, 0).ValueOrDie();
  const int64_t nj = joined.num_rows();
  ASSERT_EQ(nj, 400);
  expect_counts(0, 0);
  // The select reads its predicate column in place: it gathers nothing.
  const ColumnarRelation selected =
      Select(joined, Expr::Gt(Expr::Column(3), Expr::Const(Value::Double(0.0))))
          .ValueOrDie();
  const int64_t ns = selected.num_rows();
  ASSERT_GT(ns, 100);
  ASSERT_LT(ns, 300);
  expect_counts(0, 0);
  // The group-by reads its key and its measure in place, and builds the
  // selected rows' products, which it sums.
  GroupByAggregate(selected, {5}, AggFn::kSum, 2, "total").ValueOrDie();
  expect_counts(0, ns);
  // The second select reads the key in place, and takes the built nodes.
  const ColumnarRelation members =
      Select(selected,
             Expr::Eq(Expr::Column(5), Expr::Const(Value::Int(1))))
          .ValueOrDie();
  const int64_t nm = members.num_rows();
  ASSERT_GT(nm, 10);
  expect_counts(0, ns);
  // ToRows keeps every column, so it gathers them over the members' rows.
  const Relation rows = members.ToRows();
  expect_counts(7 * nm, ns);
  ASSERT_EQ(rows.num_tuples(), nm);
  // Second reads are free.
  members.ToRows();
  selected.annotation_block();
  expect_counts(7 * nm, ns);
  // A column someone keeps is still gathered on its first read, once.
  const Column& key = selected.column(5);
  EXPECT_EQ(key.size(), ns);
  expect_counts(7 * nm + ns, ns);
  EXPECT_EQ(&selected.column(5), &key);
  expect_counts(7 * nm + ns, ns);
}

TEST(ProvenanceLifetimeTest, SelectOfJoinHandlesAndRowsOutliveThePipeline) {
  const ExprPtr pred =
      Expr::Gt(Expr::Column(3), Expr::Const(Value::Double(0.0)));
  ProvExprPtr handle;
  Relation rows;
  LineageFacts facts;
  {
    // The join is a temporary: the select's pending products and views
    // must keep what they read alive on their own.
    const ColumnarRelation selected =
        Select(EquiJoin(Columnar(RandomRelation(300, 105, "a")),
                        Columnar(RandomRelation(200, 107, "b", 1000)), 0, 0)
                   .ValueOrDie(),
               pred)
            .ValueOrDie();
    ASSERT_GT(selected.num_rows(), 1);
    handle = selected.annotation(selected.num_rows() / 2);
    rows = selected.ToRows();
    ASSERT_EQ(handle->kind(), ProvExpr::Kind::kTimes);
    facts = FactsOf(handle);
  }
  // Every relation of the pipeline is gone, base rows included; the
  // expected rows come from fresh copies of the same seeded inputs.
  const LineageFacts after = FactsOf(handle);
  EXPECT_EQ(after.text, facts.text);
  EXPECT_EQ(after.count, facts.count);
  EXPECT_EQ(after.outcomes, facts.outcomes);
  handle.reset();
  const Relation expected =
      reference::Select(
          reference::EquiJoin(RandomRelation(300, 105, "a"),
                              RandomRelation(200, 107, "b", 1000), 0, 0)
              .ValueOrDie(),
          pred)
          .ValueOrDie();
  ExpectSameRelation(rows, expected);
  ExpectSameCounts(rows, expected);
}

// ---- Generated lineage formulas: compiled, shared-scan and
// responsibility paths vs ProvExpr::EvalBool ----

// min_players to max_players players, drawn from `ids` ids with
// replacement, so some repeat.
std::vector<int> RandomPlayers(Rng& rng, int min_players = 1,
                               int max_players = 9, int ids = 12) {
  std::vector<int> endo(rng.UniformInt(min_players, max_players + 1));
  for (int& id : endo) id = rng.UniformInt(ids);
  return endo;
}

// A seeded random positive lineage over the players `endo`: a DAG whose
// inner nodes take earlier nodes as children (shared subtrees), over
// leaves that are mostly players, some exogenous ids, Zero and One.
// `conjunctive` keeps to products, so every row it annotates compiles to
// a constant or a conjunction of player bits.
ProvExprPtr RandomLineage(Rng& rng, const std::vector<int>& endo,
                          bool conjunctive) {
  auto leaf = [&]() -> ProvExprPtr {
    const double u = rng.Uniform();
    if (u < 0.03) return ProvExpr::Zero();
    if (u < 0.06) return ProvExpr::One();
    if (u < 0.12) return ProvExpr::Base(100 + rng.UniformInt(4));
    return ProvExpr::Base(endo[rng.UniformInt(static_cast<int>(endo.size()))]);
  };
  std::vector<ProvExprPtr> pool = {leaf()};
  auto pick = [&]() -> ProvExprPtr {
    if (rng.Bernoulli(0.4)) return leaf();
    return pool[rng.UniformInt(static_cast<int>(pool.size()))];
  };
  const int inner = rng.UniformInt(1, 10);
  for (int i = 0; i < inner; ++i) {
    const double u = conjunctive ? 0.0 : rng.Uniform();
    if (u < 0.8) {
      ProvExprPtr a = pick();
      ProvExprPtr b = pick();
      pool.push_back(u < 0.4 ? ProvExpr::Times(std::move(a), std::move(b))
                             : ProvExpr::Plus(std::move(a), std::move(b)));
    } else {
      std::vector<ProvExprPtr> terms(rng.UniformInt(1, 5));
      for (ProvExprPtr& t : terms) t = pick();
      pool.push_back(ProvExpr::PlusAll(std::move(terms)));
    }
  }
  return pool.back();
}

// EvalBool under a coalition: a player is present when the mask has the
// bit of its first occurrence; every other id is exogenous (present).
bool EvalBoolAt(const ProvExprPtr& lineage, const std::vector<int>& endo,
                uint64_t mask) {
  return lineage->EvalBool([&](int id) {
    for (size_t i = 0; i < endo.size(); ++i)
      if (endo[i] == id) return ((mask >> i) & 1) != 0;
    return true;
  });
}

// EvalBoolAt for every mask of the players' bits.
std::vector<bool> TruthTable(const ProvExprPtr& lineage,
                             const std::vector<int>& endo) {
  std::vector<bool> truth(uint64_t{1} << endo.size());
  for (uint64_t m = 0; m < truth.size(); ++m)
    truth[m] = EvalBoolAt(lineage, endo, m);
  return truth;
}

// Bits a coalition mask may carry beyond the players': none, all of them,
// and bit 63 alone.
std::vector<uint64_t> HighBits(int n) {
  return {0, ~uint64_t{0} << std::max(n, 6), uint64_t{1} << 63};
}

TEST(GeneratedLineageTest, CompiledEvaluationMatchesEvalBool) {
  int consts = 0, conjunctions = 0, programs = 0, duplicates = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 104729);
    const std::vector<int> endo = RandomPlayers(rng);
    const ProvExprPtr lineage = RandomLineage(rng, endo, rng.Bernoulli(0.3));
    const int n = static_cast<int>(endo.size());
    if (std::set<int>(endo.begin(), endo.end()).size() < endo.size())
      ++duplicates;
    const std::vector<bool> truth = TruthTable(lineage, endo);
    const uint64_t players = truth.size() - 1;

    const CompiledLineage compiled = CompiledLineage::Compile(lineage, endo);
    CompiledLineage::Scratch scratch;
    bool cval = false;
    uint64_t bits = 0;
    const bool is_const = compiled.IsConst(&cval);
    const bool is_conjunction = compiled.IsConjunction(&bits);
    consts += is_const;
    conjunctions += is_conjunction;
    programs += !is_const && !is_conjunction;
    for (uint64_t base = 0; base < truth.size(); base += 64) {
      for (uint64_t high : HighBits(n)) {
        const uint64_t lanes = compiled.Eval64(base | high, &scratch);
        for (uint64_t j = 0; j < 64; ++j) {
          const uint64_t mask = base | high | j;
          const bool want = truth[mask & players];
          ASSERT_EQ(((lanes >> j) & 1) != 0, want) << "mask " << mask;
          ASSERT_EQ(compiled.Eval(mask, &scratch), want) << "mask " << mask;
          if (is_const) {
            ASSERT_EQ(cval, want);
          }
          if (is_conjunction) {
            ASSERT_EQ((bits & ~mask) == 0, want);
          }
        }
      }
    }
  }
  EXPECT_GT(consts, 0);
  EXPECT_GT(conjunctions, 0);
  EXPECT_GT(programs, 0);
  EXPECT_GT(duplicates, 0);
}

TEST(GeneratedLineageTest, SharedScanMatchesGatherThenCanonicalKernels) {
  constexpr bool kCompiled = XAI_TELEMETRY != 0;
  telemetry::Counter* collapsed =
      telemetry::Registry::Global().GetCounter("dbx/shared_scan_collapsed");
  const int64_t collapsed_before = collapsed->Get();
  int64_t repeats = 0;
  int program_rows = 0;
  for (uint64_t seed = 1; seed <= 62; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7907);
    // Odd seeds: every row is a constant or a conjunction, so Eval is the
    // mask-only scan. Even seeds mix in OR programs. Seeds 61 and 62 hold
    // thousands of rows over at most six players, so coalitions keep more
    // than 2 048 rows and the sums cross several block boundaries.
    const bool mixed = seed % 2 == 0;
    const bool long_table = seed > 60;
    const std::vector<int> endo =
        long_table ? RandomPlayers(rng, 1, 6) : RandomPlayers(rng);
    const int n = static_cast<int>(endo.size());
    Relation rows("r", {"v"});
    std::vector<std::vector<bool>> truth;
    const int num_rows =
        long_table ? rng.UniformInt(2049, 2601) : rng.UniformInt(0, 40);
    for (int r = 0; r < num_rows; ++r) {
      // Some repeated small values, some arbitrary ones.
      const double v = rng.Bernoulli(0.2) ? rng.UniformInt(4)
                                          : rng.Uniform(-50.0, 50.0);
      ProvExprPtr lineage =
          RandomLineage(rng, endo, !mixed || rng.Bernoulli(0.5));
      truth.push_back(TruthTable(lineage, endo));
      const CompiledLineage compiled = CompiledLineage::Compile(lineage, endo);
      bool cval = false;
      uint64_t bits = 0;
      const bool program =
          !compiled.IsConst(&cval) && !compiled.IsConjunction(&bits);
      if (!mixed) {
        ASSERT_FALSE(program) << "row " << r;
      }
      program_rows += program;
      ASSERT_TRUE(rows.Append({Value::Double(v)}, std::move(lineage)).ok());
    }
    const uint64_t players = (uint64_t{1} << n) - 1;
    for (AggFn fn : {AggFn::kCount, AggFn::kSum, AggFn::kAvg, AggFn::kMin,
                     AggFn::kMax}) {
      auto scan = SharedScanAggregate::Build(rows, fn, 0, endo).ValueOrDie();
      std::vector<uint64_t> masks;
      std::vector<double> wants;
      for (uint64_t m = 0; m <= players; ++m) {
        std::vector<double> present;
        for (int r = 0; r < num_rows; ++r)
          if (truth[r][m]) present.push_back(rows.tuple(r)[0].AsDouble());
        const int64_t len = static_cast<int64_t>(present.size());
        double want = 0.0;
        switch (fn) {
          case AggFn::kCount:
            want = static_cast<double>(len);
            break;
          case AggFn::kSum:
            want = CanonicalSum(present.data(), len);
            break;
          case AggFn::kAvg:
            want = len ? CanonicalSum(present.data(), len) / len : 0.0;
            break;
          case AggFn::kMin:
            want = CanonicalMin(present.data(), len);
            break;
          case AggFn::kMax:
            want = CanonicalMax(present.data(), len);
            break;
        }
        for (uint64_t high : HighBits(n)) {
          ASSERT_EQ(Bits(scan.Eval(m | high)), Bits(want))
              << "fn " << static_cast<int>(fn) << " mask " << (m | high);
          masks.push_back(m | high);
          wants.push_back(want);
        }
      }
      // The same masks through Values: shuffled, some repeated, in blocks
      // of 1 to 40. A mask and its copies with high bits always share a
      // row-set key, and so do many distinct player masks.
      std::vector<size_t> picks(masks.size());
      std::iota(picks.begin(), picks.end(), size_t{0});
      for (int r = rng.UniformInt(static_cast<int>(masks.size()) / 4 + 1);
           r > 0; --r, ++repeats)
        picks.push_back(rng.UniformInt(static_cast<int>(masks.size())));
      rng.Shuffle(&picks);
      for (size_t first = 0; first < picks.size();) {
        const size_t len = std::min<size_t>(picks.size() - first,
                                            rng.UniformInt(1, 41));
        std::vector<uint64_t> block(len);
        for (size_t j = 0; j < len; ++j) block[j] = masks[picks[first + j]];
        std::vector<double> out(len, 7.0);
        scan.Values(block, out);
        for (size_t j = 0; j < len; ++j) {
          ASSERT_EQ(Bits(out[j]), Bits(wants[picks[first + j]]))
              << "fn " << static_cast<int>(fn) << " mask " << block[j];
        }
        first += len;
      }
    }
  }
  EXPECT_GT(program_rows, 0);
  // Repeats always collapse; distinct masks with one key collapse too.
  if (kCompiled) {
    EXPECT_GT(collapsed->Get() - collapsed_before, repeats);
  }
}

// Responsibility by exhaustive search from EvalBool: per player t, the
// smallest contingency set Gamma (ties: the lexicographically first list
// of player indexes) such that the answer holds with Gamma removed but
// not with Gamma and t removed.
ResponsibilityResult ExhaustiveResponsibility(const ProvExprPtr& lineage,
                                              const std::vector<int>& endo,
                                              int max_size) {
  const int n = static_cast<int>(endo.size());
  const uint64_t players = (uint64_t{1} << n) - 1;
  const std::vector<bool> truth = TruthTable(lineage, endo);
  auto holds = [&](uint64_t removed) { return truth[players & ~removed]; };
  ResponsibilityResult out;
  if (!holds(0)) {
    for (int id : endo) out.responsibility[id] = 0.0;
    return out;
  }
  for (int t = 0; t < n; ++t) {
    const uint64_t t_bit = uint64_t{1} << t;
    bool found = false;
    std::vector<int> best;
    for (uint64_t gamma = 0; gamma <= players; ++gamma) {
      if ((gamma & t_bit) || std::popcount(gamma) > max_size) continue;
      if (!holds(gamma) || holds(gamma | t_bit)) continue;
      std::vector<int> set;
      for (int i = 0; i < n; ++i)
        if ((gamma >> i) & 1) set.push_back(i);
      if (!found || set.size() < best.size() ||
          (set.size() == best.size() && set < best)) {
        best = set;
        found = true;
      }
    }
    std::vector<int> ids;
    for (int i : best) ids.push_back(endo[i]);
    out.responsibility[endo[t]] = found ? 1.0 / (1.0 + best.size()) : 0.0;
    out.contingency[endo[t]] = ids;
  }
  return out;
}

TEST(GeneratedLineageTest, ResponsibilityMatchesExhaustiveSearch) {
  int causes = 0, with_contingency = 0, capped = 0, wide_contingency = 0;
  for (uint64_t seed = 1; seed <= 260; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 31337);
    // Seeds past 200 take 10-14 players and a sum of random products, so
    // many players matter, the search reads swing pairs one to 2^7 words
    // apart, and ties fall between swings that differ only above bit 6.
    const bool wide = seed > 200;
    const std::vector<int> endo =
        wide ? RandomPlayers(rng, 10, 14, 16) : RandomPlayers(rng);
    ProvExprPtr lineage;
    if (wide) {
      std::vector<ProvExprPtr> terms(rng.UniformInt(3, 7));
      for (ProvExprPtr& term : terms) term = RandomLineage(rng, endo, true);
      lineage = ProvExpr::PlusAll(std::move(terms));
    } else {
      lineage = RandomLineage(rng, endo, false);
    }
    const int max_size = rng.UniformInt(0, 8);
    const ResponsibilityResult got =
        TupleResponsibility(lineage, endo, max_size).ValueOrDie();
    const ResponsibilityResult want =
        ExhaustiveResponsibility(lineage, endo, max_size);
    EXPECT_EQ(got.responsibility, want.responsibility);
    EXPECT_EQ(got.contingency, want.contingency);
    for (const auto& [id, r] : want.responsibility) {
      causes += r > 0.0;
      with_contingency += r > 0.0 && r < 1.0;
      wide_contingency += wide && r > 0.0 && r < 1.0;
    }
    capped += max_size < static_cast<int>(endo.size()) - 1;
  }
  EXPECT_GT(causes, 0);
  EXPECT_GT(with_contingency, 0);
  EXPECT_GT(capped, 0);
  EXPECT_GT(wide_contingency, 0);
}

TEST(GeneratedLineageTest, ExactBooleanShapleyMatchesShapleyOfSetFunction) {
  int partial_word = 0, strided = 0, nonzero = 0;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 6151);
    // Player counts cycle through 1-16: below 6 the truth table is one
    // partial word; player i >= 6 pairs words 2^(i-6) apart.
    const int n = 1 + static_cast<int>(seed % 16);
    const std::vector<int> endo = RandomPlayers(rng, n, n, n + 3);
    const ProvExprPtr lineage = RandomLineage(rng, endo, rng.Bernoulli(0.2));
    const std::vector<bool> truth = TruthTable(lineage, endo);
    const std::vector<double> phi = ShapleyOfSetFunction(
        n, [&](uint64_t mask) { return truth[mask] ? 1.0 : 0.0; });
    std::map<int, double> want;
    for (int i = 0; i < n; ++i) want[endo[i]] = phi[i];

    const TupleShapleyResult got =
        BooleanQueryTupleShapley(lineage, endo).ValueOrDie();
    EXPECT_TRUE(got.exact);
    EXPECT_EQ(got.game_evaluations, 1 << n);
    ASSERT_EQ(got.values.size(), want.size());
    for (const auto& [id, value] : want) {
      ASSERT_EQ(Bits(got.values.at(id)), Bits(value)) << "tuple " << id;
      nonzero += value != 0.0;
    }
    partial_word += n < 6;
    strided += n >= 10;
  }
  EXPECT_GT(partial_word, 0);
  EXPECT_GT(strided, 0);
  EXPECT_GT(nonzero, 0);
}

// ---- Star schema: query_shapley's question, shared scan vs rebuild ----

// SELECT SUM(amount) FROM fact JOIN dim USING (k) WHERE f > c AND
// region = g, explained over the group's 12 largest sales and the 4
// stores most of them came from, as the query_shapley workload asks it:
// sampled numeric tuple-Shapley through the shared scan must equal
// rebuilding the sub-instance and re-running the reference pipeline per
// coalition, bit for bit. The answer groups hold 1 100-3 000 rows, so the
// gather runs past kBatchRows and leaves every tail of its 4-row steps.
TEST(StarSchemaShapleyTest, SharedScanMatchesRebuildPerCoalition) {
  constexpr int kDimBase = 1 << 20;
  constexpr int kAmount = 2, kF = 3, kDimK = 4, kRegion = 5;
  std::set<int64_t> tails;
  // Seeds whose answer groups leave tails of 3, 0, 2 and 1 rows.
  for (uint64_t seed : {1, 2, 3, 9}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 92821);
    const int dims = 48, regions = 2;
    Relation fact("fact", {"id", "k", "amount", "f"});
    const int fact_rows = rng.UniformInt(4400, 8000);
    for (int i = 0; i < fact_rows; ++i) {
      ASSERT_TRUE(
          fact.AppendBase({Value::Int(i), Value::Int(rng.UniformInt(dims)),
                           Value::Double(rng.Uniform(1.0, 100.0)),
                           Value::Double(rng.Uniform(-1.0, 1.0))},
                          i)
              .ok());
    }
    Relation dim("dim", {"k", "region", "w"});
    for (int k = 0; k < dims; ++k) {
      ASSERT_TRUE(dim.AppendBase({Value::Int(k), Value::Int(k % regions),
                                  Value::Double(rng.Uniform(0.5, 1.5))},
                                 kDimBase + k)
                      .ok());
    }
    const int g = rng.UniformInt(regions);
    const ExprPtr kept = Expr::And(
        Expr::Gt(Expr::Column(kF),
                 Expr::Const(Value::Double(rng.Uniform(-0.5, 0.0)))),
        Expr::Eq(Expr::Column(kRegion), Expr::Const(Value::Int(g))));

    const Relation rows =
        Select(EquiJoin(Columnar(fact), Columnar(dim), 1, 0).ValueOrDie(),
               kept)
            .ValueOrDie()
            .ToRows();
    ASSERT_GT(rows.num_tuples(), kBatchRows);
    ASSERT_LE(rows.num_tuples(), 3000);
    tails.insert(rows.num_tuples() % 4);

    std::vector<int> order(rows.num_tuples());
    for (int i = 0; i < rows.num_tuples(); ++i) order[i] = i;
    auto amount = [&](int i) { return rows.tuple(i)[kAmount].AsDouble(); };
    auto id = [&](int i) { return rows.tuple(i)[0].AsInt(); };
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return amount(a) != amount(b) ? amount(a) > amount(b) : id(a) < id(b);
    });
    std::vector<int> endo;
    std::map<int64_t, int> store_count;
    for (int i = 0; i < 12; ++i) {
      endo.push_back(static_cast<int>(id(order[i])));
      ++store_count[rows.tuple(order[i])[kDimK].AsInt()];
    }
    std::vector<std::pair<int, int64_t>> stores;  // (-count, store)
    for (const auto& [store, n] : store_count) stores.emplace_back(-n, store);
    std::sort(stores.begin(), stores.end());
    for (int i = 0; i < 4 && i < static_cast<int>(stores.size()); ++i)
      endo.push_back(kDimBase + static_cast<int>(stores[i].second));

    const std::set<int> questioned(endo.begin(), endo.end());
    auto rebuild = [&](const std::vector<int>& present) {
      const std::set<int> in(present.begin(), present.end());
      auto keep = [&](const Relation& base, int first_id) {
        Relation sub(base.name(), base.columns());
        for (int i = 0; i < base.num_tuples(); ++i) {
          const int tuple_id = first_id + i;
          if (!questioned.count(tuple_id) || in.count(tuple_id)) {
            EXPECT_TRUE(sub.Append(base.tuple(i), base.annotation(i)).ok());
          }
        }
        return sub;
      };
      const Relation joined =
          reference::EquiJoin(keep(fact, 0), keep(dim, kDimBase), 1, 0)
              .ValueOrDie();
      const Relation agg =
          reference::GroupByAggregate(
              reference::Select(joined, kept).ValueOrDie(), {}, AggFn::kSum,
              kAmount, "s")
              .ValueOrDie();
      return agg.num_tuples() ? agg.tuple(0)[0].AsDouble() : 0.0;
    };

    TupleShapleyConfig config;
    config.exact_limit = 0;
    config.permutations = 3;
    config.seed = seed;
    auto scan = SharedScanAggregate::Build(rows, AggFn::kSum, kAmount, endo)
                    .ValueOrDie();
    const TupleShapleyResult fast =
        NumericQueryTupleShapley(scan.AsQueryValue(), endo, config)
            .ValueOrDie();
    const TupleShapleyResult slow =
        NumericQueryTupleShapley(rebuild, endo, config).ValueOrDie();
    EXPECT_EQ(fast.game_evaluations, slow.game_evaluations);
    ASSERT_EQ(fast.values.size(), slow.values.size());
    for (const auto& [tuple, value] : slow.values)
      EXPECT_EQ(Bits(fast.values.at(tuple)), Bits(value)) << "tuple " << tuple;
  }
  EXPECT_TRUE(tails.count(1) && tails.count(2) && tails.count(3))
      << "tails seen: " << ::testing::PrintToString(tails);
}

}  // namespace
}  // namespace xai::rel
