#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "support/relational_reference.h"
#include "xai/relational/columnar.h"
#include "xai/relational/columnar_ops.h"
#include "xai/relational/expression.h"
#include "xai/relational/provenance.h"
#include "xai/relational/relation.h"
#include "xai/relational/value.h"

namespace xai::rel {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(7).type(), Value::Type::kInt);
  EXPECT_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Str("hi").AsString(), "hi");
  EXPECT_EQ(Value::Int(7).AsDouble(), 7.0);
  EXPECT_EQ(Value::Double(2.6).AsInt(), 3);  // Rounds.
}

TEST(ValueTest, EqualityAcrossNumericTypes) {
  EXPECT_EQ(Value::Int(2), Value::Double(2.0));
  EXPECT_NE(Value::Int(2), Value::Double(2.5));
  EXPECT_NE(Value::Int(2), Value::Str("2"));
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value::Int(0));
}

TEST(ValueTest, OrderingAndToString) {
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::Str("a"), Value::Str("b"));
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Str("x").ToString(), "x");
}

TEST(ProvenanceTest, SimplificationRules) {
  auto x = ProvExpr::Base(1);
  EXPECT_EQ(ProvExpr::Plus(ProvExpr::Zero(), x).get(), x.get());
  EXPECT_EQ(ProvExpr::Times(ProvExpr::One(), x).get(), x.get());
  EXPECT_EQ(ProvExpr::Times(ProvExpr::Zero(), x)->kind(),
            ProvExpr::Kind::kZero);
}

TEST(ProvenanceTest, BooleanEvaluation) {
  // t1*t2 + t3.
  auto expr = ProvExpr::Plus(
      ProvExpr::Times(ProvExpr::Base(1), ProvExpr::Base(2)),
      ProvExpr::Base(3));
  auto with = [&](std::set<int> present) {
    return expr->EvalBool([&](int id) { return present.count(id) > 0; });
  };
  EXPECT_TRUE(with({1, 2}));
  EXPECT_TRUE(with({3}));
  EXPECT_FALSE(with({1}));
  EXPECT_FALSE(with({}));
}

TEST(ProvenanceTest, CountingSemiring) {
  // (t1 + t2) * t3 with multiplicities 2, 3, 4 = (2+3)*4 = 20.
  auto expr = ProvExpr::Times(
      ProvExpr::Plus(ProvExpr::Base(1), ProvExpr::Base(2)),
      ProvExpr::Base(3));
  std::map<int, int64_t> mult = {{1, 2}, {2, 3}, {3, 4}};
  EXPECT_EQ(expr->EvalCount([&](int id) { return mult[id]; }), 20);
}

TEST(ProvenanceTest, NumericSemiringMaxTimes) {
  // Viterbi-like: plus = max, times = product.
  auto expr = ProvExpr::Plus(
      ProvExpr::Times(ProvExpr::Base(1), ProvExpr::Base(2)),
      ProvExpr::Base(3));
  std::map<int, double> prob = {{1, 0.5}, {2, 0.8}, {3, 0.3}};
  double v = expr->EvalNumeric(
      [&](int id) { return prob[id]; },
      [](double a, double b) { return std::max(a, b); },
      [](double a, double b) { return a * b; }, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(v, 0.4);  // max(0.5*0.8, 0.3).
}

TEST(ProvenanceTest, LineageCollectsAllVariables) {
  auto expr = ProvExpr::Plus(
      ProvExpr::Times(ProvExpr::Base(1), ProvExpr::Base(2)),
      ProvExpr::Base(3));
  EXPECT_EQ(expr->Lineage(), (std::set<int>{1, 2, 3}));
}

TEST(ProvenanceTest, WhyProvenanceMinimalWitnesses) {
  auto expr = ProvExpr::Plus(
      ProvExpr::Times(ProvExpr::Base(1), ProvExpr::Base(2)),
      ProvExpr::Base(3));
  std::set<std::set<int>> why = expr->WhyProvenance();
  EXPECT_EQ(why, (std::set<std::set<int>>{{1, 2}, {3}}));
}

TEST(ProvenanceTest, WhyProvenanceDropsDominatedWitness) {
  // t1 + t1*t2: witness {1,2} is dominated by {1}.
  auto expr = ProvExpr::Plus(
      ProvExpr::Base(1),
      ProvExpr::Times(ProvExpr::Base(1), ProvExpr::Base(2)));
  EXPECT_EQ(expr->WhyProvenance(), (std::set<std::set<int>>{{1}}));
}

TEST(ProvenanceTest, ExactProbabilityIndependentTuples) {
  // P(t1*t2 + t3) with p1=0.5, p2=0.5, p3=0.2:
  // = P(t3) + P(t1 t2) - P(t1 t2 t3) = 0.2 + 0.25 - 0.05 = 0.4.
  auto expr = ProvExpr::Plus(
      ProvExpr::Times(ProvExpr::Base(1), ProvExpr::Base(2)),
      ProvExpr::Base(3));
  auto prob = [](int id) { return id == 3 ? 0.2 : 0.5; };
  EXPECT_NEAR(expr->ProbabilityExact(prob), 0.4, 1e-12);
}

TEST(ProvenanceTest, ProbabilityOfCertainAndImpossible) {
  EXPECT_DOUBLE_EQ(ProvExpr::One()->ProbabilityExact([](int) { return 0.5; }),
                   1.0);
  EXPECT_DOUBLE_EQ(
      ProvExpr::Zero()->ProbabilityExact([](int) { return 0.5; }), 0.0);
  auto base = ProvExpr::Base(7);
  EXPECT_DOUBLE_EQ(base->ProbabilityExact([](int) { return 0.3; }), 0.3);
}

TEST(ProvenanceTest, MonteCarloMatchesExact) {
  auto expr = ProvExpr::Plus(
      ProvExpr::Times(ProvExpr::Base(1), ProvExpr::Base(2)),
      ProvExpr::Times(ProvExpr::Base(2), ProvExpr::Base(3)));
  auto prob = [](int id) { return 0.1 * id + 0.2; };
  double exact = expr->ProbabilityExact(prob);
  double mc = expr->ProbabilityMonteCarlo(prob, 200000, 42);
  EXPECT_NEAR(mc, exact, 0.01);
}

TEST(ProvenanceTest, SharedVariableProbabilityNotNaiveProduct) {
  // t1*t2 + t1*t3 with all p=0.5: correct P = p1 * (1-(1-p2)(1-p3)) =
  // 0.5 * 0.75 = 0.375 (naive independent-monomial math would give
  // 0.25+0.25-0.0625 = 0.4375).
  auto expr = ProvExpr::Plus(
      ProvExpr::Times(ProvExpr::Base(1), ProvExpr::Base(2)),
      ProvExpr::Times(ProvExpr::Base(1), ProvExpr::Base(3)));
  EXPECT_NEAR(expr->ProbabilityExact([](int) { return 0.5; }), 0.375,
              1e-12);
}

TEST(ProvenanceTest, PolynomialRendering) {
  auto expr = ProvExpr::Times(
      ProvExpr::Plus(ProvExpr::Base(1), ProvExpr::Base(2)),
      ProvExpr::Base(3));
  EXPECT_EQ(expr->ToString(), "(t1 + t2)*t3");
}

// A small employee/department database.
struct TestDb {
  Relation employees{"emp", {"name", "dept", "salary"}};
  Relation departments{"dept", {"dname", "budget"}};
  TupleIdAllocator ids;

  TestDb() {
    auto add_emp = [&](const std::string& n, const std::string& d,
                       int64_t s) {
      ASSERT_TRUE(employees
                      .AppendBase({Value::Str(n), Value::Str(d),
                                   Value::Int(s)},
                                  ids.Next())
                      .ok());
    };
    auto add_dept = [&](const std::string& d, int64_t b) {
      ASSERT_TRUE(departments
                      .AppendBase({Value::Str(d), Value::Int(b)},
                                  ids.Next())
                      .ok());
    };
    add_emp("ann", "eng", 120);   // t0
    add_emp("bob", "eng", 100);   // t1
    add_emp("cat", "sales", 90);  // t2
    add_emp("dan", "sales", 80);  // t3
    add_dept("eng", 1000);        // t4
    add_dept("sales", 500);       // t5
  }
};

ColumnarRelation Columnar(const Relation& rows) {
  return ColumnarRelation::FromRows(rows).ValueOrDie();
}

// ---- Golden operator table -----------------------------------------------
//
// One row per operator case over TestDb: the operator, the tuples it must
// produce, and each output tuple's provenance polynomial. Every row runs on
// the columnar engine (the product) and on the row reference, so the
// reference that the generated differential tests trust is pinned too.

enum class Op { kSelect, kProject, kEquiJoin, kUnion, kGroupBy };

struct OperatorRow {
  const char* name = "";
  Op op = Op::kSelect;
  ExprPtr predicate = nullptr;    // kSelect, over emp.
  std::vector<int> columns = {};  // kProject / kGroupBy, over emp.
  bool distinct = false;          // kProject.
  AggFn fn = AggFn::kCount;       // kGroupBy; the output column is "agg".
  int agg_column = -1;            // kGroupBy.
  // kEquiJoin is emp.dept = dept.dname; kUnion is emp UNION dept.
  std::vector<std::string> expected_columns = {};
  std::vector<Tuple> expected_tuples = {};
  std::vector<std::string> expected_provenance = {};
  StatusCode expected_error = StatusCode::kOk;
};

Result<Relation> RunColumnar(const OperatorRow& row, const TestDb& db) {
  const ColumnarRelation emp = Columnar(db.employees);
  const ColumnarRelation dept = Columnar(db.departments);
  Result<ColumnarRelation> out = Status::Internal("unknown operator");
  switch (row.op) {
    case Op::kSelect:
      out = Select(emp, row.predicate);
      break;
    case Op::kProject:
      out = Project(emp, row.columns, row.distinct);
      break;
    case Op::kEquiJoin:
      out = EquiJoin(emp, dept, 1, 0);
      break;
    case Op::kUnion:
      out = Union(emp, dept);
      break;
    case Op::kGroupBy:
      out = GroupByAggregate(emp, row.columns, row.fn, row.agg_column, "agg");
      break;
  }
  if (!out.ok()) return out.status();
  return out.ValueOrDie().ToRows();
}

Result<Relation> RunReference(const OperatorRow& row, const TestDb& db) {
  const Relation& emp = db.employees;
  const Relation& dept = db.departments;
  switch (row.op) {
    case Op::kSelect:
      return reference::Select(emp, row.predicate);
    case Op::kProject:
      return reference::Project(emp, row.columns, row.distinct);
    case Op::kEquiJoin:
      return reference::EquiJoin(emp, dept, 1, 0);
    case Op::kUnion:
      return reference::Union(emp, dept);
    case Op::kGroupBy:
      return reference::GroupByAggregate(emp, row.columns, row.fn,
                                         row.agg_column, "agg");
  }
  return Status::Internal("unknown operator");
}

std::vector<OperatorRow> GoldenRows() {
  auto i = [](int64_t v) { return Value::Int(v); };
  auto d = [](double v) { return Value::Double(v); };
  auto s = [](const char* v) { return Value::Str(v); };
  const std::vector<std::string> group = {"dept", "agg"};
  return {
      {.name = "select keeps qualifying tuples and their annotations",
       .op = Op::kSelect,
       .predicate = Expr::Gt(Expr::Column(2), Expr::Const(Value::Int(95))),
       .expected_columns = {"name", "dept", "salary"},
       .expected_tuples = {{s("ann"), s("eng"), i(120)},
                           {s("bob"), s("eng"), i(100)}},
       .expected_provenance = {"t0", "t1"}},
      {.name = "bag projection keeps duplicates",
       .op = Op::kProject,
       .columns = {1},
       .expected_columns = {"dept"},
       .expected_tuples = {{s("eng")}, {s("eng")}, {s("sales")}, {s("sales")}},
       .expected_provenance = {"t0", "t1", "t2", "t3"}},
      {.name = "distinct projection merges duplicates with +",
       .op = Op::kProject,
       .columns = {1},
       .distinct = true,
       .expected_columns = {"dept"},
       .expected_tuples = {{s("eng")}, {s("sales")}},
       .expected_provenance = {"t0 + t1", "t2 + t3"}},
      {.name = "equi-join pairs matching keys and multiplies annotations",
       .op = Op::kEquiJoin,
       .expected_columns = {"name", "dept", "salary", "dept.dname",
                            "dept.budget"},
       .expected_tuples = {{s("ann"), s("eng"), i(120), s("eng"), i(1000)},
                           {s("bob"), s("eng"), i(100), s("eng"), i(1000)},
                           {s("cat"), s("sales"), i(90), s("sales"), i(500)},
                           {s("dan"), s("sales"), i(80), s("sales"), i(500)}},
       .expected_provenance = {"t0*t4", "t1*t4", "t2*t5", "t3*t5"}},
      {.name = "union of different arities fails",
       .op = Op::kUnion,
       .expected_error = StatusCode::kInvalidArgument},
      {.name = "group-by COUNT is an INT per group, lineage = members",
       .op = Op::kGroupBy,
       .columns = {1},
       .fn = AggFn::kCount,
       .expected_columns = group,
       .expected_tuples = {{s("eng"), i(2)}, {s("sales"), i(2)}},
       .expected_provenance = {"t0 + t1", "t2 + t3"}},
      {.name = "group-by SUM",
       .op = Op::kGroupBy,
       .columns = {1},
       .fn = AggFn::kSum,
       .agg_column = 2,
       .expected_columns = group,
       .expected_tuples = {{s("eng"), d(220)}, {s("sales"), d(170)}},
       .expected_provenance = {"t0 + t1", "t2 + t3"}},
      {.name = "group-by MAX",
       .op = Op::kGroupBy,
       .columns = {1},
       .fn = AggFn::kMax,
       .agg_column = 2,
       .expected_columns = group,
       .expected_tuples = {{s("eng"), d(120)}, {s("sales"), d(90)}},
       .expected_provenance = {"t0 + t1", "t2 + t3"}},
      {.name = "group-by MIN",
       .op = Op::kGroupBy,
       .columns = {1},
       .fn = AggFn::kMin,
       .agg_column = 2,
       .expected_columns = group,
       .expected_tuples = {{s("eng"), d(100)}, {s("sales"), d(80)}},
       .expected_provenance = {"t0 + t1", "t2 + t3"}},
      {.name = "group-by AVG",
       .op = Op::kGroupBy,
       .columns = {1},
       .fn = AggFn::kAvg,
       .agg_column = 2,
       .expected_columns = group,
       .expected_tuples = {{s("eng"), d(110)}, {s("sales"), d(85)}},
       .expected_provenance = {"t0 + t1", "t2 + t3"}},
  };
}

void ExpectGolden(const OperatorRow& row, const Result<Relation>& result) {
  if (row.expected_error != StatusCode::kOk) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), row.expected_error);
    return;
  }
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Relation& out = result.ValueOrDie();
  EXPECT_EQ(out.columns(), row.expected_columns);
  ASSERT_EQ(out.num_tuples(),
            static_cast<int>(row.expected_tuples.size()));
  for (int t = 0; t < out.num_tuples(); ++t) {
    const Tuple& want = row.expected_tuples[t];
    ASSERT_EQ(out.tuple(t).size(), want.size()) << "tuple " << t;
    for (size_t c = 0; c < want.size(); ++c) {
      // Type as well as value: Value== alone merges INT 2 and DOUBLE 2.0.
      EXPECT_EQ(out.tuple(t)[c].type(), want[c].type())
          << "tuple " << t << " column " << c;
      EXPECT_EQ(out.tuple(t)[c], want[c]) << "tuple " << t << " column " << c;
    }
    EXPECT_EQ(out.annotation(t)->ToString(), row.expected_provenance[t])
        << "tuple " << t;
  }
}

TEST(OperatorTableTest, ColumnarEngineMatchesEveryRow) {
  TestDb db;
  for (const OperatorRow& row : GoldenRows()) {
    SCOPED_TRACE(row.name);
    ExpectGolden(row, RunColumnar(row, db));
  }
}

TEST(OperatorTableTest, RowReferenceMatchesEveryRow) {
  TestDb db;
  for (const OperatorRow& row : GoldenRows()) {
    SCOPED_TRACE(row.name);
    ExpectGolden(row, RunReference(row, db));
  }
}

// ---- Key table -----------------------------------------------------------
//
// One row per pair of key cells a and b, under the key rule of DESIGN.md
// §15 (Value::KeyEquals): NULL equals NULL, strings compare by bytes, two
// INTs exactly, other numbers as doubles with -0.0 equal to 0.0 and NaN
// equal to NaN, and a string never equals a number or NULL. `groups` are
// the groups group-by and distinct make of one column holding t0 = a then
// t1 = b, and `pairs` the pairs the equi-join makes of t0 = a against
// t1 = b, each written as its provenance polynomial. Every row runs on
// the columnar engine and on the row reference.

struct KeyRow {
  const char* name = "";
  Value a, b;
  // Empty when no column holds both cells: FromRows rejects a string
  // beside a number, and an INT beyond 2^53 beside a DOUBLE.
  std::vector<std::string> groups = {};
  std::vector<std::string> pairs = {};
};

std::vector<KeyRow> KeyRows() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t p53 = int64_t{1} << 53;
  auto i = [](int64_t v) { return Value::Int(v); };
  auto d = [](double v) { return Value::Double(v); };
  auto s = [](const char* v) { return Value::Str(v); };
  const std::vector<std::string> one = {"t0 + t1"}, two = {"t0", "t1"},
                                 pair = {"t0*t1"}, none = {};
  return {
      {"nextafter neighbours stay apart", d(1.0000001), d(1.0000002), two,
       none},
      {"1e6 and 1000000.4 stay apart", d(1e6), d(1000000.4), two, none},
      {"0.1 + 0.2 is not 0.3", d(0.1 + 0.2), d(0.3), two, none},
      {"NULL is not the string 'NULL'", Value::Null(), s("NULL"), two, none},
      {"0.0 equals -0.0", d(0.0), d(-0.0), one, pair},
      {"NaN equals NaN with the sign bit", d(nan), d(std::copysign(nan, -1.0)),
       one, pair},
      {"NaN equals NaN", d(nan), d(nan), one, pair},
      {"NaN equals NaN with another payload", d(nan),
       d(std::bit_cast<double>(uint64_t{0x7ff8000000000001})), one, pair},
      {"INT 1000000 equals DOUBLE 1e6", i(1000000), d(1e6), one, pair},
      {"INT 1 equals DOUBLE 1.0", i(1), d(1.0), one, pair},
      {"NULL equals NULL", Value::Null(), Value::Null(), one, pair},
      {"INT 2^53 is not INT 2^53 + 1", i(p53), i(p53 + 1), two, none},
      {"INT 2^53 + 1 equals DOUBLE 2^53 as a double", i(p53 + 1),
       d(static_cast<double>(p53)), {}, pair},
      {"the string 'nan' is not NaN", s("nan"), d(nan), {}, none},
      {"the string '1' is not INT 1", s("1"), i(1), {}, none},
  };
}

// What a key row runs: SUM and COUNT group-by and distinct over
// m(k, v) = {t0: (a, 1.0), t1: (b, 2.0)}, and the join of {t0: a} with
// {t1: b}.
struct KeyOutputs {
  Relation sum, count, distinct, join;
};

struct KeyInputs {
  Relation m{"m", {"k", "v"}}, a{"a", {"k"}}, b{"b", {"k"}};

  explicit KeyInputs(const KeyRow& row) {
    if (!row.groups.empty()) {
      EXPECT_TRUE(m.AppendBase({row.a, Value::Double(1.0)}, 0).ok());
      EXPECT_TRUE(m.AppendBase({row.b, Value::Double(2.0)}, 1).ok());
    }
    EXPECT_TRUE(a.AppendBase({row.a}, 0).ok());
    EXPECT_TRUE(b.AppendBase({row.b}, 1).ok());
  }
};

KeyOutputs RunKeyColumnar(const KeyRow& row) {
  const KeyInputs in(row);
  KeyOutputs out;
  if (!row.groups.empty()) {
    const ColumnarRelation m = Columnar(in.m);
    out.sum = GroupByAggregate(m, {0}, AggFn::kSum, 1, "agg")
                  .ValueOrDie()
                  .ToRows();
    out.count = GroupByAggregate(m, {0}, AggFn::kCount, -1, "agg")
                    .ValueOrDie()
                    .ToRows();
    out.distinct = Project(m, {0}, /*distinct=*/true).ValueOrDie().ToRows();
  }
  out.join = EquiJoin(Columnar(in.a), Columnar(in.b), 0, 0)
                 .ValueOrDie()
                 .ToRows();
  return out;
}

KeyOutputs RunKeyReference(const KeyRow& row) {
  const KeyInputs in(row);
  KeyOutputs out;
  if (!row.groups.empty()) {
    out.sum = reference::GroupByAggregate(in.m, {0}, AggFn::kSum, 1, "agg")
                  .ValueOrDie();
    out.count =
        reference::GroupByAggregate(in.m, {0}, AggFn::kCount, -1, "agg")
            .ValueOrDie();
    out.distinct =
        reference::Project(in.m, {0}, /*distinct=*/true).ValueOrDie();
  }
  out.join = reference::EquiJoin(in.a, in.b, 0, 0).ValueOrDie();
  return out;
}

// Same type and, for doubles, the same bits (-0.0 and NaN signs count).
void ExpectSameCell(const Value& got, const Value& want) {
  ASSERT_EQ(got.type(), want.type());
  if (want.type() == Value::Type::kDouble) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.AsDouble()),
              std::bit_cast<uint64_t>(want.AsDouble()));
  } else {
    EXPECT_EQ(got, want);
  }
}

void ExpectKeyRow(const KeyRow& row, const KeyOutputs& out) {
  ASSERT_EQ(out.join.num_tuples(), static_cast<int>(row.pairs.size()));
  if (!row.pairs.empty()) {
    ExpectSameCell(out.join.tuple(0)[0], row.a);
    ExpectSameCell(out.join.tuple(0)[1], row.b);
    EXPECT_EQ(out.join.annotation(0)->ToString(), row.pairs[0]);
  }
  const int ng = static_cast<int>(row.groups.size());
  for (const Relation* r : {&out.sum, &out.count, &out.distinct}) {
    ASSERT_EQ(r->num_tuples(), ng);
    for (int g = 0; g < ng; ++g) {
      SCOPED_TRACE(r->columns().size() == 1 ? "distinct" : "group-by");
      // The group's first row names it.
      ExpectSameCell(r->tuple(g)[0], g == 0 ? row.a : row.b);
      EXPECT_EQ(r->annotation(g)->ToString(), row.groups[g]);
    }
  }
  for (int g = 0; g < ng; ++g) {
    EXPECT_EQ(out.sum.tuple(g)[1].AsDouble(), ng == 1 ? 3.0 : 1.0 + g);
    EXPECT_EQ(out.count.tuple(g)[1].AsInt(), ng == 1 ? 2 : 1);
  }
}

TEST(KeyTableTest, ColumnarEngineMatchesEveryRow) {
  for (const KeyRow& row : KeyRows()) {
    SCOPED_TRACE(row.name);
    ExpectKeyRow(row, RunKeyColumnar(row));
  }
}

TEST(KeyTableTest, RowReferenceMatchesEveryRow) {
  for (const KeyRow& row : KeyRows()) {
    SCOPED_TRACE(row.name);
    ExpectKeyRow(row, RunKeyReference(row));
  }
}

TEST(OperatorsTest, UnionConcatenates) {
  TestDb db;
  const ColumnarRelation emp = Columnar(db.employees);
  auto a = Select(emp, Expr::Eq(Expr::Column(1),
                                Expr::Const(Value::Str("eng"))))
               .ValueOrDie();
  auto b = Select(emp, Expr::Eq(Expr::Column(1),
                                Expr::Const(Value::Str("sales"))))
               .ValueOrDie();
  const Relation u = Union(a, b).ValueOrDie().ToRows();
  ASSERT_EQ(u.num_tuples(), 4);
  for (int t = 0; t < u.num_tuples(); ++t)
    EXPECT_EQ(u.annotation(t)->ToString(), "t" + std::to_string(t));
}

TEST(OperatorsTest, ComposedQueryProvenance) {
  // SELECT dname FROM emp JOIN dept ON emp.dept = dept.dname
  // WHERE salary > 95 — classic SPJ with polynomial provenance.
  TestDb db;
  auto joined = EquiJoin(Columnar(db.employees), Columnar(db.departments), 1,
                         0)
                    .ValueOrDie();
  auto rich = Select(joined, Expr::Gt(Expr::Column(2),
                                      Expr::Const(Value::Int(95))))
                  .ValueOrDie();
  const Relation names =
      Project(rich, {3}, /*distinct=*/true).ValueOrDie().ToRows();
  ASSERT_EQ(names.num_tuples(), 1);
  EXPECT_EQ(names.tuple(0)[0].AsString(), "eng");
  // Provenance: ann*eng_dept + bob*eng_dept = t0*t4 + t1*t4.
  std::set<int> lineage = names.annotation(0)->Lineage();
  EXPECT_EQ(lineage, (std::set<int>{0, 1, 4}));
  std::set<std::set<int>> why = names.annotation(0)->WhyProvenance();
  EXPECT_EQ(why, (std::set<std::set<int>>{{0, 4}, {1, 4}}));
}

TEST(RelationTest, ColumnIndexAndToString) {
  TestDb db;
  EXPECT_EQ(db.employees.ColumnIndex("salary"), 2);
  EXPECT_EQ(db.employees.ColumnIndex("zzz"), -1);
  std::string text = db.employees.ToString(true);
  EXPECT_NE(text.find("ann"), std::string::npos);
  EXPECT_NE(text.find("@ t0"), std::string::npos);
}

TEST(RelationTest, ArityEnforced) {
  Relation r("r", {"a", "b"});
  EXPECT_FALSE(r.Append({Value::Int(1)}, ProvExpr::One()).ok());
}

TEST(OperatorsTest, EquiJoinNullKeysMatchAndDuplicatesFanOut) {
  // NULL == NULL is true under Value equality, so NULL keys *join*;
  // duplicate keys fan out a-major with b rows in ascending order.
  Relation a("a", {"k", "tag"});
  Relation b("b", {"k"});
  TupleIdAllocator ids;
  ASSERT_TRUE(a.AppendBase({Value::Int(1), Value::Str("a0")}, ids.Next()).ok());
  ASSERT_TRUE(
      a.AppendBase({Value::Null(), Value::Str("a1")}, ids.Next()).ok());
  ASSERT_TRUE(a.AppendBase({Value::Int(2), Value::Str("a2")}, ids.Next()).ok());
  ASSERT_TRUE(a.AppendBase({Value::Int(1), Value::Str("a3")}, ids.Next()).ok());
  ASSERT_TRUE(b.AppendBase({Value::Int(1)}, ids.Next()).ok());   // t4
  ASSERT_TRUE(b.AppendBase({Value::Null()}, ids.Next()).ok());   // t5
  ASSERT_TRUE(b.AppendBase({Value::Int(1)}, ids.Next()).ok());   // t6
  const Relation j =
      EquiJoin(Columnar(a), Columnar(b), 0, 0).ValueOrDie().ToRows();
  // a0 x {t4,t6}, a1 x {t5}, a2 x {}, a3 x {t4,t6}.
  ASSERT_EQ(j.num_tuples(), 5);
  EXPECT_EQ(j.tuple(0)[1].AsString(), "a0");
  EXPECT_EQ(j.tuple(1)[1].AsString(), "a0");
  EXPECT_EQ(j.tuple(2)[1].AsString(), "a1");
  EXPECT_TRUE(j.tuple(2)[0].is_null());
  EXPECT_TRUE(j.tuple(2)[2].is_null());
  EXPECT_EQ(j.annotation(2)->Lineage(), (std::set<int>{1, 5}));
  EXPECT_EQ(j.tuple(3)[1].AsString(), "a3");
  EXPECT_EQ(j.annotation(4)->Lineage(), (std::set<int>{3, 6}));
}

TEST(OperatorsTest, GroupByAggregateOnEmptyInput) {
  const ColumnarRelation empty = Columnar(Relation("e", {"g", "v"}));
  for (AggFn fn :
       {AggFn::kCount, AggFn::kSum, AggFn::kAvg, AggFn::kMin, AggFn::kMax}) {
    auto out = GroupByAggregate(empty, {0}, fn, 1, "agg").ValueOrDie();
    EXPECT_EQ(out.num_rows(), 0);
    ASSERT_EQ(out.num_columns(), 2);
    EXPECT_EQ(out.column_names()[1], "agg");
  }
}

TEST(OperatorsTest, AggregatesOverAllNullColumn) {
  // NULL coerces to 0.0 under Value::AsDouble, so aggregates over an
  // all-NULL column see zeros: count still counts rows, avg/min are 0.
  Relation rows("n", {"g", "v"});
  TupleIdAllocator ids;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        rows.AppendBase({Value::Str("g"), Value::Null()}, ids.Next()).ok());
  }
  const ColumnarRelation r = Columnar(rows);
  const Relation cnt =
      GroupByAggregate(r, {0}, AggFn::kCount, -1, "c").ValueOrDie().ToRows();
  ASSERT_EQ(cnt.num_tuples(), 1);
  EXPECT_EQ(cnt.tuple(0)[1].AsInt(), 3);
  const Relation avg =
      GroupByAggregate(r, {0}, AggFn::kAvg, 1, "a").ValueOrDie().ToRows();
  EXPECT_DOUBLE_EQ(avg.tuple(0)[1].AsDouble(), 0.0);
  const Relation mn =
      GroupByAggregate(r, {0}, AggFn::kMin, 1, "m").ValueOrDie().ToRows();
  EXPECT_DOUBLE_EQ(mn.tuple(0)[1].AsDouble(), 0.0);
}

TEST(OperatorsTest, ProjectDistinctAddsAnnotationsAcrossRenderings) {
  // INT 2 and DOUBLE 2.0 are one key under the key rule (they compare as
  // doubles), so distinct merges them and their provenance combines with
  // +; the merged tuple keeps the first appearance's value.
  Relation r("m", {"x"});
  TupleIdAllocator ids;
  ASSERT_TRUE(r.AppendBase({Value::Int(2)}, ids.Next()).ok());
  ASSERT_TRUE(r.AppendBase({Value::Double(2.0)}, ids.Next()).ok());
  ASSERT_TRUE(r.AppendBase({Value::Int(3)}, ids.Next()).ok());
  const Relation d =
      Project(Columnar(r), {0}, /*distinct=*/true).ValueOrDie().ToRows();
  ASSERT_EQ(d.num_tuples(), 2);
  EXPECT_EQ(d.tuple(0)[0].type(), Value::Type::kInt);
  EXPECT_EQ(d.annotation(0)->kind(), ProvExpr::Kind::kPlus);
  EXPECT_EQ(d.annotation(0)->EvalCount([](int) { return 1; }), 2);
  EXPECT_EQ(d.annotation(0)->Lineage(), (std::set<int>{0, 1}));
  EXPECT_EQ(d.annotation(1)->kind(), ProvExpr::Kind::kBase);
}

TEST(ExpressionTest, ArithmeticAndLogic) {
  // Expressions evaluate inside the columnar Select: a predicate holds for
  // the one tuple (10, 3) iff the selection keeps it.
  Relation one("t", {"a", "b"});
  ASSERT_TRUE(one.AppendBase({Value::Int(10), Value::Int(3)}, 0).ok());
  const ColumnarRelation t = Columnar(one);
  auto holds = [&](const ExprPtr& predicate) {
    return Select(t, predicate).ValueOrDie().num_rows() == 1;
  };
  auto sum = Expr::Add(Expr::Column(0), Expr::Column(1));
  EXPECT_TRUE(holds(Expr::Eq(sum, Expr::Const(Value::Double(13.0)))));
  EXPECT_FALSE(holds(Expr::Eq(sum, Expr::Const(Value::Double(12.0)))));
  auto logic = Expr::And(
      Expr::Ge(Expr::Column(0), Expr::Const(Value::Int(10))),
      Expr::Not(Expr::Eq(Expr::Column(1), Expr::Const(Value::Int(4)))));
  EXPECT_TRUE(holds(logic));
  EXPECT_FALSE(holds(Expr::Not(logic)));
  auto mul = Expr::Mul(Expr::Sub(Expr::Column(0), Expr::Column(1)),
                       Expr::Const(Value::Double(2.0)));
  EXPECT_TRUE(holds(Expr::Eq(mul, Expr::Const(Value::Double(14.0)))));
}

}  // namespace
}  // namespace xai::rel
