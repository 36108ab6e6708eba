#include "support/relational_reference.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "xai/core/check.h"

namespace xai::rel::reference {
namespace {

// The hash bucket of a key cell: NULL, a string's bytes, or a number's
// DoubleKeyWord. Cells the key rule calls equal share a bucket, and
// Value::KeyEquals decides within it (two INTs of magnitude >= 2^53 that
// round to one double share one).
std::string Bucket(const Value& v) {
  switch (v.type()) {
    case Value::Type::kNull:
      return "N";
    case Value::Type::kString:
      return "S" + v.AsString();
    default: {
      const uint64_t word = DoubleKeyWord(v.AsDouble());
      return "D" + std::string(reinterpret_cast<const char*>(&word),
                               sizeof(word));
    }
  }
}

}  // namespace

std::vector<std::vector<int>> GroupRows(const Relation& input,
                                        const std::vector<int>& columns) {
  std::map<std::vector<std::string>, std::vector<int>> buckets;
  std::vector<std::vector<int>> groups;
  std::vector<std::string> key;
  for (int i = 0; i < input.num_tuples(); ++i) {
    const Tuple& t = input.tuple(i);
    key.clear();
    for (int c : columns) key.push_back(Bucket(t[c]));
    std::vector<int>& candidates = buckets[key];
    auto same = [&](int g) {
      const Tuple& first = input.tuple(groups[g][0]);
      return std::all_of(columns.begin(), columns.end(),
                         [&](int c) { return t[c].KeyEquals(first[c]); });
    };
    auto it = std::find_if(candidates.begin(), candidates.end(), same);
    if (it == candidates.end()) {
      candidates.push_back(static_cast<int>(groups.size()));
      groups.emplace_back();
      it = candidates.end() - 1;
    }
    groups[*it].push_back(i);
  }
  return groups;
}

Value Eval(const Expr& expr, const Tuple& tuple) {
  auto boolean = [](bool b) { return Value::Int(b ? 1 : 0); };
  const std::vector<ExprPtr>& children = expr.children();
  switch (expr.op()) {
    case Expr::Op::kColumn:
      XAI_CHECK(expr.column_index() >= 0 &&
                expr.column_index() < static_cast<int>(tuple.size()));
      return tuple[expr.column_index()];
    case Expr::Op::kConst:
      return expr.constant();
    case Expr::Op::kEq:
      return boolean(Eval(*children[0], tuple) == Eval(*children[1], tuple));
    case Expr::Op::kNe:
      return boolean(Eval(*children[0], tuple) != Eval(*children[1], tuple));
    case Expr::Op::kLt:
      return boolean(Eval(*children[0], tuple) < Eval(*children[1], tuple));
    case Expr::Op::kLe: {
      Value a = Eval(*children[0], tuple), b = Eval(*children[1], tuple);
      return boolean(a < b || a == b);
    }
    case Expr::Op::kGt: {
      Value a = Eval(*children[0], tuple), b = Eval(*children[1], tuple);
      return boolean(!(a < b) && !(a == b));
    }
    case Expr::Op::kGe: {
      Value a = Eval(*children[0], tuple), b = Eval(*children[1], tuple);
      return boolean(!(a < b));
    }
    case Expr::Op::kAnd:
      return boolean(EvalBool(*children[0], tuple) &&
                     EvalBool(*children[1], tuple));
    case Expr::Op::kOr:
      return boolean(EvalBool(*children[0], tuple) ||
                     EvalBool(*children[1], tuple));
    case Expr::Op::kNot:
      return boolean(!EvalBool(*children[0], tuple));
    case Expr::Op::kAdd:
      return Value::Double(Eval(*children[0], tuple).AsDouble() +
                           Eval(*children[1], tuple).AsDouble());
    case Expr::Op::kSub:
      return Value::Double(Eval(*children[0], tuple).AsDouble() -
                           Eval(*children[1], tuple).AsDouble());
    case Expr::Op::kMul:
      return Value::Double(Eval(*children[0], tuple).AsDouble() *
                           Eval(*children[1], tuple).AsDouble());
  }
  return Value::Null();
}

bool EvalBool(const Expr& expr, const Tuple& tuple) {
  Value v = Eval(expr, tuple);
  return !v.is_null() && v.AsDouble() != 0.0;
}

xai::Result<Relation> Select(const Relation& input, const ExprPtr& predicate) {
  Relation out("select(" + input.name() + ")", input.columns());
  out.Reserve(input.num_tuples());
  for (int i = 0; i < input.num_tuples(); ++i) {
    if (EvalBool(*predicate, input.tuple(i))) {
      XAI_RETURN_NOT_OK(out.Append(input.tuple(i), input.annotation(i)));
    }
  }
  return out;
}

xai::Result<Relation> Project(const Relation& input,
                              const std::vector<int>& columns,
                              bool distinct) {
  std::vector<std::string> names;
  for (int c : columns) {
    if (c < 0 || c >= input.num_columns())
      return xai::Status::OutOfRange("projection column out of range");
    names.push_back(input.columns()[c]);
  }
  Relation out("project(" + input.name() + ")", names);
  if (!distinct) {
    out.Reserve(input.num_tuples());
    for (int i = 0; i < input.num_tuples(); ++i) {
      Tuple t;
      t.reserve(columns.size());
      for (int c : columns) t.push_back(input.tuple(i)[c]);
      XAI_RETURN_NOT_OK(out.Append(std::move(t), input.annotation(i)));
    }
    return out;
  }
  // Distinct: merge tuples equal under the key rule; annotations combine
  // into one n-ary PlusAll node, so huge duplicate groups cannot create
  // deep chains.
  const std::vector<std::vector<int>> groups = GroupRows(input, columns);
  out.Reserve(static_cast<int64_t>(groups.size()));
  for (const std::vector<int>& rows : groups) {
    Tuple t;
    t.reserve(columns.size());
    for (int c : columns) t.push_back(input.tuple(rows[0])[c]);
    std::vector<ProvExprPtr> terms;
    terms.reserve(rows.size());
    for (int r : rows) terms.push_back(input.annotation(r));
    XAI_RETURN_NOT_OK(
        out.Append(std::move(t), ProvExpr::PlusAll(std::move(terms))));
  }
  return out;
}

xai::Result<Relation> EquiJoin(const Relation& a, const Relation& b,
                               int col_a, int col_b) {
  if (col_a < 0 || col_a >= a.num_columns() || col_b < 0 ||
      col_b >= b.num_columns())
    return xai::Status::OutOfRange("join column out of range");
  std::vector<std::string> names = a.columns();
  for (const std::string& c : b.columns()) names.push_back(b.name() + "." + c);
  Relation out("join(" + a.name() + "," + b.name() + ")", names);

  // Hash join on the key's bucket, keeping the pairs the key rule calls
  // equal; per-bucket match lists hold b-rows in ascending order.
  std::unordered_map<std::string, std::vector<int>> index;
  index.reserve(b.num_tuples());
  for (int j = 0; j < b.num_tuples(); ++j)
    index[Bucket(b.tuple(j)[col_b])].push_back(j);
  const size_t out_width = a.num_columns() + b.num_columns();
  for (int i = 0; i < a.num_tuples(); ++i) {
    const Value& key_a = a.tuple(i)[col_a];
    auto it = index.find(Bucket(key_a));
    if (it == index.end()) continue;
    for (int j : it->second) {
      if (!key_a.KeyEquals(b.tuple(j)[col_b])) continue;
      Tuple t;
      t.reserve(out_width);
      t.insert(t.end(), a.tuple(i).begin(), a.tuple(i).end());
      t.insert(t.end(), b.tuple(j).begin(), b.tuple(j).end());
      XAI_RETURN_NOT_OK(out.Append(
          std::move(t),
          ProvExpr::Times(a.annotation(i), b.annotation(j))));
    }
  }
  return out;
}

xai::Result<Relation> Union(const Relation& a, const Relation& b) {
  if (a.num_columns() != b.num_columns())
    return xai::Status::InvalidArgument("union arity mismatch");
  Relation out("union(" + a.name() + "," + b.name() + ")", a.columns());
  for (int i = 0; i < a.num_tuples(); ++i)
    XAI_RETURN_NOT_OK(out.Append(a.tuple(i), a.annotation(i)));
  for (int i = 0; i < b.num_tuples(); ++i)
    XAI_RETURN_NOT_OK(out.Append(b.tuple(i), b.annotation(i)));
  return out;
}

xai::Result<Relation> GroupByAggregate(const Relation& input,
                                       const std::vector<int>& group_columns,
                                       AggFn fn, int agg_column,
                                       const std::string& agg_name) {
  if (fn != AggFn::kCount &&
      (agg_column < 0 || agg_column >= input.num_columns()))
    return xai::Status::OutOfRange("aggregate column out of range");
  std::vector<std::string> names;
  for (int c : group_columns) {
    if (c < 0 || c >= input.num_columns())
      return xai::Status::OutOfRange("group column out of range");
    names.push_back(input.columns()[c]);
  }
  names.push_back(agg_name);
  Relation out("agg(" + input.name() + ")", names);

  // Each group buffers its contributing values in row order and finalizes
  // through the canonical kernels in agg_kernels.h — the same kernels the
  // columnar engine calls — so the two paths' aggregate values are
  // bit-identical by construction.
  const std::vector<std::vector<int>> groups = GroupRows(input, group_columns);
  out.Reserve(static_cast<int64_t>(groups.size()));
  std::vector<double> values;
  for (const std::vector<int>& rows : groups) {
    values.clear();
    std::vector<ProvExprPtr> terms;
    terms.reserve(rows.size());
    for (int r : rows) {
      values.push_back(fn == AggFn::kCount
                           ? 1.0
                           : input.tuple(r)[agg_column].AsDouble());
      terms.push_back(input.annotation(r));
    }
    const int64_t count = static_cast<int64_t>(values.size());
    double value = 0.0;
    switch (fn) {
      case AggFn::kCount:
        value = static_cast<double>(count);
        break;
      case AggFn::kSum:
        value = CanonicalSum(values.data(), count);
        break;
      case AggFn::kAvg:
        value = count ? CanonicalSum(values.data(), count) / count : 0.0;
        break;
      case AggFn::kMin:
        value = CanonicalMin(values.data(), count);
        break;
      case AggFn::kMax:
        value = CanonicalMax(values.data(), count);
        break;
    }
    Tuple t;
    t.reserve(group_columns.size() + 1);
    for (int c : group_columns) t.push_back(input.tuple(rows[0])[c]);
    t.push_back(fn == AggFn::kCount ? Value::Int(count)
                                    : Value::Double(value));
    XAI_RETURN_NOT_OK(
        out.Append(std::move(t), ProvExpr::PlusAll(std::move(terms))));
  }
  return out;
}

}  // namespace xai::rel::reference
