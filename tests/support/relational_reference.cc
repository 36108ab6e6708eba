#include "support/relational_reference.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "xai/core/check.h"

namespace xai::rel::reference {

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
  // Distinct: merge equal tuples; annotations combine into one n-ary
  // PlusAll node, so huge duplicate groups cannot create deep chains.
  using Merged = std::pair<Tuple, std::vector<ProvExprPtr>>;
  std::map<std::vector<std::string>, Merged> merged;
  std::vector<Merged*> order;  // Map nodes are stable; no finalize re-lookup.
  std::vector<std::string> key;
  for (int i = 0; i < input.num_tuples(); ++i) {
    key.clear();
    for (int c : columns) key.push_back(input.tuple(i)[c].ToString());
    auto [it, inserted] = merged.try_emplace(key);
    if (inserted) {
      Tuple t;
      t.reserve(columns.size());
      for (int c : columns) t.push_back(input.tuple(i)[c]);
      it->second.first = std::move(t);
      order.push_back(&it->second);
    }
    it->second.second.push_back(input.annotation(i));
  }
  out.Reserve(static_cast<int64_t>(order.size()));
  for (Merged* m : order) {
    XAI_RETURN_NOT_OK(
        out.Append(m->first, ProvExpr::PlusAll(std::move(m->second))));
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

  // Hash join on the rendered key; per-key match lists hold b-rows in
  // ascending order (the insertion order the old multimap preserved).
  std::unordered_map<std::string, std::vector<int>> index;
  index.reserve(b.num_tuples());
  for (int j = 0; j < b.num_tuples(); ++j)
    index[b.tuple(j)[col_b].ToString()].push_back(j);
  const size_t out_width = a.num_columns() + b.num_columns();
  for (int i = 0; i < a.num_tuples(); ++i) {
    const Value& key_a = a.tuple(i)[col_a];
    auto it = index.find(key_a.ToString());
    if (it == index.end()) continue;
    for (int j : it->second) {
      if (!(key_a == b.tuple(j)[col_b])) continue;
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
  struct Group {
    Tuple key;
    std::vector<double> values;
    std::vector<ProvExprPtr> annotations;
  };
  std::map<std::vector<std::string>, Group> groups;
  std::vector<Group*> order;  // Map nodes are stable; no finalize re-lookup.
  std::vector<std::string> key_str;
  for (int i = 0; i < input.num_tuples(); ++i) {
    key_str.clear();
    for (int c : group_columns)
      key_str.push_back(input.tuple(i)[c].ToString());
    auto [it, inserted] = groups.try_emplace(key_str);
    if (inserted) {
      Tuple key;
      key.reserve(group_columns.size());
      for (int c : group_columns) key.push_back(input.tuple(i)[c]);
      it->second.key = std::move(key);
      order.push_back(&it->second);
    }
    Group& g = it->second;
    g.values.push_back(
        fn == AggFn::kCount ? 1.0 : input.tuple(i)[agg_column].AsDouble());
    g.annotations.push_back(input.annotation(i));
  }
  out.Reserve(static_cast<int64_t>(order.size()));
  for (Group* g : order) {
    const int64_t count = static_cast<int64_t>(g->values.size());
    double value = 0.0;
    switch (fn) {
      case AggFn::kCount:
        value = static_cast<double>(count);
        break;
      case AggFn::kSum:
        value = CanonicalSum(g->values.data(), count);
        break;
      case AggFn::kAvg:
        value = count ? CanonicalSum(g->values.data(), count) / count : 0.0;
        break;
      case AggFn::kMin:
        value = CanonicalMin(g->values.data(), count);
        break;
      case AggFn::kMax:
        value = CanonicalMax(g->values.data(), count);
        break;
    }
    Tuple t = std::move(g->key);
    t.push_back(fn == AggFn::kCount ? Value::Int(count)
                                    : Value::Double(value));
    XAI_RETURN_NOT_OK(out.Append(std::move(t),
                                 rel::ProvExpr::PlusAll(
                                     std::move(g->annotations))));
  }
  return out;
}

}  // namespace xai::rel::reference
