#include "xai/relational/expression.h"

namespace xai::rel {

ExprPtr Expr::Column(int index) {
  return ExprPtr(new Expr(Op::kColumn, index, Value::Null(), {}));
}

ExprPtr Expr::Const(Value value) {
  return ExprPtr(new Expr(Op::kConst, -1, std::move(value), {}));
}

ExprPtr Expr::Make(Op op, std::vector<ExprPtr> children) {
  return ExprPtr(new Expr(op, -1, Value::Null(), std::move(children)));
}

ExprPtr Expr::Eq(ExprPtr a, ExprPtr b) { return Make(Op::kEq, {a, b}); }
ExprPtr Expr::Ne(ExprPtr a, ExprPtr b) { return Make(Op::kNe, {a, b}); }
ExprPtr Expr::Lt(ExprPtr a, ExprPtr b) { return Make(Op::kLt, {a, b}); }
ExprPtr Expr::Le(ExprPtr a, ExprPtr b) { return Make(Op::kLe, {a, b}); }
ExprPtr Expr::Gt(ExprPtr a, ExprPtr b) { return Make(Op::kGt, {a, b}); }
ExprPtr Expr::Ge(ExprPtr a, ExprPtr b) { return Make(Op::kGe, {a, b}); }
ExprPtr Expr::And(ExprPtr a, ExprPtr b) { return Make(Op::kAnd, {a, b}); }
ExprPtr Expr::Or(ExprPtr a, ExprPtr b) { return Make(Op::kOr, {a, b}); }
ExprPtr Expr::Not(ExprPtr a) { return Make(Op::kNot, {a}); }
ExprPtr Expr::Add(ExprPtr a, ExprPtr b) { return Make(Op::kAdd, {a, b}); }
ExprPtr Expr::Sub(ExprPtr a, ExprPtr b) { return Make(Op::kSub, {a, b}); }
ExprPtr Expr::Mul(ExprPtr a, ExprPtr b) { return Make(Op::kMul, {a, b}); }

}  // namespace xai::rel
