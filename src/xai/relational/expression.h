#ifndef XAI_RELATIONAL_EXPRESSION_H_
#define XAI_RELATIONAL_EXPRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "xai/relational/value.h"

namespace xai::rel {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// \brief Scalar expression over a tuple: column references, constants,
/// comparisons, boolean connectives, arithmetic. Used as selection
/// predicates; the columnar Select compiles the tree once
/// (CompiledPredicate, compiled_expr.h) and evaluates it a batch at a time.
class Expr {
 public:
  enum class Op {
    kColumn,
    kConst,
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kAnd,
    kOr,
    kNot,
    kAdd,
    kSub,
    kMul,
  };

  static ExprPtr Column(int index);
  static ExprPtr Const(Value value);
  static ExprPtr Eq(ExprPtr a, ExprPtr b);
  static ExprPtr Ne(ExprPtr a, ExprPtr b);
  static ExprPtr Lt(ExprPtr a, ExprPtr b);
  static ExprPtr Le(ExprPtr a, ExprPtr b);
  static ExprPtr Gt(ExprPtr a, ExprPtr b);
  static ExprPtr Ge(ExprPtr a, ExprPtr b);
  static ExprPtr And(ExprPtr a, ExprPtr b);
  static ExprPtr Or(ExprPtr a, ExprPtr b);
  static ExprPtr Not(ExprPtr a);
  static ExprPtr Add(ExprPtr a, ExprPtr b);
  static ExprPtr Sub(ExprPtr a, ExprPtr b);
  static ExprPtr Mul(ExprPtr a, ExprPtr b);

  /// \name Tree introspection (the columnar compiler walks the tree once to
  /// resolve column indices and value classes per node).
  /// @{
  Op op() const { return op_; }
  int column_index() const { return column_; }
  const Value& constant() const { return constant_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  /// @}

 private:
  Expr(Op op, int column, Value constant, std::vector<ExprPtr> children)
      : op_(op),
        column_(column),
        constant_(std::move(constant)),
        children_(std::move(children)) {}

  static ExprPtr Make(Op op, std::vector<ExprPtr> children);

  Op op_;
  int column_;
  Value constant_;
  std::vector<ExprPtr> children_;
};

}  // namespace xai::rel

#endif  // XAI_RELATIONAL_EXPRESSION_H_
