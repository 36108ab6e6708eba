#ifndef XAI_TESTS_SUPPORT_RELATIONAL_REFERENCE_H_
#define XAI_TESTS_SUPPORT_RELATIONAL_REFERENCE_H_

#include <string>
#include <vector>

#include "xai/core/status.h"
#include "xai/relational/agg_kernels.h"
#include "xai/relational/expression.h"
#include "xai/relational/relation.h"

/// \file
/// The row-at-a-time relational engine, kept as the test reference for the
/// columnar operators (xai/relational/columnar_ops.h). It is not part of
/// the library: tests and benches link it to check that the product
/// engine's outputs are exactly what this tuple interpreter produces.
namespace xai::rel::reference {

/// \brief Relational-algebra operators over annotated relations
/// (K-relations). Provenance combines by the standard rules: selection
/// keeps annotations, projection-with-dedup adds them, join multiplies
/// them, union adds them.

/// Evaluates `expr` against a tuple. Boolean results are INT 0/1.
Value Eval(const Expr& expr, const Tuple& tuple);
/// Eval() interpreted as a boolean: present and numerically non-zero.
bool EvalBool(const Expr& expr, const Tuple& tuple);

/// The rows of `input` each group of distinct projection and group-by
/// over `columns` merges, groups in first-appearance order: rows are in
/// one group when every key cell is equal under the key rule,
/// Value::KeyEquals (DESIGN.md §15).
std::vector<std::vector<int>> GroupRows(const Relation& input,
                                        const std::vector<int>& columns);

/// sigma_predicate(input).
xai::Result<Relation> Select(const Relation& input, const ExprPtr& predicate);

/// pi_columns(input). With `distinct`, output tuples equal under the key
/// rule merge and their annotations combine with +.
xai::Result<Relation> Project(const Relation& input,
                              const std::vector<int>& columns, bool distinct);

/// Equi-join on input_a.col_a == input_b.col_b under the key rule; output
/// columns are a's columns followed by b's (join column kept on both
/// sides).
xai::Result<Relation> EquiJoin(const Relation& a, const Relation& b,
                               int col_a, int col_b);

/// Bag union (arities must match); annotations pass through.
xai::Result<Relation> Union(const Relation& a, const Relation& b);

/// Group-by aggregate. Output columns: the group columns followed by one
/// aggregate column. Provenance of each group row = sum (+) over the
/// annotations of contributing rows.
xai::Result<Relation> GroupByAggregate(const Relation& input,
                                       const std::vector<int>& group_columns,
                                       AggFn fn, int agg_column,
                                       const std::string& agg_name);

}  // namespace xai::rel::reference

#endif  // XAI_TESTS_SUPPORT_RELATIONAL_REFERENCE_H_
