#ifndef XAI_RELATIONAL_COLUMNAR_OPS_H_
#define XAI_RELATIONAL_COLUMNAR_OPS_H_

#include <string>
#include <vector>

#include "xai/core/status.h"
#include "xai/relational/agg_kernels.h"
#include "xai/relational/columnar.h"
#include "xai/relational/expression.h"

namespace xai::rel {

/// \brief Vectorized relational operators over ColumnarRelation — the
/// library's relational executor, batch-of-kBatchRows at a time.
///
/// The operators work on annotated relations (K-relations). Provenance
/// combines by the standard rules: selection keeps annotations,
/// projection-with-dedup adds them, join multiplies them, union adds them.
///
/// Each operator is observationally identical to the row-at-a-time
/// reference engine the tests keep (tests/support): converting the output
/// with ToRows() yields the same relation name, columns, tuples (values
/// and order), and provenance structure that the reference produces from
/// ToRows() of the inputs. Group-by and distinct keys merge, and join keys
/// match, by one key rule, Value::KeyEquals, in both engines: NULL equals
/// NULL, strings compare by bytes, two INTs exactly, and other numbers as
/// doubles with −0.0 equal to 0.0 and NaN equal to NaN. Aggregates
/// finalize through the canonical kernels in agg_kernels.h, which the
/// reference shares — aggregate values are bit-identical by construction.
///
/// Scans (selection, join probe) are parallelized over kBatchRows-sized
/// row blocks via ParallelFor; per-block results are concatenated in
/// ascending block order, so output order — and every floating-point
/// combine — is independent of the thread count (the repo-wide
/// bit-identity contract).
///
/// Select and EquiJoin materialize late (see ColumnarRelation): their
/// outputs' columns are views through row maps and a join's products are
/// built on first read, so an operator pays only for the columns and the
/// provenance its consumers read. Every operator reads an input view's
/// columns in place (ColumnarRelation::column_ref) and gathers none of
/// them; only Union and ToRows, which keep columns, gather.

/// sigma_predicate(input): compiles the predicate once, evaluates it
/// batch-at-a-time over the predicate's columns, and returns a view of
/// the matching rows.
xai::Result<ColumnarRelation> Select(const ColumnarRelation& input,
                                     const ExprPtr& predicate);

/// pi_columns(input); with `distinct`, tuples equal under the key rule
/// merge and annotations combine with +, first-appearance order.
xai::Result<ColumnarRelation> Project(const ColumnarRelation& input,
                                      const std::vector<int>& columns,
                                      bool distinct);

/// Equi-join on a.col_a == b.col_b; output columns are a's then b's
/// (prefixed with b's name), a-major with b matches in ascending row
/// order. Keys match by the key rule, so NULL keys join NULL keys.
/// Writes one (a-row, b-row) pair array; the columns are views through it
/// and the annotations pending products.
xai::Result<ColumnarRelation> EquiJoin(const ColumnarRelation& a,
                                       const ColumnarRelation& b, int col_a,
                                       int col_b);

/// Bag union; annotations pass through. Fails if a column's storage
/// classes cannot be reconciled (string/number mix).
xai::Result<ColumnarRelation> Union(const ColumnarRelation& a,
                                    const ColumnarRelation& b);

/// Group-by aggregate. Output columns: the group columns followed by one
/// aggregate column (INT for COUNT, DOUBLE otherwise); groups in
/// first-appearance order. Provenance of each group row = sum (+) over the
/// annotations of contributing rows — lineage-accurate, which is what the
/// tuple-Shapley and responsibility analyses of §3 consume. (Aggregate
/// *values* over K-relations need semimodules; out of scope.) The sum/avg
/// inner loops run simd::Dot over the contiguous payload.
xai::Result<ColumnarRelation> GroupByAggregate(
    const ColumnarRelation& input, const std::vector<int>& group_columns,
    AggFn fn, int agg_column, const std::string& agg_name);

}  // namespace xai::rel

#endif  // XAI_RELATIONAL_COLUMNAR_OPS_H_
