#ifndef XAI_RELATIONAL_AGG_KERNELS_H_
#define XAI_RELATIONAL_AGG_KERNELS_H_

#include <cstdint>

namespace xai::rel {

/// Aggregation function of GroupByAggregate and the dbx shared scan.
enum class AggFn { kCount, kSum, kAvg, kMin, kMax };

/// \brief Canonical aggregation kernels shared by the columnar
/// GroupByAggregate, the dbx shared-scan Shapley fast path and the row
/// reference engine the tests check them against.
///
/// Each buffers a group's contributing values in row order and finalizes
/// through these functions, so their aggregate values are bit-identical by
/// construction — there is exactly one summation order in the codebase,
/// not one per engine.
///
/// CanonicalSum reduces kBatchRows-sized blocks with simd::Dot against a
/// ones vector (multiplying by 1.0 is exact, so the fixed striped
/// accumulator of the SIMD determinism contract applies unchanged) and
/// folds the per-block partials in ascending block order. Min/max fold
/// sequentially in row order with std::min/std::max encounter semantics
/// (NaN behavior included).

double CanonicalSum(const double* v, int64_t n);

/// n == 0 returns 0.0 (an empty group's value).
double CanonicalMin(const double* v, int64_t n);
double CanonicalMax(const double* v, int64_t n);

}  // namespace xai::rel

#endif  // XAI_RELATIONAL_AGG_KERNELS_H_
