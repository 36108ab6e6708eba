#ifndef XAI_EXPLAIN_SHAPLEY_SAMPLING_SHAPLEY_H_
#define XAI_EXPLAIN_SHAPLEY_SAMPLING_SHAPLEY_H_

#include "xai/core/matrix.h"
#include "xai/core/rng.h"
#include "xai/explain/shapley/value_function.h"

namespace xai {

/// \brief Result of Monte-Carlo Shapley estimation.
struct SamplingShapleyResult {
  Vector values;
  /// Per-player standard error of the mean marginal contribution.
  Vector std_errors;
  int permutations_used = 0;
};

/// Permutation-sampling Shapley estimator (Castro et al. style): draws
/// random permutations, walks each one accumulating marginal contributions.
/// Unbiased; error shrinks as 1/sqrt(permutations).
///
/// Permutations are evaluated in parallel (core/parallel.h): each one draws
/// from its own RNG stream derived from a single draw off `rng` via
/// SplitSeed, and partial sums are combined in fixed chunk order, so the
/// result is bit-identical for any thread count.
SamplingShapleyResult SamplingShapley(const CoalitionGame& game,
                                      int permutations, Rng* rng);

/// \name Serving budget hooks (see serve/degradation.h)
/// @{
/// Deterministic planning cost: each permutation walks num_features
/// coalition steps, each charged `background_rows` model calls (memoization
/// makes the real cost lower; planning uses the bound).
int64_t SamplingShapleyPlannedEvals(int permutations, int num_features,
                                    int background_rows);
/// @}

}  // namespace xai

#endif  // XAI_EXPLAIN_SHAPLEY_SAMPLING_SHAPLEY_H_
