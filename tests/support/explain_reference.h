#ifndef XAI_TESTS_SUPPORT_EXPLAIN_REFERENCE_H_
#define XAI_TESTS_SUPPORT_EXPLAIN_REFERENCE_H_

#include <cstdint>

#include "xai/core/matrix.h"
#include "xai/core/status.h"
#include "xai/explain/explanation.h"
#include "xai/model/tree.h"
#include "xai/model/tree_ensemble_view.h"

/// \file
/// Second implementations kept as test references for the explainers'
/// product kernels: the recursive TreeSHAP walk the flat kernel
/// (xai/explain/shapley/flat_tree_shap.h) must match bit for bit, and the
/// materialized constrained weighted least squares the streaming
/// CwlsAccumulator (xai/core/linalg.h) must match bit for bit. They are
/// not part of the library: tests and benches link them to check the
/// product code against an independent walk or solve.
namespace xai::reference {

/// Expected output of a tree: the cover-weighted mean of its leaves.
double TreeExpectedValue(const Tree& tree);

/// The game TreeSHAP computes Shapley values of:
///   v(S) = E[tree(x) | x_S] under path-proportion conditioning —
/// splits on features in S are followed; splits on other features average
/// both children weighted by cover. Used to cross-check TreeSHAP against
/// brute-force exact Shapley values.
double TreeConditionalExpectation(const Tree& tree, const Vector& x,
                                  uint64_t known_mask);

/// Exact per-feature Shapley values of one tree at `x` (polynomial
/// algorithm, recursive walk over the AoS nodes). The returned vector has
/// one entry per feature and sums to tree(x) - TreeExpectedValue(tree).
Vector TreeShapValues(const Tree& tree, const Vector& x, int num_features);

/// The recursive AoS walk TreeShap is validated against: same contract as
/// xai::TreeShap and bitwise-identical output, at any thread count.
AttributionExplanation TreeShapLegacy(const TreeEnsembleView& view,
                                      const Vector& x);

/// Solves the equality-constrained weighted least squares
///   min_w sum_i s_i (x_i . w - y_i)^2   s.t.  c . w = d
/// via variable elimination over the materialized design — the reference
/// the streaming CwlsAccumulator matches bit for bit on the default tiers.
Result<Vector> ConstrainedWeightedLeastSquares(const Matrix& x,
                                               const Vector& y,
                                               const Vector& sample_weights,
                                               const Vector& c, double d,
                                               double l2 = 1e-9);

}  // namespace xai::reference

#endif  // XAI_TESTS_SUPPORT_EXPLAIN_REFERENCE_H_
