#ifndef XAI_EXPLAIN_SHAPLEY_TREE_SHAP_H_
#define XAI_EXPLAIN_SHAPLEY_TREE_SHAP_H_

#include "xai/core/matrix.h"
#include "xai/explain/explanation.h"
#include "xai/model/tree_ensemble_view.h"

namespace xai {

/// \brief TreeSHAP (Lundberg et al. 2020, §2.1.2): exact Shapley values of
/// the tree-path-conditional game in O(L D^2) per tree instead of O(2^d)
/// model evaluations — "exploits properties of the tree structure for faster
/// and efficient computation". The recursive walk this kernel is checked
/// against lives in the test reference (tests/support/explain_reference.h).

/// TreeSHAP over an additive tree ensemble view: attributions sum over
/// trees (scaled); base value = view.base + sum of scaled tree expectations;
/// prediction = view.Margin(x). Runs on the flat iterative kernel
/// (explain/shapley/flat_tree_shap.h). Every tree in the view must be
/// non-empty (views over zero trees are fine; FlatEnsemble::Build CHECKs),
/// and `x` must be at least as wide as the widest split feature + 1
/// (CHECKed; serving admission rejects narrower rows first).
AttributionExplanation TreeShap(const TreeEnsembleView& view, const Vector& x);

/// TreeSHAP for every row of a matrix in one call.
struct TreeShapBatchResult {
  /// Row i holds the attributions of x row i (rows x features); each row is
  /// bit-identical to TreeShap(view, x.Row(i)).attributions at any thread
  /// count.
  Matrix attributions;
  /// view.Margin per row (via the flat batch kernel).
  Vector predictions;
  /// Shared base value: view.base + sum of scaled tree expectations.
  double base_value = 0.0;
};

/// Batched TreeSHAP over the flat kernel, blocked rows-by-trees and
/// parallelized over row tiles — the throughput path behind
/// GlobalShapImportance and batch serving.
TreeShapBatchResult TreeShapBatch(const TreeEnsembleView& view,
                                  const Matrix& x);

}  // namespace xai

#endif  // XAI_EXPLAIN_SHAPLEY_TREE_SHAP_H_
