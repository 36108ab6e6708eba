#include "xai/explain/shapley/tree_shap.h"

#include "xai/core/trace.h"
#include "xai/explain/shapley/flat_tree_shap.h"

namespace xai {

AttributionExplanation TreeShap(const TreeEnsembleView& view,
                                const Vector& x) {
  XAI_SPAN("tree_shap/explain");
  return FlatTreeShap::Build(view).Shap(x);
}

TreeShapBatchResult TreeShapBatch(const TreeEnsembleView& view,
                                  const Matrix& x) {
  XAI_SPAN("tree_shap/explain_batch");
  TreeShapBatchResult result;
  FlatTreeShap kernel = FlatTreeShap::Build(view);
  result.attributions = kernel.ShapBatch(x);
  result.predictions = view.MarginBatch(x);
  result.base_value = kernel.base_value();
  return result;
}

}  // namespace xai
