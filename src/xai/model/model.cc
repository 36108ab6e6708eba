#include "xai/model/model.h"

#include <memory>

#include "xai/core/parallel.h"
#include "xai/core/telemetry.h"
#include "xai/core/trace.h"
#include "xai/model/decision_tree.h"
#include "xai/model/flat_ensemble.h"
#include "xai/model/gbdt.h"
#include "xai/model/random_forest.h"

namespace xai {

Vector Model::PredictBatch(const Matrix& x) const {
  XAI_SPAN_IF(x.rows() >= kPredictSpanMinRows, "model/predict_batch");
  XAI_COUNTER_ADD("model/evals", x.rows());
  Vector out(x.rows());
  // Each output slot is written by exactly one chunk; Predict is
  // const-reentrant per the Model threading contract.
  ParallelFor(x.rows(), /*grain=*/256,
              [&](int64_t begin, int64_t end, int64_t) {
                for (int64_t i = begin; i < end; ++i)
                  out[i] = Predict(x.Row(static_cast<int>(i)));
              });
  return out;
}

int Model::PredictClass(const Vector& row) const {
  return Predict(row) >= 0.5 ? 1 : 0;
}

std::shared_ptr<const FlatEnsemble> FlatEnsembleOf(const Model& model) {
  if (const auto* rf = dynamic_cast<const RandomForestModel*>(&model))
    return rf->shared_flat();
  if (const auto* gbdt = dynamic_cast<const GbdtModel*>(&model))
    return gbdt->shared_flat();
  if (const auto* tree = dynamic_cast<const DecisionTreeModel*>(&model))
    return tree->shared_flat();
  return nullptr;
}

PredictFn AsPredictFn(const Model& model) {
  // Tree-based models get a zero-virtual fast path: the closure owns a
  // shared_ptr snapshot of the compiled SoA kernel and steps it directly,
  // skipping the virtual Predict call and the pointer-chasing AoS traversal
  // on every perturbation an explainer throws at the black box. Each kernel
  // is bit-identical to the model's own Predict.
  if (std::shared_ptr<const FlatEnsemble> flat = FlatEnsembleOf(model))
    return [flat](const Vector& row) { return flat->PredictRow(row); };
  return [&model](const Vector& row) { return model.Predict(row); };
}

BatchPredictFn AsBatchPredictFn(const Model& model) {
  return [&model](const Matrix& x) { return model.PredictBatch(x); };
}

}  // namespace xai
