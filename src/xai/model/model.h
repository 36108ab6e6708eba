#ifndef XAI_MODEL_MODEL_H_
#define XAI_MODEL_MODEL_H_

#include <functional>
#include <memory>
#include <string>

#include "xai/core/matrix.h"
#include "xai/data/dataset.h"

namespace xai {

/// Row threshold below which the batch-predict paths skip their trace
/// span (XAI_SPAN_IF): explainer coalition sweeps call PredictBatch
/// hundreds of times per request with background-sized batches, and a
/// span per ~1 us call would dominate both the tracing overhead budget
/// and the per-thread trace buffers. Batch-scale calls (the inference
/// benches, LIME neighborhoods) stay spanned; counters and model/evals
/// record regardless of batch size.
inline constexpr int64_t kPredictSpanMinRows = 1024;

/// \brief Base interface of all predictive models in libxai.
///
/// The unified output convention keeps explainers model-agnostic:
///  - regression models: Predict() returns the predicted value;
///  - binary classifiers: Predict() returns P(y = 1);
///  - multiclass classifiers additionally override PredictClass().
///
/// Threading contract
/// ------------------
/// Explainers fan black-box evaluations out over the parallel runtime
/// (core/parallel.h) and capture models by reference across worker
/// threads. Every Model implementation therefore must keep `Predict` /
/// `PredictClass` / `PredictBatch` const AND reentrant: concurrent calls
/// on the same instance may not mutate shared state (no unsynchronized
/// caches, counters, or scratch buffers behind `mutable`). Training and
/// other non-const mutation must finish before the model is handed to an
/// explainer. Implementations that memoize internally must guard the
/// cache with a mutex (see shapley/value_function.cc for the pattern).
class Model {
 public:
  virtual ~Model() = default;

  /// Task this model was trained for.
  virtual TaskType task() const = 0;
  /// Short human-readable name ("logistic_regression", "gbdt", ...).
  virtual std::string name() const = 0;

  /// Predicted value (regression) or P(y=1) (binary classification).
  /// Must be safe to call concurrently (see the threading contract).
  virtual double Predict(const Vector& row) const = 0;

  /// Batch prediction. The default parallelizes row-at-a-time Predict
  /// calls over the runtime; models with cheaper vectorized paths
  /// (trees, ensembles, linear models) override it.
  virtual Vector PredictBatch(const Matrix& x) const;

  /// Hard class decision; the default thresholds Predict() at 0.5.
  virtual int PredictClass(const Vector& row) const;
};

/// \brief Black-box view of a model: explainers that are model-agnostic
/// accept only this function type and can never peek inside.
using PredictFn = std::function<double(const Vector&)>;

/// \brief Batched black-box view: one call scores a whole perturbation
/// matrix. Coalition games prefer this over per-row PredictFn calls — it
/// amortizes the std::function + virtual dispatch to one indirection per
/// background sweep and lets tree models run their compiled SoA kernel
/// (model/flat_ensemble.h) over the batch.
using BatchPredictFn = std::function<Vector(const Matrix&)>;

class FlatEnsemble;

/// The compiled flat kernel (model/flat_ensemble.h) of a decision tree,
/// random forest or GBDT; nullptr for any other model. The shared_ptr
/// snapshot keeps the kernel alive independent of later model mutation.
std::shared_ptr<const FlatEnsemble> FlatEnsembleOf(const Model& model);

/// Adapts a model to the black-box view. The model must outlive the result.
/// Tree-based models (see FlatEnsembleOf) return a zero-virtual closure over
/// their compiled flat kernel.
PredictFn AsPredictFn(const Model& model);

/// Adapts a model to the batched view via its PredictBatch override (which
/// also owns the model/evals accounting). The model must outlive the result.
BatchPredictFn AsBatchPredictFn(const Model& model);

}  // namespace xai

#endif  // XAI_MODEL_MODEL_H_
