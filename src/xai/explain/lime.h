#ifndef XAI_EXPLAIN_LIME_H_
#define XAI_EXPLAIN_LIME_H_

#include <vector>

#include "xai/core/status.h"
#include "xai/data/dataset.h"
#include "xai/explain/explanation.h"
#include "xai/explain/perturbation.h"
#include "xai/model/model.h"

namespace xai {

/// \brief Configuration of the LIME explainer.
struct LimeConfig {
  /// Number of perturbed samples in the local neighborhood.
  int num_samples = 1000;
  /// Number of features in the explanation; -1 = all (plain ridge fit).
  /// When positive, features are chosen by weighted forward selection, as in
  /// the reference implementation. Forward selection refits candidate
  /// subsets, so it keeps the whole (num_samples + 1) x d design in memory;
  /// the plain fit streams the design through a WlsAccumulator in row
  /// blocks and never holds it.
  int top_k = -1;
  /// Exponential kernel width; <= 0 means the LIME default 0.75 * sqrt(d).
  double kernel_width = -1.0;
  /// Ridge penalty of the surrogate.
  double ridge = 1.0;
  /// Neighborhood sampling strategy.
  Perturber::Strategy strategy = Perturber::Strategy::kDiscretized;
  int discretizer_bins = 4;
};

/// \brief LIME explanation: surrogate coefficients plus fit diagnostics.
struct LimeExplanation : AttributionExplanation {
  /// Weighted R^2 of the surrogate on the neighborhood — LIME's own
  /// faithfulness score. The plain fit computes it from the accumulated
  /// moments, exact up to summation order.
  double local_r2 = 0.0;
  /// Surrogate intercept.
  double intercept = 0.0;
};

/// \brief LIME (Ribeiro et al. 2016, §2.1.1): approximates the black box
/// around one instance with a weighted ridge surrogate over an interpretable
/// representation, and reads the surrogate's coefficients as the
/// explanation.
class LimeExplainer {
 public:
  /// `train` provides the feature statistics for perturbation; it is not
  /// used for model fitting.
  LimeExplainer(const Dataset& train, const LimeConfig& config = {});

  /// Explains `f` at `instance`. Deterministic for a fixed `seed`. Each
  /// block goes through AsBatchPredictFn(f): one `f` call per row, fanned
  /// out over the runtime; `f` must be const-reentrant.
  Result<LimeExplanation> Explain(const PredictFn& f, const Vector& instance,
                                  uint64_t seed) const;

  /// Explains `model` at `instance` with one PredictBatch call per block of
  /// neighborhood rows (serving's entry point). Bit-identical to
  /// Explain(AsPredictFn(model), ...): every model's batch prediction
  /// equals its row prediction, and the pipeline is the same.
  Result<LimeExplanation> Explain(const Model& model, const Vector& instance,
                                  uint64_t seed) const;

  const Perturber& perturber() const { return perturber_; }

 private:
  /// The block pipeline behind both entry points: `f` scores one block of
  /// raw neighborhood rows.
  Result<LimeExplanation> ExplainBlocks(const BatchPredictFn& f,
                                        const Vector& instance,
                                        uint64_t seed) const;

  LimeConfig config_;
  Schema schema_;
  Perturber perturber_;
};

/// \brief Stability diagnostics across repeated LIME runs (Visani et al.,
/// the "unreliable sampling" critique in §2.1.1).
struct LimeStability {
  /// Mean over features of the stddev of the coefficient across runs.
  double coefficient_stddev = 0.0;
  /// Mean pairwise Jaccard similarity of the top-k feature sets (VSI-like;
  /// 1 = always the same variables).
  double jaccard_top_k = 0.0;
  /// Mean local R^2 across runs.
  double mean_r2 = 0.0;
};

/// Runs LIME `runs` times with different seeds and reports stability.
Result<LimeStability> EvaluateLimeStability(const LimeExplainer& explainer,
                                            const PredictFn& f,
                                            const Vector& instance, int runs,
                                            int top_k, uint64_t seed);

/// \name Serving budget hooks (see serve/degradation.h)
/// @{
/// Deterministic planning cost: one model call per neighborhood sample.
int64_t LimePlannedEvals(const LimeConfig& config);

/// Shrinks `config.num_samples` to fit `max_evals` (floor 50 — below that
/// the ridge fit is too noisy to be worth serving).
LimeConfig LimeForBudget(LimeConfig config, int64_t max_evals);
/// @}

}  // namespace xai

#endif  // XAI_EXPLAIN_LIME_H_
