#ifndef XAI_EXPLAIN_PERTURBATION_H_
#define XAI_EXPLAIN_PERTURBATION_H_

#include <vector>

#include "xai/core/matrix.h"
#include "xai/core/rng.h"
#include "xai/data/dataset.h"
#include "xai/data/transform.h"

namespace xai {

/// \brief Local neighborhood sampler for perturbation-based explainers
/// (LIME, Anchors, and the adversarial-attack experiment).
///
/// Two strategies, matching the two classic LIME-tabular modes:
///  - kGaussian: numeric features are jittered around the instance with the
///    training standard deviation; categoricals are resampled from their
///    empirical training distribution.
///  - kDiscretized: each feature's bin is resampled from the training bin
///    distribution and a raw value is drawn inside the bin (LIME's default
///    discretize_continuous mode).
class Perturber {
 public:
  enum class Strategy { kGaussian, kDiscretized };

  /// Learns feature statistics (stddevs, category/bin frequencies) from the
  /// training data.
  Perturber(const Dataset& train, Strategy strategy, int discretizer_bins = 4);

  /// Draws `n` perturbed raw feature vectors around `instance`. Features
  /// whose index appears in `frozen` keep their instance value (used by
  /// Anchors to condition on a rule).
  Matrix Sample(const Vector& instance, int n, Rng* rng,
                const std::vector<int>& frozen = {}) const;

  /// Sample's draws written to `out`, n rows of num-features doubles each,
  /// row-major. Consumes the stream exactly as Sample does.
  void SampleInto(const Vector& instance, int n, Rng* rng, double* out,
                  const std::vector<int>& frozen = {}) const;

  /// Binary interpretable representation of a perturbed sample relative to
  /// the instance: z_j = 1 iff sample j "matches" the instance (same bin for
  /// numerics under kDiscretized, same category / within-1-sigma for the
  /// other cases).
  std::vector<int> Interpretable(const Vector& instance,
                                 const Vector& sample) const;

  /// Weighted Euclidean distance in standardized feature space.
  double Distance(const Vector& a, const Vector& b) const;
  /// The same distance over the first n features of two raw rows.
  double Distance(const double* a, const double* b, size_t n) const;

  const QuantileDiscretizer& discretizer() const { return discretizer_; }
  Strategy strategy() const { return strategy_; }
  const Vector& means() const { return means_; }
  const Vector& stddevs() const { return stddevs_; }

 private:
  Strategy strategy_;
  Schema schema_;
  Vector means_;
  Vector stddevs_;
  /// Empirical category frequencies per categorical feature.
  std::vector<std::vector<double>> category_freq_;
  /// Empirical bin frequencies per feature (kDiscretized).
  std::vector<std::vector<double>> bin_freq_;
  QuantileDiscretizer discretizer_;
};

}  // namespace xai

#endif  // XAI_EXPLAIN_PERTURBATION_H_
