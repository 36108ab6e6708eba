#ifndef XAI_EXPLAIN_SHAPLEY_KERNEL_SHAP_H_
#define XAI_EXPLAIN_SHAPLEY_KERNEL_SHAP_H_

#include "xai/core/rng.h"
#include "xai/core/status.h"
#include "xai/explain/explanation.h"
#include "xai/explain/shapley/value_function.h"

namespace xai {

/// \brief Configuration of Kernel SHAP.
struct KernelShapConfig {
  /// Coalition evaluation budget. When 2^d - 2 <= budget all coalitions are
  /// enumerated and the result is exact; otherwise coalitions are sampled in
  /// paired complements, filling subset sizes from the extremes inward
  /// (largest kernel weight first), as in the reference implementation.
  int coalition_budget = 2048;
  /// Ridge added to the weighted least squares for numerical stability.
  double ridge = 1e-9;
  /// Rescale sampled coalitions' frequencies to the kernel mass of their
  /// sizes (the reference implementation's behavior). Disabling this is an
  /// ablation: sampled middle sizes then dwarf the enumerated tails and the
  /// estimator becomes visibly biased (see bench_a01).
  bool normalize_sampled_mass = true;
};

/// \brief Kernel SHAP (Lundberg & Lee 2017, §2.1.2): estimates Shapley
/// values as the solution of a weighted linear regression over coalitions
/// with the Shapley kernel pi(S) = (d-1) / (C(d,|S|) |S| (d-|S|)), subject
/// to the efficiency constraint sum(phi) = v(N) - v(0).
Result<AttributionExplanation> KernelShap(const CoalitionGame& game,
                                          const KernelShapConfig& config,
                                          Rng* rng);

/// \name Serving budget hooks (see serve/degradation.h)
/// @{
/// Deterministic planning cost of a KernelSHAP run against a marginal game:
/// distinct coalitions evaluated (budget capped by full enumeration, plus
/// the two anchors v(0) and v(N)) times `background_rows` model calls each.
int64_t KernelShapPlannedEvals(const KernelShapConfig& config,
                               int num_features, int background_rows);
/// @}

}  // namespace xai

#endif  // XAI_EXPLAIN_SHAPLEY_KERNEL_SHAP_H_
