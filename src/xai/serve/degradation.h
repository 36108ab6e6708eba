#ifndef XAI_SERVE_DEGRADATION_H_
#define XAI_SERVE_DEGRADATION_H_

#include <cstdint>

#include "xai/explain/counterfactual/dice.h"
#include "xai/explain/lime.h"
#include "xai/explain/shapley/kernel_shap.h"
#include "xai/rules/anchors.h"
#include "xai/serve/request.h"

namespace xai {
namespace serve {

/// \brief Deterministic price list turning a latency budget into an
/// affordable model-evaluation budget.
///
/// Degradation decisions must be reproducible — the same request has to
/// produce the bit-identical response on an idle box and an overloaded one,
/// at any thread count — so tiers are priced against this static model
/// rather than against measured wall-clock state. Calibrate `evals_per_ms`
/// per deployment (perfbench's serve_miss `explain.evals.kernel_shap` over
/// `explain.direct_ms.kernel_shap` is the measured rate); keep it
/// conservative so that "fits the budget" on paper means "meets the
/// deadline" on the machine.
struct CostModel {
  /// Model evaluations fundable per millisecond of deadline.
  double evals_per_ms = 300.0;
  /// Fixed per-request cost (queueing, dispatch, regression solve).
  double overhead_ms = 2.0;
  /// TreeSHAP node visits the flat kernel retires per millisecond.
  /// Conservative against the flat kernel's measured rate (tens of
  /// thousands per ms) for the same reason evals_per_ms is: "fits on
  /// paper" must mean "meets the deadline" on the machine.
  double tree_shap_nodes_per_ms = 5000.0;

  /// The evaluation budget a deadline funds (0 when the overhead alone
  /// exceeds it).
  int64_t EvalBudget(double deadline_ms) const;

  /// Prices a TreeSHAP request (one pass over every node of the ensemble)
  /// in model-evaluation equivalents, so the single eval-denominated budget
  /// can gate it honestly: equivalents = nodes / tree_shap_nodes_per_ms *
  /// evals_per_ms, rounded up. Previously TreeSHAP was priced at 0 — free
  /// on paper, a deadline miss on a large ensemble.
  int64_t TreeShapEvalEquivalents(int64_t tree_nodes) const;
};

/// \brief What one rung of the ladder resolves to for a given request:
/// possibly a *different explainer* (exact Shapley degrades through
/// KernelSHAP into permutation sampling) plus the concrete budget knobs.
struct TierPlan {
  FidelityTier tier = FidelityTier::kHigh;
  /// The algorithm actually run (shapley family tiers switch kinds).
  ExplainerKind algorithm = ExplainerKind::kKernelShap;
  /// Planned model-evaluation cost of this rung (the explainers' own
  /// *PlannedEvals budget hooks).
  int64_t planned_evals = 0;
  /// Knobs for the algorithm selected above; only the matching one is
  /// meaningful.
  KernelShapConfig kernel_config;
  int sampling_permutations = 0;
  LimeConfig lime_config;
  AnchorsConfig anchors_config;
  DiceConfig dice_config;
};

/// \brief The degradation ladder: maps (request, model shape) to the
/// fidelity rung that fits the deadline.
///
/// Ladder per family (best -> cheapest):
///   shapley:        exact 2^d | kernel 2048 | kernel 512 | sampling 32
///                   | sampling 8    (coalitions/permutations x background)
///   lime:           samples 4000 | 2000 | 1000 | 400 | 100
///   anchors:        per-candidate budget 6000 | 3000 | 1500 | 600 | 300
///   counterfactual: restarts 400 | 200 | 100 | 50 | 25
///   tree_shap:      always kExact — the tree algorithm is already
///                   milliseconds-cheap and has no fidelity knob.
///
/// Everything here is pure arithmetic on the request: no clocks, no queue
/// state, no thread counts.
class DegradationPolicy {
 public:
  explicit DegradationPolicy(const CostModel& cost_model = {});

  /// The plan for a specific rung (independent of any deadline). Useful for
  /// tests and for replaying a served tier offline. `tree_nodes` (total
  /// nodes of the served ensemble) only matters for kTreeShap, where it
  /// prices the single exact rung in eval-equivalents.
  TierPlan PlanForTier(ExplainerKind kind, FidelityTier tier,
                       int num_features, int background_rows,
                       int64_t tree_nodes = 0) const;

  /// Walks the ladder from the requested tier down to the cheapest rung
  /// whose planned cost fits the deadline's evaluation budget. Returns the
  /// first affordable rung, or the cheapest rung if none is (the server
  /// then reports deadline risk rather than refusing). `deadline_ms <= 0`
  /// means no deadline: the requested tier is returned unchanged.
  /// kTreeShap has no cheaper rung, but its (now honest, node-count-based)
  /// planned_evals still feed the caller's deadline-risk accounting.
  TierPlan Choose(ExplainerKind kind, FidelityTier requested,
                  int num_features, int background_rows,
                  double deadline_ms, int64_t tree_nodes = 0) const;

  const CostModel& cost_model() const { return cost_model_; }

 private:
  CostModel cost_model_;
};

}  // namespace serve
}  // namespace xai

#endif  // XAI_SERVE_DEGRADATION_H_
