#ifndef XAI_SERVE_REQUEST_H_
#define XAI_SERVE_REQUEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "xai/core/matrix.h"
#include "xai/core/trace.h"
#include "xai/explain/counterfactual/counterfactual.h"
#include "xai/explain/explanation.h"
#include "xai/rules/anchors.h"
#include "xai/serve/provenance.h"

namespace xai {
namespace serve {

/// \brief Which explainer a request asks for (§2 of the tutorial, served as
/// an online API instead of a library call).
enum class ExplainerKind {
  kTreeShap,          ///< Exact tree-structure Shapley values (tree models).
  kKernelShap,        ///< Weighted-regression SHAP over sampled coalitions.
  kSamplingShapley,   ///< Permutation-sampling Monte-Carlo Shapley.
  kExactShapley,      ///< Full 2^d enumeration (degradable to the above).
  kLime,              ///< Local ridge surrogate.
  kAnchors,           ///< High-precision rule anchoring the prediction.
  kCounterfactual,    ///< DiCE-style diverse counterfactuals.
};

const char* ExplainerKindName(ExplainerKind kind);

/// \brief Fidelity rung on the degradation ladder, best first. What a tier
/// means per explainer family is defined by serve::DegradationPolicy (e.g.
/// for the Shapley family: exact enumeration, KernelSHAP at a large budget,
/// KernelSHAP at a small budget, permutation sampling, coarse sampling).
enum class FidelityTier {
  kExact = 0,
  kHigh = 1,
  kStandard = 2,
  kReduced = 3,
  kMinimal = 4,
};

const char* FidelityTierName(FidelityTier tier);

/// \brief One explanation request against a registered model snapshot.
struct ExplainRequest {
  /// Registry name of the model snapshot to explain.
  std::string model;
  /// The instance to explain (feature vector in the model's schema).
  Vector instance;
  ExplainerKind kind = ExplainerKind::kKernelShap;
  /// Requested fidelity; the server may serve a lower tier under deadline
  /// pressure (never a higher one).
  FidelityTier fidelity = FidelityTier::kHigh;
  /// Latency budget in milliseconds; <= 0 means "no deadline" (the
  /// requested tier is always served). Degradation decisions are priced
  /// against this budget with a deterministic cost model — they depend on
  /// the request alone, never on wall-clock state, so responses are
  /// reproducible (see serve/degradation.h).
  double deadline_ms = 0.0;
  /// Master seed of every stochastic explainer involved.
  uint64_t seed = 17;
  /// When false a request that cannot fund its tier fails instead of
  /// being downgraded.
  bool allow_degradation = true;
  /// Opt-out for the explanation cache (always miss, never store).
  bool use_cache = true;
  /// Counterfactual requests only: the class to reach.
  int desired_class = 1;
  /// Tenant this request bills against in the SLO tracker; empty maps to
  /// "default" (see TenantOf). Part of the cache key: a tenant only ever
  /// reads cached answers it produced itself.
  std::string tenant;
  /// Request-scoped trace identity. trace_id == 0 (the default) lets the
  /// server assign one from its deterministic ContentHash64-seeded stream;
  /// a caller propagating an upstream trace sets it explicitly.
  telemetry::TraceContext trace;
};

/// \brief The served explanation plus serving metadata. Exactly one payload
/// field is populated, per `kind`.
struct ExplainResponse {
  ExplainerKind kind = ExplainerKind::kKernelShap;
  /// Payload of attribution-shaped kinds (all Shapley variants and LIME).
  AttributionExplanation attribution;
  /// Payload of kAnchors.
  AnchorRule anchor;
  /// Payload of kCounterfactual.
  std::vector<Counterfactual> counterfactuals;

  /// Fidelity rung actually served; `degraded` iff below the request.
  FidelityTier served_tier = FidelityTier::kHigh;
  bool degraded = false;
  bool cache_hit = false;
  /// Fingerprint of the model snapshot that produced the payload.
  uint64_t model_fingerprint = 0;
  /// The deterministic cost the tier decision was priced at.
  int64_t planned_evals = 0;

  /// Wall-clock serving metadata — informational only, deliberately
  /// excluded from PayloadHash() and from cached entries' identity.
  double latency_ms = 0.0;
  bool deadline_met = true;

  /// Per-request audit record (see serve/provenance.h). Like the latency
  /// fields, excluded from PayloadHash(): provenance describes *how* the
  /// answer was produced, and must not perturb the bit-identical payload
  /// contract across cache hits, coalescing, or thread counts.
  ExplanationProvenance provenance;
};

/// The tenant a request bills against: `tenant`, or "default" when it is
/// empty. The one normalization the cache key, the SLO cells and the
/// admission cells share, so unlabeled traffic lands in one cell of each.
const std::string& TenantOf(const std::string& tenant);
/// The result may be `tenant` itself, so a temporary would dangle.
const std::string& TenantOf(std::string&& tenant) = delete;

/// Stable 64-bit digest of a response's deterministic content (payload,
/// kind, tier, fingerprint — not latency or cache flags). Two responses to
/// the same request must digest identically at any thread count;
/// serve_server_test's ResponsesAreBitIdenticalAcrossThreadCounts asserts
/// exactly that.
uint64_t PayloadHash(const ExplainResponse& response);

/// Approximate heap footprint of a response, used for the cache's byte
/// budget accounting.
size_t ApproxResponseBytes(const ExplainResponse& response);

}  // namespace serve
}  // namespace xai

#endif  // XAI_SERVE_REQUEST_H_
