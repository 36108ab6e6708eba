#include "xai/serve/request.h"

#include "xai/model/serialization.h"

namespace xai {
namespace serve {
namespace {

uint64_t HashDouble(double v, uint64_t h) {
  return ContentHash64(&v, sizeof(v), h);
}

uint64_t HashInt(int64_t v, uint64_t h) {
  return ContentHash64(&v, sizeof(v), h);
}

uint64_t HashString(const std::string& s, uint64_t h) {
  h = HashInt(static_cast<int64_t>(s.size()), h);
  return ContentHash64(s, h);
}

uint64_t HashVector(const Vector& v, uint64_t h) {
  h = HashInt(static_cast<int64_t>(v.size()), h);
  return ContentHash64(v, h);
}

}  // namespace

const char* ExplainerKindName(ExplainerKind kind) {
  switch (kind) {
    case ExplainerKind::kTreeShap:
      return "tree_shap";
    case ExplainerKind::kKernelShap:
      return "kernel_shap";
    case ExplainerKind::kSamplingShapley:
      return "sampling_shapley";
    case ExplainerKind::kExactShapley:
      return "exact_shapley";
    case ExplainerKind::kLime:
      return "lime";
    case ExplainerKind::kAnchors:
      return "anchors";
    case ExplainerKind::kCounterfactual:
      return "counterfactual";
  }
  return "unknown";
}

const char* FidelityTierName(FidelityTier tier) {
  switch (tier) {
    case FidelityTier::kExact:
      return "exact";
    case FidelityTier::kHigh:
      return "high";
    case FidelityTier::kStandard:
      return "standard";
    case FidelityTier::kReduced:
      return "reduced";
    case FidelityTier::kMinimal:
      return "minimal";
  }
  return "unknown";
}

const std::string& TenantOf(const std::string& tenant) {
  static const std::string kDefault = "default";
  return tenant.empty() ? kDefault : tenant;
}

uint64_t PayloadHash(const ExplainResponse& r) {
  uint64_t h = kContentHashSeed;
  h = HashInt(static_cast<int64_t>(r.kind), h);
  h = HashInt(static_cast<int64_t>(r.served_tier), h);
  h = HashInt(r.degraded ? 1 : 0, h);
  h = HashInt(static_cast<int64_t>(r.model_fingerprint), h);
  h = HashInt(r.planned_evals, h);

  h = HashVector(r.attribution.attributions, h);
  h = HashDouble(r.attribution.base_value, h);
  h = HashDouble(r.attribution.prediction, h);

  h = HashInt(static_cast<int64_t>(r.anchor.features.size()), h);
  for (int f : r.anchor.features) h = HashInt(f, h);
  h = HashDouble(r.anchor.precision, h);
  h = HashDouble(r.anchor.precision_lb, h);
  h = HashDouble(r.anchor.coverage, h);
  h = HashInt(r.anchor.samples_used, h);
  for (const std::string& s : r.anchor.description) h = HashString(s, h);

  h = HashInt(static_cast<int64_t>(r.counterfactuals.size()), h);
  for (const Counterfactual& cf : r.counterfactuals) {
    h = HashVector(cf.x, h);
    h = HashDouble(cf.prediction, h);
    h = HashInt(cf.valid ? 1 : 0, h);
    h = HashDouble(cf.proximity, h);
    h = HashInt(cf.sparsity, h);
    h = HashDouble(cf.plausibility_distance, h);
  }
  return h;
}

size_t ApproxResponseBytes(const ExplainResponse& r) {
  size_t bytes = sizeof(ExplainResponse);
  bytes += r.provenance.tenant.size() + r.provenance.model.size();
  bytes += r.attribution.attributions.size() * sizeof(double);
  for (const std::string& s : r.attribution.feature_names)
    bytes += sizeof(std::string) + s.size();
  bytes += r.anchor.features.size() * sizeof(int);
  for (const std::string& s : r.anchor.description)
    bytes += sizeof(std::string) + s.size();
  for (const Counterfactual& cf : r.counterfactuals)
    bytes += sizeof(Counterfactual) + cf.x.size() * sizeof(double);
  return bytes;
}

}  // namespace serve
}  // namespace xai
