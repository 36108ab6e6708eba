// Quickstart: train a gradient-boosted model on credit data and explain one
// of its predictions with TreeSHAP, LIME and an Anchors-style view of the
// features (see README.md).
//
//   ./quickstart [--telemetry]
//
// With --telemetry it also writes quickstart.trace.json (Chrome trace) and
// quickstart.provenance.jsonl (one provenance record per served request)
// into the current directory, for tools/analyze_trace.py.

#include <cstdio>
#include <fstream>

#include "xai/core/telemetry.h"

#include "xai/data/synthetic.h"
#include "xai/explain/global_importance.h"
#include "xai/explain/lime.h"
#include "xai/explain/shapley/tree_shap.h"
#include "xai/model/gbdt.h"
#include "xai/model/metrics.h"
#include "xai/model/serialization.h"
#include "xai/serve/explain_server.h"
#include "xai/serve/provenance.h"

int main(int argc, char** argv) {
  const bool show_telemetry = xai::telemetry::TelemetryFlag(argc, argv);

  using namespace xai;

  // 1. Data: a synthetic credit-lending dataset (schema mirrors the
  //    tutorial's running example; see MakeLoans docs for the mechanism).
  Dataset data = MakeLoans(2000, /*seed=*/42);
  auto [train, test] = data.TrainTestSplit(0.25, /*seed=*/1);

  // 2. Model: a 100-tree GBDT.
  GbdtModel::Config config;
  config.n_trees = 100;
  GbdtModel model = GbdtModel::Train(train, config).ValueOrDie();
  std::printf("model: %s, test accuracy %.3f, test AUC %.3f\n\n",
              model.name().c_str(), EvaluateAccuracy(model, test),
              EvaluateAuc(model, test));

  // 3. Pick an applicant and explain the model's decision.
  Vector applicant = test.Row(0);
  std::printf("applicant:\n");
  for (int j = 0; j < test.num_features(); ++j)
    std::printf("  %-18s %s\n",
                test.schema().features[j].name.c_str(),
                test.RenderValue(j, applicant[j]).c_str());
  std::printf("predicted approval probability: %.3f\n\n",
              model.Predict(applicant));

  // 4a. TreeSHAP: exact per-feature attributions of the margin, in
  //     milliseconds, using the tree structure (no model queries).
  TreeEnsembleView view = TreeEnsembleView::Of(model);
  AttributionExplanation shap = TreeShap(view, applicant);
  shap.feature_names.clear();
  for (const auto& f : test.schema().features)
    shap.feature_names.push_back(f.name);
  std::printf("TreeSHAP attributions (log-odds margin):\n%s\n",
              shap.ToString().c_str());

  // 4b. LIME: a local weighted-ridge surrogate over perturbations.
  LimeExplainer lime(train);
  LimeExplanation lime_exp =
      lime.Explain(AsPredictFn(model), applicant, /*seed=*/7).ValueOrDie();
  lime_exp.feature_names = shap.feature_names;
  std::printf("LIME attributions (local surrogate, R^2 = %.3f):\n%s\n",
              lime_exp.local_r2, lime_exp.ToString().c_str());

  // 5. Global view: aggregate TreeSHAP over the test set ("combine local
  //    explanations to get a global understanding", TreeSHAP paper).
  Vector global = GlobalShapImportance(view, test, 150);
  std::printf("global mean |SHAP| importance:\n%s\n",
              ImportanceToString(global, test.schema()).c_str());

  std::printf(
      "All explainers should surface credit_score / debt_to_income /\n"
      "has_default as the drivers -- the features the generator actually\n"
      "uses -- and gender (not in the mechanism) near zero.\n\n");

  // 6. Serving: the same model published as an online explanation service.
  //    The registry fingerprints the snapshot, repeated requests hit the
  //    sharded cache, and a tight deadline degrades to a cheaper fidelity
  //    tier instead of blowing the latency budget.
  serve::ExplainServer server;
  server.registry()
      .Register("credit", SerializeModel(model),
                MakeLoans(64, /*seed=*/43))  // SHAP background sample
      .ValueOrDie();

  serve::ExplainRequest request;
  request.model = "credit";
  request.instance = applicant;
  request.kind = serve::ExplainerKind::kKernelShap;
  request.fidelity = serve::FidelityTier::kStandard;
  auto cold = server.Explain(request).ValueOrDie();
  auto warm = server.Explain(request).ValueOrDie();
  std::printf("served KernelSHAP: cold %.2f ms, repeat %.3f ms (%s)\n",
              cold.latency_ms, warm.latency_ms,
              warm.cache_hit ? "cache hit" : "cache miss");

  request.deadline_ms = 10.0;  // Interactive budget: degrade, don't miss.
  request.use_cache = false;
  auto rushed = server.Explain(request).ValueOrDie();
  std::printf("with a 10 ms deadline: served tier '%s'%s in %.2f ms "
              "(deadline %s)\n",
              serve::FidelityTierName(rushed.served_tier),
              rushed.degraded ? " (degraded)" : "", rushed.latency_ms,
              rushed.deadline_met ? "met" : "MISSED");
  if (show_telemetry) {
    std::printf("%s\n", xai::telemetry::SummaryLine().c_str());
    std::ofstream trace("quickstart.trace.json");
    telemetry::Registry::Global().WriteChromeTrace(trace);
    std::ofstream provenance("quickstart.provenance.jsonl");
    for (const auto* response : {&cold, &warm, &rushed})
      serve::WriteProvenanceJsonl(provenance, response->provenance);
    std::printf("wrote quickstart.trace.json and "
                "quickstart.provenance.jsonl\n");
  }
  return 0;
}
