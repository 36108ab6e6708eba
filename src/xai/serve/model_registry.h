#ifndef XAI_SERVE_MODEL_REGISTRY_H_
#define XAI_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "xai/core/status.h"
#include "xai/data/dataset.h"
#include "xai/model/flat_ensemble.h"
#include "xai/model/model.h"
#include "xai/model/tree_ensemble_view.h"

namespace xai {
namespace serve {

/// \brief One registered model snapshot: the deserialized model, its stable
/// content fingerprint, and the background data its explainers condition
/// on. Entries are immutable once published — re-registering a name swaps
/// in a new entry; in-flight requests keep their shared_ptr to the old one.
struct ModelEntry {
  std::string name;
  /// Serialization kind tag ("gbdt", "logistic_regression", ...).
  std::string kind;
  /// ContentHash64 of the serialized text. Stable across process restarts
  /// and registry reloads of the same snapshot, so cache keys built on it
  /// survive both.
  uint64_t fingerprint = 0;
  /// ContentHash64 of the background matrix (folded into cache keys:
  /// explanations condition on the background, so swapping it must miss).
  uint64_t background_fingerprint = 0;
  std::shared_ptr<const Model> model;
  /// Non-null for tree-based snapshots (decision_tree / random_forest /
  /// gbdt); borrows from `model`, which this entry keeps alive.
  std::shared_ptr<const TreeEnsembleView> tree_view;
  /// Non-null for tree-based snapshots: the compiled SoA inference kernel
  /// (model/flat_ensemble.h), built eagerly at Register so the first
  /// request never pays the flatten. One kernel per fingerprinted snapshot —
  /// every explainer run against this entry shares it.
  std::shared_ptr<const FlatEnsemble> flat;
  /// Training-distribution sample: SHAP background rows, LIME/Anchors
  /// perturbation statistics, counterfactual plausibility reference.
  std::shared_ptr<const Dataset> background;

  int num_features() const { return background->num_features(); }
};

/// \brief Thread-safe name -> snapshot registry fronting the serving layer.
///
/// Models enter serialized (model/serialization text format), the same
/// bytes a model store or replication stream would carry, and the
/// fingerprint is the content hash of exactly those bytes — the registry
/// never re-serializes, so what you register is what you hash.
class ModelRegistry {
 public:
  /// Deserializes and publishes a snapshot under `name`, replacing any
  /// previous entry (a reload). Returns the content fingerprint.
  /// InvalidArgument on malformed text, an unsupported kind, or a model
  /// whose input width differs from `background`'s feature count.
  Result<uint64_t> Register(const std::string& name,
                            const std::string& serialized,
                            Dataset background);

  /// The current entry, or nullptr if the name is unknown.
  std::shared_ptr<const ModelEntry> Find(const std::string& name) const;

  /// Removes `name`. NotFound if absent.
  Status Unregister(const std::string& name);

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

  int size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const ModelEntry>>
      entries_;
};

}  // namespace serve
}  // namespace xai

#endif  // XAI_SERVE_MODEL_REGISTRY_H_
