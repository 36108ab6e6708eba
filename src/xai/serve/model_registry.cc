#include "xai/serve/model_registry.h"

#include <algorithm>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "xai/core/telemetry.h"
#include "xai/model/serialization.h"

namespace xai {
namespace serve {
namespace {

/// Holds the concrete model and, for tree models, builds the ensemble view
/// over it before the type is erased behind Model.
struct Loaded {
  std::shared_ptr<const Model> model;
  std::shared_ptr<const TreeEnsembleView> tree_view;
  std::shared_ptr<const FlatEnsemble> flat;
};

template <typename M>
Loaded Hold(M model) {
  auto owned = std::make_shared<M>(std::move(model));
  Loaded loaded;
  loaded.model = owned;
  if constexpr (std::is_same_v<M, DecisionTreeModel> ||
                std::is_same_v<M, RandomForestModel> ||
                std::is_same_v<M, GbdtModel>) {
    // The view borrows the trees; owning `owned` via the aliasing-free
    // shared_ptr in `model` keeps them alive for the view's lifetime.
    loaded.tree_view =
        std::make_shared<TreeEnsembleView>(TreeEnsembleView::Of(*owned));
    // Compile the flat kernel now, while registration already owns the
    // snapshot: Execute-time PredictBatch/AsPredictFn hit the warm cache
    // and the first explanation request never pays the flatten.
    loaded.flat = owned->shared_flat();
    // Likewise prebuild the view's own flat kernel (scales/base folded, no
    // post-ops — the one TreeSHAP walks) and its cover side-table, so the
    // first kTreeShap request constructs its kernel for two shared_ptr
    // copies and allocates nothing beyond its thread's arena.
    loaded.tree_view->flat()->EnsureTreeShapData(loaded.tree_view->trees);
  }
  return loaded;
}

// A served model reads rows as wide as its background: one weight per
// feature, or split features inside [0, width). Anything else would index
// past every request row.
Status CheckWidth(const Vector& weights, int width) {
  if (static_cast<int>(weights.size()) == width) return Status::OK();
  return Status::InvalidArgument(
      "model has " + std::to_string(weights.size()) +
      " weights but the background has " + std::to_string(width) +
      " features");
}

Status CheckWidth(std::span<const Tree> trees, int width) {
  for (const Tree& tree : trees)
    for (const TreeNode& node : tree.nodes())
      if (!node.IsLeaf() && node.feature >= width)
        return Status::InvalidArgument(
            "tree splits on feature " + std::to_string(node.feature) +
            " but the background has " + std::to_string(width) +
            " features");
  return Status::OK();
}

Result<Loaded> Load(const std::string& kind, const std::string& serialized,
                    int width) {
  if (kind == "linear_regression") {
    XAI_ASSIGN_OR_RETURN(LinearRegressionModel m,
                         DeserializeLinearRegression(serialized));
    XAI_RETURN_NOT_OK(CheckWidth(m.weights(), width));
    return Hold(std::move(m));
  }
  if (kind == "logistic_regression") {
    XAI_ASSIGN_OR_RETURN(LogisticRegressionModel m,
                         DeserializeLogisticRegression(serialized));
    XAI_RETURN_NOT_OK(CheckWidth(m.weights(), width));
    return Hold(std::move(m));
  }
  if (kind == "decision_tree") {
    XAI_ASSIGN_OR_RETURN(DecisionTreeModel m,
                         DeserializeDecisionTree(serialized));
    XAI_RETURN_NOT_OK(CheckWidth({&m.tree(), 1}, width));
    return Hold(std::move(m));
  }
  if (kind == "random_forest") {
    XAI_ASSIGN_OR_RETURN(RandomForestModel m,
                         DeserializeRandomForest(serialized));
    XAI_RETURN_NOT_OK(CheckWidth(m.trees(), width));
    return Hold(std::move(m));
  }
  if (kind == "gbdt") {
    XAI_ASSIGN_OR_RETURN(GbdtModel m, DeserializeGbdt(serialized));
    XAI_RETURN_NOT_OK(CheckWidth(m.trees(), width));
    return Hold(std::move(m));
  }
  return Status::InvalidArgument("unsupported model kind for serving: " +
                                 kind);
}

}  // namespace

Result<uint64_t> ModelRegistry::Register(const std::string& name,
                                         const std::string& serialized,
                                         Dataset background) {
  if (name.empty())
    return Status::InvalidArgument("model name must be non-empty");
  if (background.num_rows() < 1)
    return Status::InvalidArgument(
        "serving background dataset must be non-empty");
  XAI_ASSIGN_OR_RETURN(std::string kind, PeekModelKind(serialized));
  XAI_ASSIGN_OR_RETURN(Loaded loaded,
                       Load(kind, serialized, background.num_features()));

  auto entry = std::make_shared<ModelEntry>();
  entry->name = name;
  entry->kind = kind;
  entry->fingerprint = Fingerprint(serialized);
  // Matrix storage is row-major contiguous; hash it in one pass.
  entry->background_fingerprint =
      ContentHash64(background.x().RowPtr(0),
                    static_cast<size_t>(background.num_rows()) *
                        background.num_features() * sizeof(double));
  entry->model = std::move(loaded.model);
  entry->tree_view = std::move(loaded.tree_view);
  entry->flat = std::move(loaded.flat);
  entry->background = std::make_shared<Dataset>(std::move(background));

  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[name] = entry;
  }
  XAI_COUNTER_INC("serve/models_registered");
  return entry->fingerprint;
}

std::shared_ptr<const ModelEntry> ModelRegistry::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it != entries_.end() ? it->second : nullptr;
}

Status ModelRegistry::Unregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.erase(name) > 0
             ? Status::OK()
             : Status::NotFound("no registered model named " + name);
}

std::vector<std::string> ModelRegistry::Names() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

int ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(entries_.size());
}

}  // namespace serve
}  // namespace xai
