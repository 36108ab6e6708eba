#include "xai/rules/sufficient_reason.h"

#include <algorithm>
#include <set>

#include "xai/core/combinatorics.h"

namespace xai {

namespace {

// Does every leaf reachable under the partial assignment classify to
// `target_class`? Features in `mask` follow the instance; others explore
// both branches. The 64-bit mask names features 0..63 only, so a split on
// a later feature is never fixed.
bool AllReachableLeavesAgree(const Tree& tree, const Vector& instance,
                             uint64_t mask, int node, int target_class,
                             double threshold) {
  const TreeNode& n = tree.nodes()[node];
  if (n.IsLeaf()) {
    int cls = n.value >= threshold ? 1 : 0;
    return cls == target_class;
  }
  if (n.feature < 64 && ((mask >> n.feature) & 1)) {
    XAI_CHECK_MSG(static_cast<size_t>(n.feature) < instance.size(),
                  Tree::kNarrowRow);
    int next = instance[n.feature] <= n.threshold ? n.left : n.right;
    return AllReachableLeavesAgree(tree, instance, mask, next, target_class,
                                   threshold);
  }
  return AllReachableLeavesAgree(tree, instance, mask, n.left, target_class,
                                 threshold) &&
         AllReachableLeavesAgree(tree, instance, mask, n.right, target_class,
                                 threshold);
}

}  // namespace

bool IsSufficientReason(const Tree& tree, const Vector& instance,
                        uint64_t mask, double decision_threshold) {
  if (tree.empty()) return true;
  int target = tree.PredictRow(instance) >= decision_threshold ? 1 : 0;
  return AllReachableLeavesAgree(tree, instance, mask, 0, target,
                                 decision_threshold);
}

std::vector<int> TestedFeatures(const Tree& tree) {
  std::set<int> feats;
  for (const TreeNode& n : tree.nodes())
    if (!n.IsLeaf()) feats.insert(n.feature);
  return std::vector<int>(feats.begin(), feats.end());
}

Result<SufficientReason> MinimumSufficientReason(const Tree& tree,
                                                 const Vector& instance,
                                                 int num_features,
                                                 int exact_limit,
                                                 double decision_threshold) {
  if (num_features >= 63)
    return Status::InvalidArgument("too many features for bitmask search");
  SufficientReason result;
  std::vector<int> tested = TestedFeatures(tree);
  int t = static_cast<int>(tested.size());

  if (t <= exact_limit && t <= 22) {
    // Exact: BFS over subset sizes of the tested features.
    for (int size = 0; size <= t; ++size) {
      // Enumerate subsets of `tested` of the given size.
      std::vector<int> idx(size);
      for (int i = 0; i < size; ++i) idx[i] = i;
      bool more = size <= t;
      while (more) {
        uint64_t mask = 0;
        for (int i : idx) mask |= 1ULL << tested[i];
        ++result.checks;
        if (IsSufficientReason(tree, instance, mask, decision_threshold)) {
          result.features = MaskToIndices(mask);
          result.minimal = true;  // Minimum cardinality => prime implicant.
          return result;
        }
        // Next combination.
        int i = size - 1;
        while (i >= 0 && idx[i] == t - size + i) --i;
        if (i < 0) {
          more = false;
        } else {
          ++idx[i];
          for (int j = i + 1; j < size; ++j) idx[j] = idx[j - 1] + 1;
        }
        if (size == 0) more = false;
      }
    }
    return Status::Internal("full feature set should always be sufficient");
  }

  // Greedy: start from all tested features, try dropping each.
  uint64_t mask = 0;
  for (int f : tested) mask |= 1ULL << f;
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (int f : tested) {
      uint64_t bit = 1ULL << f;
      if (!(mask & bit)) continue;
      ++result.checks;
      if (IsSufficientReason(tree, instance, mask & ~bit,
                             decision_threshold)) {
        mask &= ~bit;
        shrunk = true;
      }
    }
  }
  result.features = MaskToIndices(mask);
  result.minimal = true;  // No single feature can be dropped.
  return result;
}

std::vector<int> NecessaryFeatures(const Tree& tree, const Vector& instance,
                                   int num_features,
                                   double decision_threshold) {
  std::vector<int> necessary;
  uint64_t full = 0;
  for (int f : TestedFeatures(tree)) full |= 1ULL << f;
  for (int f = 0; f < num_features; ++f) {
    uint64_t bit = 1ULL << f;
    if (!(full & bit)) continue;
    if (!IsSufficientReason(tree, instance, full & ~bit,
                            decision_threshold))
      necessary.push_back(f);
  }
  return necessary;
}

}  // namespace xai
