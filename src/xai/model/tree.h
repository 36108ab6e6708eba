#ifndef XAI_MODEL_TREE_H_
#define XAI_MODEL_TREE_H_

#include <algorithm>
#include <vector>

#include "xai/core/check.h"
#include "xai/core/matrix.h"

namespace xai {

/// \brief One node of a binary decision tree.
///
/// Internal nodes route row[feature] <= threshold to `left`, otherwise to
/// `right`. Leaves have feature == -1 and carry the prediction in `value`.
/// `cover` is the number (or total weight) of training rows that reached the
/// node — TreeSHAP's conditional expectations are computed from it.
struct TreeNode {
  int feature = -1;
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  double value = 0.0;
  double cover = 0.0;

  bool IsLeaf() const { return feature < 0; }
};

/// \brief Flat-array binary decision tree (node 0 is the root).
class Tree {
 public:
  Tree() = default;
  explicit Tree(std::vector<TreeNode> nodes) : nodes_(std::move(nodes)) {}

  const std::vector<TreeNode>& nodes() const { return nodes_; }
  std::vector<TreeNode>* mutable_nodes() { return &nodes_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  bool empty() const { return nodes_.empty(); }

  /// The check message of every entry point that rejects a row narrower
  /// than a split feature it reads.
  static constexpr char kNarrowRow[] =
      "row narrower than the ensemble's widest split feature";

  /// Index of the leaf a row is routed to. CHECKs that the row holds every
  /// split feature on the path.
  int LeafIndexOf(const Vector& row) const {
    return Walk<true>(row.data(), row.size());
  }

  /// Pointer variant: lets batch predictors walk Matrix rows in place
  /// (Matrix::RowPtr) without materializing a Vector per row. Reads the
  /// path's split features unchecked.
  int LeafIndexOf(const double* row) const { return Walk<false>(row, 0); }

  /// Value of the leaf a row is routed to.
  double PredictRow(const Vector& row) const {
    return nodes_[LeafIndexOf(row)].value;
  }

  /// Pointer variant of PredictRow; see LeafIndexOf(const double*).
  double PredictRow(const double* row) const {
    return nodes_[LeafIndexOf(row)].value;
  }

  /// Maximum root-to-leaf depth.
  int Depth() const { return DepthFrom(0); }

  /// Number of leaves.
  int NumLeaves() const {
    int count = 0;
    for (const TreeNode& n : nodes_)
      if (n.IsLeaf()) ++count;
    return count;
  }

 private:
  template <bool kCheckWidth>
  int Walk(const double* row, size_t width) const {
    XAI_DCHECK(!nodes_.empty());
    int node = 0;
    while (!nodes_[node].IsLeaf()) {
      const TreeNode& n = nodes_[node];
      if constexpr (kCheckWidth)
        XAI_CHECK_MSG(static_cast<size_t>(n.feature) < width, kNarrowRow);
      node = row[n.feature] <= n.threshold ? n.left : n.right;
    }
    return node;
  }

  int DepthFrom(int node) const {
    if (nodes_.empty() || nodes_[node].IsLeaf()) return 0;
    return 1 + std::max(DepthFrom(nodes_[node].left),
                        DepthFrom(nodes_[node].right));
  }

  std::vector<TreeNode> nodes_;
};

}  // namespace xai

#endif  // XAI_MODEL_TREE_H_
